"""Benchmark of the cell24 engine through its public functions and its CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src``.
Workloads are closed loops with one client, in one process, with no extra
threads (see perfbench/NOTES.md for why each exists):

    cli-146928     each op is a fresh ``python -m cell24.cli`` process running
                   one README invocation on 146928; ops come in rounds of all
                   ten invocations, each round in a seeded order.
    census-gluing  each op runs census's gluing battery (pairings, ridge
                   cycles, cycle-word certificates, edge orbits) on a distinct
                   code drawn with the seed from the 97,200 pairing-valid codes.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the traced functions (tracer.py) and reports per-function calls and
self time per op, layer shares and work ratios; each traced op has the same op
untraced as its twin, run after it on even op ids and before it on odd ones,
which gives the tracing overhead.  A report goes to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The outcome table, failures and spans are written once, at the
end, to ``.perfbench_out/`` in the checkout.

End-to-end timings are scaled to a fixed machine speed by a calibration timed
after every op (see CALIBRATION below); the report also prints them as
measured on the wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import codes  # noqa: E402
import facts  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("cli-146928", "census-gluing")
# Set-up samples are spread over the run, so that their median does not
# rest on one stretch of machine load.
SETUP_SAMPLES = 11
# Every run completes at least seconds * TABLE_RATE ops.  The outcome table
# covers exactly that prefix of the op stream, so runs with the same seed and
# --seconds print the same table.  op_s.tail is picked by the prefix size too,
# so every run of a workload reports the same percentile.
TABLE_RATE = {"cli-146928": 1.3, "census-gluing": 5.0}
# Candidate percentiles for op_s.tail: the highest one with at least
# TAIL_BEYOND of the prefix's samples beyond it.  At 55 s that is p85 on
# cli-146928 (71 ops) and p95 on census-gluing (275 ops).  90 is left out: on
# cli-146928 each subcommand is a tenth of the ops, so p90 sits exactly on the
# boundary between the invariants and cusps latency modes.
TAIL_GRID = (75, 85, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
# The speed of the machine the benchmark was built on drifts by up to 40%
# from minute to minute.  A fixed calibration, timed after
# every op, tracks that drift: in 10 s windows of a 150 s run,
# the time of census.validate ranged over 36% of its median and its ratio to the
# calibration's time over 7%.  So every timing metric is scaled by
# CALIBRATION_BASE_S / (the run's median calibration time): it is given in
# seconds on a machine where the calibration takes CALIBRATION_BASE_S.  The
# calibration does the kind of work the workload's ops do: interpreter work
# with exact fractions and a dict keyed by tuples, run in process on the
# census and in a fresh interpreter on the CLI.  The raw wall-clock values
# are in the report and the run record.
CALIBRATION = (
    "from fractions import Fraction\n"
    "table = {}\n"
    "acc = Fraction(0)\n"
    "for i in range(1, 1000):\n"
    "    acc += Fraction(i, 7) * Fraction(3, i + 1)\n"
    "    table[(i, i % 7)] = acc\n"
)
CALIBRATION_BASE_S = {"cli-146928": 0.05, "census-gluing": 0.006}
# Outcome of a census op whose gluing meets the Poincare conditions.
MANIFOLD = "manifold"

CENSUS_SETUP = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cell24.census, cell24.flat3, cell24.polytope\n"
    "cell24.polytope.build_polytope()\n"
    "cell24.flat3.reference_table()\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + path if path else ""),
        PYTHONIOENCODING="utf-8",
    )


def run_child(cmd):
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, encoding="utf-8",
        errors="replace", timeout=CHILD_TIMEOUT_S,
    )


def setup_timer(workload):
    """A function that times the set-up of one fresh process."""
    if workload == "cli-146928":
        cmd = [sys.executable, "-c", "import cell24.cli"]
    else:
        cmd = [sys.executable, "-c", CENSUS_SETUP]

    def sample():
        t0 = time.perf_counter()
        proc = run_child(cmd)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        return wall if workload == "cli-146928" else float(proc.stdout)

    return sample


def calibration_timer(workload):
    """A function that times one run of CALIBRATION."""
    if workload == "cli-146928":
        cmd = [sys.executable, "-c", CALIBRATION]

        def sample():
            t0 = time.perf_counter()
            run_child(cmd).check_returncode()
            return time.perf_counter() - t0
    else:
        code = compile(CALIBRATION, "<calibration>", "exec")

        def sample():
            t0 = time.perf_counter()
            exec(code, {})
            return time.perf_counter() - t0

    return sample


# -- workloads ----------------------------------------------------------------


class CliWorkload:
    """Fresh CLI processes, in rounds of all invocations in seeded order."""

    def __init__(self, seed, fact_table, tmp):
        self.rng = random.Random(seed)
        self.facts = fact_table
        self.tmp = tmp

    def rounds(self):
        while True:
            yield self.rng.sample(sorted(facts.CLI_COMMANDS), len(facts.CLI_COMMANDS))

    def op(self, name, op_id, trace=None):
        out_dir = os.path.join(self.tmp, f"op{op_id}")
        args = [a.replace("{out}", out_dir) for a in facts.CLI_COMMANDS[name]]
        spans_file = os.path.join(self.tmp, f"spans{op_id}.json")
        if trace is None:
            cmd = [sys.executable, "-m", "cell24.cli", *args]
        else:
            child = os.path.join(HERE, "cli_child.py")
            cmd = [sys.executable, child, SRC, spans_file, str(op_id), "--", *args]
        t0 = time.perf_counter()
        try:
            proc = run_child(cmd)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"failed:{name}", ["timed out"]
        latency = time.perf_counter() - t0
        problems = facts.check_cli(name, proc.returncode, proc.stdout, out_dir, self.facts)
        shutil.rmtree(out_dir, ignore_errors=True)
        if trace is not None and os.path.exists(spans_file):
            with open(spans_file, encoding="utf-8") as fh:
                trace.merge(json.load(fh))
            os.remove(spans_file)
        if problems:
            return latency, f"failed:{name}", problems
        return latency, f"ok:{name}", []


class CensusGluing:
    """census's gluing battery on distinct seeded codes, in one process.

    The op makes the same calls as ``census.validate`` but leaves out its
    verdict, which accepts non-manifold gluings (ROADMAP item 1); the
    benchmark tells manifolds apart itself, from the op's outputs.
    """

    def __init__(self, seed, rules):
        from cell24 import census, groups, kirby, polytope

        self.census = census
        self.polytope = polytope
        self.typed = (census.CensusError, groups.GroupError, kirby.KirbyError)
        self.stream = codes.draw_codes(seed)
        self.rules = rules

    def rounds(self):
        for code in self.stream:
            yield [code]

    def op(self, code, op_id, trace=None):
        census = self.census
        if trace is not None:
            trace.install()
        t0 = time.perf_counter()
        try:
            poly = self.polytope.build_polytope()
            pairings = census.build_pairings(census.parse_code(code), poly)
            eps = census.orientation_character(pairings)
            cycles = census.ridge_cycles(pairings, poly)
            identities = [census.cycle_moebius_word(c, pairings).is_identity() for c in cycles]
            signs = [census.eps_of_word(c.relator, eps) for c in cycles]
            orbits = census.edge_classes(pairings, poly)
        except self.typed as exc:
            return time.perf_counter() - t0, f"typed-error:{type(exc).__name__}", []
        except Exception as exc:  # any other exception is a failed op
            return time.perf_counter() - t0, f"failed:{type(exc).__name__}", [repr(exc)]
        finally:
            latency = time.perf_counter() - t0
            if trace is not None:
                trace.uninstall()
        problems, non_manifold = facts.gluing_problems(cycles, identities, signs, orbits, self.rules)
        if problems:
            return latency, "failed:gluing facts", problems
        return latency, f"non-manifold:{non_manifold}" if non_manifold else MANIFOLD, []


# -- metrics ------------------------------------------------------------------


def per_layer_metrics(trace, ops, latencies, manifolds, overhead_pct):
    totals = tracer.self_times(trace.spans)
    wall = sum(latencies)
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for layer, names in tracer.LAYERS.items():
        metrics[f"{layer}.share"] = (100 * sum(totals[n][1] for n in names) / wall, "%")

    def ratio(counter):
        attempts, useful = trace.counters[counter]
        return useful / attempts if attempts else 0.0

    metrics["census.validate.accept_ratio"] = (ratio("census.validate.accept"), "ratio")
    metrics["census.manifold_ratio"] = (manifolds / ops, "ratio")
    metrics["groups.todd_coxeter.conclusive_ratio"] = (ratio("groups.todd_coxeter.conclusive"), "ratio")
    metrics["cusps.find_filling_translations.ball_size"] = (ratio("cusps.find_filling_translations.ball"), "elements")
    metrics["cusps.find_filling_translations.found_ratio"] = (ratio("cusps.find_filling_translations.found"), "ratio")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def tail(latencies, table_ops):
    """(percentile, value, samples beyond) for the highest TAIL_GRID percentile
    with at least TAIL_BEYOND of table_ops samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    eligible = [p for p in TAIL_GRID if table_ops * (1 - p / 100) >= TAIL_BEYOND] or [50]
    p = max(eligible)
    pos = p / 100 * (n - 1)
    lo = int(pos)
    value = xs[lo] + (xs[min(lo + 1, n - 1)] - xs[lo]) * (pos - lo)
    return p, value, sum(1 for x in xs if x > value)


def run_loop(workload, seconds, table_ops, trace=None, setup_sample=None, speed_sample=None):
    """Closed loop: whole rounds until both the time and the table prefix are
    done.  When tracing, every traced op has the same op untraced as its twin,
    run after it on even op ids and before it on odd ones.  Otherwise the
    calibration runs after every op, and set-up samples are taken between
    rounds, evenly over the run."""
    latencies, untraced, ops, failures, setup, speed = [], [], [], [], [], []
    outcomes, table = {}, {}
    start = time.perf_counter()
    for round_ops in workload.rounds():
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= table_ops:
            break
        while setup_sample and len(setup) < min(SETUP_SAMPLES, 1 + SETUP_SAMPLES * elapsed / seconds):
            setup.append(setup_sample())
        for item in round_ops:
            op_id = len(ops)
            if trace is not None:
                trace.op = op_id
            if trace is not None and op_id % 2:
                untraced.append(workload.op(item, op_id)[0])
            latency, outcome, problems = workload.op(item, op_id, trace)
            if trace is not None and not op_id % 2:
                untraced.append(workload.op(item, op_id)[0])
            if speed_sample:
                speed.append(speed_sample())
            latencies.append(latency)
            ops.append(item)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if op_id < table_ops:
                table[outcome] = table.get(outcome, 0) + 1
            if problems:
                failures.append({"op": op_id, "input": item, "outcome": outcome,
                                 "problems": problems})
    while setup_sample and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return latencies, untraced, ops, outcomes, table, failures, setup, speed


def run(name, seed, seconds, trace_on, fact_table=facts.FACTS, rules=facts.POINCARE):
    """Run one workload; returns (result line dict, record dict)."""
    codes.check_digit_sets()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup_sample = None if trace_on else setup_timer(name)
        if setup_sample:
            setup_sample()  # warm-up: compiles bytecode and fills the file cache
        if name == "cli-146928":
            workload = CliWorkload(seed, fact_table, tmp)
        else:
            if SRC not in sys.path:
                sys.path.insert(0, SRC)
            import cell24.flat3
            import cell24.polytope

            cell24.polytope.build_polytope()
            cell24.flat3.reference_table()
            workload = CensusGluing(seed, rules)
        # A traced run does every op twice (traced and untraced), so it is sure
        # of half the prefix.
        table_ops = max(1, int(seconds * TABLE_RATE[name] / (2 if trace_on else 1)))
        trace = tracer.Tracer() if trace_on else None
        latencies, untraced, ops, outcomes, table, failures, setup, speed = run_loop(
            workload, seconds, table_ops, trace, setup_sample,
            None if trace_on else calibration_timer(name),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace_on:
        overhead = 100 * (sum(latencies) / sum(untraced) - 1)
        metrics = per_layer_metrics(
            trace, len(ops), latencies, outcomes.get(MANIFOLD, 0), overhead
        )
    else:
        p, value, beyond = tail(latencies, table_ops)
        if name == "cli-146928":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ops) / sum(latencies),
            "op_s.p50": statistics.median(latencies),
            "op_s.tail": value,
        }
        scale = CALIBRATION_BASE_S[name] / statistics.median(speed)
        metrics = {
            "setup_s": (wall["setup_s"] * scale, "s"),
            "ops_per_s": (wall["ops_per_s"] / scale, "1/s"),
            "op_s.p50": (wall["op_s.p50"] * scale, "s"),
            "op_s.tail": (wall["op_s.tail"] * scale, "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
    failed = len(failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "attempted": len(ops), "failed": failed,
        "error_rate": failed / len(ops),
        "table_ops": table_ops, "outcomes": dict(sorted(table.items())),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace_on:
        record["untraced_ops_per_s"] = len(ops) / sum(untraced)
        record["traced_ops_per_s"] = len(ops) / sum(latencies)
        record["spans"] = trace.spans
    else:
        record["setup_samples"] = setup
        record["wall_clock"] = wall
        record["calibration_s"] = {"median": statistics.median(speed), "samples": len(speed),
                                   "scale": scale}
        record["op_latencies_s"] = latencies
        record["calibration_samples_s"] = speed
        if name == "cli-146928":
            record["subcommand_p50_s"] = {
                sub: statistics.median(x for x, op in zip(latencies, ops) if op == sub)
                for sub in sorted(facts.CLI_COMMANDS)
            }
        record["tail"] = {"percentile": p, "samples": len(ops), "beyond": beyond}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }
    return result, record


def report_lines(record):
    r = record
    yield (f"workload {r['workload']} seed {r['seed']} seconds {r['seconds']} "
           f"trace {r['trace']} (python {r['python']}, nproc {r['nproc']})")
    for key, m in r["metrics"].items():
        yield f"  {key:48} {m['value']:.6g} {m['unit']}"
    for sub, value in sorted(r.get("subcommand_p50_s", {}).items(), key=lambda kv: kv[1]):
        yield f"  wall-clock median latency of {sub:25} {value:.6g} s"
    if "wall_clock" in r:
        c = r["calibration_s"]
        yield (f"  timings above are scaled by {c['scale']:.4g}: the calibration took "
               f"{c['median']:.4g} s (median of {c['samples']}) against {CALIBRATION_BASE_S[r['workload']]} s")
        for key, value in r["wall_clock"].items():
            yield f"  wall-clock {key:37} {value:.6g}"
    if "tail" in r:
        t = r["tail"]
        yield (f"  op_s.tail is p{t['percentile']:g} of {t['samples']} ops "
               f"({t['beyond']} beyond it)")
    else:
        yield (f"  traced {r['traced_ops_per_s']:.4g} ops/s against untraced "
               f"{r['untraced_ops_per_s']:.4g} ops/s on the same ops")
    yield f"  error_rate {r['error_rate']:.4g} ({r['failed']} failed of {r['attempted']} attempted)"
    yield f"  outcomes of the first {r['table_ops']} ops:"
    for outcome, count in r["outcomes"].items():
        yield f"    {count:6d}  {outcome}"
    for f in r["failures"][:20]:
        yield f"  failed op {f['op']} {f['input']}: {'; '.join(f['problems'])}"
    if len(r["failures"]) > 20:
        yield f"  ... {len(r['failures']) - 20} more failures in the record file"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "cell24", "cli.py")):
        sys.stderr.write(f"cell24 sources not found under {SRC}\n")
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for line in report_lines(record):
        print(line)
    print(f"  record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
