"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py      (from the root of a checkout)

1. A short run of each workload, untraced and traced, ends with a result
   line that has exactly the metrics BENCHMARK.json names, with their units.
2. A deliberately wrong expected fact is counted as a failed op on both
   workloads, and so is a cycle word that a broken certificate calls the
   identity.
3. In a directory that holds only BENCHMARK.json and the benchmark, a run
   exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run


def short_run(workload, trace, cwd=run.ROOT, seconds=2):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def check_metric_names(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = short_run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert f"  {name} " in proc.stdout, f"{name} missing from the report"
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics with units")


def check_wrong_facts():
    wrong = dict(run.facts.FACTS, cusp_labels=("B1",) * 5)
    result, record = run.run("cli-146928", 1, 1, False, fact_table=wrong)
    assert result["failed"] >= 1 and not result["correct"], result
    assert {f["outcome"] for f in record["failures"]} == {"failed:cusps"}, record["failures"]
    print(f"ok  cli-146928 with wrong cusp labels: {result['failed']} failed ops")

    rules = dict(run.facts.POINCARE, whole_turn=3)
    result, record = run.run("census-gluing", 1, 3, False, rules=rules)
    assert result["failed"] >= 1 and not result["correct"], result
    assert all(f["outcome"] == "failed:gluing facts" for f in record["failures"])
    print(f"ok  census-gluing with a whole turn of 3 right angles: {result['failed']} failed ops")


def check_broken_certificate():
    """An is_identity that accepts every cycle word fails the ops it touches."""
    sys.path.insert(0, run.SRC)
    from cell24 import moebius

    original = moebius.MoebiusWord.is_identity
    moebius.MoebiusWord.is_identity = lambda word: True
    try:
        result, record = run.run("census-gluing", 1, 3, False)
    finally:
        moebius.MoebiusWord.is_identity = original
    assert not result["correct"], result
    failed = record["outcomes"].get("failed:gluing facts", 0)
    assert failed >= 1, record["outcomes"]
    print(f"ok  census-gluing with an is_identity that is always true: {failed} failed ops")


def check_without_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = short_run("census-gluing", 0, cwd=bare, seconds=1)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_wrong_facts()
    check_broken_certificate()
    check_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
