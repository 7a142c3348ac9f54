"""One traced CLI invocation in a fresh process.

Usage: cli_child.py SRC_DIR SPANS_FILE OP_ID -- CELL24_ARGS...

Imports ``cell24.cli`` inside a span, wraps the traced functions, runs
``cell24.cli.main`` on the arguments, writes the spans and counters to
SPANS_FILE and exits with the CLI's exit code.
"""

import json
import os
import sys

src, spans_file, op_id, sep, *cli_args = sys.argv[1:]
if sep != "--":
    sys.exit("usage: cli_child.py SRC_DIR SPANS_FILE OP_ID -- CELL24_ARGS...")
sys.path.insert(0, src)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402

tr = tracer.Tracer()
tr.op = int(op_id)
tr.begin(tracer.IMPORT_SPAN)
import cell24.cli  # noqa: E402

tr.end()
tr.install()
code = 1
try:
    code = cell24.cli.main(cli_args)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    tr.uninstall()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tr.records(), fh)
sys.stdout.flush()
sys.exit(code)
