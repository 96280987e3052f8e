"""Run one sinespec command with the layer tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_JSON ARG...

Times ``import sinespec.cli`` and the call to its ``main``, wraps the
names through which each layer calls the next, runs the command as the
``sinespec`` entry point would, writes the spans to SPANS_JSON and exits
with the command's status.
"""

import time

t0 = time.perf_counter()

import sinespec.cli as cli  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.record("cli.import", "cli", t0, t1)
tracer.install()
try:
    with tracer.span("cli.main", "cli"):
        status = cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(tracer.spans, fh)
sys.exit(status)
