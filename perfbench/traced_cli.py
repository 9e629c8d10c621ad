"""Run one ``distilkit`` verb with spans recorded around its public calls.

Usage: ``PERFBENCH_SPANS=<file> python3 perfbench/traced_cli.py <verb> [args]``
with ``src`` on ``PYTHONPATH``.  Writes the spans and the child's own
timestamps (first statement, import done, verb done) to ``<file>`` and exits
with the verb's exit code.
"""

from time import perf_counter

FIRST = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402
import distilkit.cli  # noqa: E402

IMPORTED = perf_counter()


def main() -> int:
    tr = tracer.Tracer()
    tr.install({**tracer.LAYERS, **tracer.CLI_LAYERS})
    tr.install(tracer.COUNTERS, count=True)
    code = distilkit.cli.run(sys.argv[1:])
    end = perf_counter()
    tr.uninstall()
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump({"first": FIRST, "imported": IMPORTED, "end": end, "spans": tr.spans,
                   "counts": tr.counts.get(None, {})}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
