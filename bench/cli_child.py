"""Run one `hh` invocation under the span tracer (the traced cli-mix run).

    python3 bench/cli_child.py SPANS_JSON [hh arguments ...]

Wraps the library, runs ``cli.main`` and writes the spans and the
tracemalloc peak of the largest special-layer call to SPANS_JSON.  Exits
with ``main``'s code.  It gives spans and work counts only: the cli's
import and compute times come from untraced `python -m heisenberg_hardy.cli`
runs.
"""

import json
import sys

from heisenberg_hardy import cli, geometry, hardy, numerics, special
from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install({"special": special, "numerics": numerics, "geometry": geometry,
                    "hardy": hardy, "cli": cli})
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    report = {"spans": tracer.spans, "peak_alloc": tracer.peak_alloc_bytes()}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
