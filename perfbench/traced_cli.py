"""Run one klpriv CLI command in-process with spans installed.

Usage: python traced_cli.py SPANS_JSON [klpriv arguments...]

Times the import of ``klpriv.cli``, installs the spans of :mod:`spans`,
calls ``klpriv.cli.main`` with the remaining arguments under a root span
``cli.main``, writes the span totals to SPANS_JSON and exits with the
command's exit code.
"""

import json
import sys
from time import perf_counter

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import klpriv.cli
    import_s = perf_counter() - t0
    tracer = spans.Tracer()
    spans.install(tracer)
    rc = klpriv.cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, **tracer.snapshot()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
