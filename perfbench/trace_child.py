"""Run one quatspin CLI call with spans around its public calls.

Used by traced runs in place of `python -m quatspin ARGS...`:

    python -X importtime perfbench/trace_child.py SPANS_FILE -- ARGS...

Stdout and the exit code are those of `quatspin.cli.main(ARGS)`; the spans
(an `import.quatspin` span around the package import, then one per traced
call) are written to SPANS_FILE as JSON when the call returns.
"""

import json
import sys
import time


def main() -> int:
    spans_file, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: trace_child.py SPANS_FILE -- ARGS...", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    import quatspin.cli
    t1 = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.add("import.quatspin", t0, t1)
    with spans.installed(tracer):
        try:
            code = quatspin.cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    sys.stdout.flush()
    with open(spans_file, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
