"""Traced CLI process: ``python cli_child.py SPANS.npz <liefact argv...>``.

Times the fresh-process import of ``liefact.cli``, installs the span
wrappers, runs ``liefact.cli.main(argv)`` as op 0 and writes the spans to
SPANS.npz before exiting with the command's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import liefact.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402  (the benchmark's span recorder, next to this file)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer().install()
    tracer.current_op = 0
    tracer.enabled = True
    try:
        rc = liefact.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.extras.append(("cli.import_s", 0, import_s))
        spans.save(out, tracer.data())
    return rc


if __name__ == "__main__":
    sys.exit(main())
