"""One scenario process: python3 child.py RECORD TRACE run FILE --format json

Does what `python -m treeclose.cli run FILE --format json` does (calls
treeclose.cli.main with the same arguments and exits with its code), and
writes a JSON record to RECORD when it ends: the monotonic time at which
`import treeclose.cli` returned and how long the import took, plus, when
TRACE is 1, the per-layer totals of the tracer.
"""

import time

BEFORE_IMPORT = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import treeclose.cli  # noqa: E402

IMPORTED_AT = time.monotonic()


def main():
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = treeclose.cli.main(argv)
    finally:
        record = {
            "imported_at": IMPORTED_AT,
            "import_s": IMPORTED_AT - BEFORE_IMPORT,
        }
        if tracer is not None:
            record["layers"] = tracer.flush()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
