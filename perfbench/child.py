"""Run one ``rank1daha`` command line in this process, for the benchmark.

    python3 perfbench/child.py --meta META [--trace-out TRACE | --setup-only] verify run ...

The command line after the options goes to ``rank1daha.cli.main``
unchanged.  ``META`` receives, as JSON, the ``time.monotonic()`` reading
at which ``verify.run_checks`` was entered (the end of set-up) and the
exit code.  With ``--trace-out`` the layers are traced (see
``tracer.py``) and the spans are written to ``TRACE`` after the command
has finished.  With ``--setup-only`` the process stops at that point
instead, without running a check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class SetupDone(Exception):
    """Raised where the first check would start, under --setup-only."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--meta", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    from rank1daha import cli, verify

    spans = None
    if args.trace_out:
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)

    first_check = []
    run_checks = verify.run_checks

    def timed_run_checks(config):
        first_check.append(time.monotonic())
        if args.setup_only:
            raise SetupDone
        return run_checks(config)

    verify.run_checks = timed_run_checks
    try:
        code = cli.main(args.argv)
    except SetupDone:
        code = 0
    if spans is not None:
        tracer.record_alive(spans)
        spans.dump(args.trace_out)
    with open(args.meta, "w") as fh:
        json.dump({"first_check": first_check[0] if first_check else None, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
