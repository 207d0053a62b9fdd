"""Run one clusterkit cli command with every layer traced.

    python3 perfbench/cli_child.py TRACE_FILE ARGS...

behaves like `python -m clusterkit.cli ARGS...` (same output and exit code)
and also writes the command's spans to TRACE_FILE.  The benchmark's traced
cli runs start this instead of the module.
"""

import sys

from spans import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    from clusterkit import cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        tracer.save(trace_file)


if __name__ == "__main__":
    sys.exit(main())
