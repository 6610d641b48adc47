"""Traced form of one ``python -m repro.cli`` invocation.

Usage: ``python cli_child.py OUT.json <repro.cli arguments>``.  Imports the
modules ``repro.cli insert`` loads (timed as the ``cli.op_import`` span),
installs the layer wrappers, runs ``repro.cli.main`` and writes the
tracer's snapshot to ``OUT.json``.  Stdout and the exit code are the
CLI's own.  Pool workers forked by the CLI inherit the wrappers, but
their figures stay in the workers: the parent's spans cover the op.
"""

import json
import sys
import time

from layers import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.circuit.suite  # noqa: F401 - the modules `insert` loads
    import repro.cli
    import repro.core  # noqa: F401
    import repro.engine  # noqa: F401

    tracer = Tracer()
    tracer.seconds["cli.op_import"] = time.perf_counter() - start
    tracer.install()
    tracer.recording = True
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.recording = False
        sys.stdout.flush()
        with open(out_path, "w") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
