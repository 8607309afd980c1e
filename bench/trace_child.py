"""Run one ringmat CLI command under the tracer and save its totals.

    python3 bench/trace_child.py TOTALS_PATH CLI_ARG...

stdout and the exit code are those of the command; the tracer's
additive totals are written to TOTALS_PATH as JSON.  The traced
cli_oneshot run starts its children through this script.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    from ringmat import cli
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    Path(totals_path).write_text(json.dumps(tracer.aggregate()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
