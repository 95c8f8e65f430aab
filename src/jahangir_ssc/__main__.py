"""The process entry of `python -m jahangir_ssc` and the `jssc` console
script. Library callers use `cli.main`, which returns the exit code."""

import os
import sys

from .cli import main


def run() -> int:
    """Answer one request and end the process with its exit code.

    Once the answer is flushed, the process ends by `os._exit`, without
    interpreter finalization: module teardown, the final collection and
    the freeing of every object, none of which a finished request needs.
    The package registers no `atexit` hook. An exception out of `main`,
    argparse's `SystemExit` and a flush that fails (stdout on a closed
    pipe, say) take the ordinary exit instead, so they end, and are
    reported, as under `sys.exit(main())`; only then does this return.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # finalization flushes again and reports the failure
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
