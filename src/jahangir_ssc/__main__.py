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
    The package registers no `atexit` hook.

    When the reader of stdout has gone (`jssc ... | head`), the request
    ends quietly with exit status 1, by the recipe of the note on SIGPIPE
    in Python's `signal` documentation: stdout is pointed at devnull, so
    that finalization flushes nowhere. Any other exception, out of
    `main` or a flush, and argparse's `SystemExit` take the ordinary
    exit, and are reported as under `sys.exit(main())`.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
