"""``python -m repro``: the experiment CLI."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro list | head``).  Python
        # flushes stdout again at exit, so point it at devnull first
        # (the Python docs' recipe; SIGPIPE keeps Python's default so a
        # client hanging up cannot kill ``repro serve``).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
