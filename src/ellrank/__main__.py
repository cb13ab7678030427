"""The ``ellrank`` command: ``python -m ellrank`` and the console script both
call ``run``.

A command's process allocates most of its objects while importing numpy and
the package, and few of them become garbage before the process exits.  The
cyclic collector would walk them some thirty times during the imports and
once more at exit, so ``run`` imports with the collector off and then moves
everything imported into the permanent generation (``gc.freeze``), which no
collection visits.  Importing ``ellrank`` or ``ellrank.cli`` and calling
``cli.main`` in-process leave the collector as they find it.
"""

import gc
import os
import sys


def run() -> int:
    """Run the command named by ``sys.argv``; returns its exit code."""
    enabled = gc.isenabled()
    gc.disable()
    from . import cli
    gc.freeze()
    if enabled:
        gc.enable()
    code = cli.main()
    try:
        sys.stdout.flush()
    except OSError:
        # cli.main has already reported the failed write.  The report is
        # still buffered, so point stdout at the null device; otherwise the
        # interpreter's exit-time flush fails again and exits with 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
