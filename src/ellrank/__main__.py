"""The ``ellrank`` command: ``python -m ellrank`` and the console script both
call ``main``, which runs ``run`` and ends the process.

A short command is mostly start-up, so a command's process pays only for its
command (times measured without a bytecode cache on a 2-vCPU VM):

- numpy only where a grid is walked.  ``cli`` imports at module level only
  what every command needs, and ``cli.load`` imports the modules of the
  command about to run.  ``count``, ``singular``, ``hodge`` and ``rank``
  load numpy; ``predict``, ``bounds`` and ``sections`` do not, and take
  31-34 ms instead of 74-75 ms.
- Compile before numpy.  Without a bytecode cache each module compiles as
  it is imported, and the compile's scratch memory (about 1.1 MB for
  ``gridcount``) is freed at once.  Freed before ``import numpy``, numpy's
  import reuses it; freed after, it raises the process's peak RSS.  So the
  modules that import numpy import ellrank's own first, and
  ``cli._COMMANDS`` orders each command's modules so that ``gridcount``
  and ``counting``, the largest sources, compile before numpy loads: a
  weierstrass-fast count peaks at 29.1 MB instead of 30.3 MB.
- Imports happen before the freeze.  A process allocates most of its
  objects while importing, and few of them become garbage before it exits.
  The cyclic collector would walk them some thirty times during the imports
  and once more at exit, so ``run`` imports ``cli`` and the command's
  modules with the collector off, then moves everything imported into the
  permanent generation (``gc.freeze``), which no collection visits.  The
  count's modules imported after the freeze, with the collector on, made a
  count or rank process 2.3-2.7 ms slower.
- No interpreter teardown.  ``main`` flushes stdout and stderr and ends the
  process with ``os._exit``: the report is written and a ``--json`` file
  closed before ``cli.main`` returns, and nothing the process built needs
  freeing.  This saves 1.0-1.8 ms a process.

``run`` returns the exit code to in-process callers; importing ``ellrank`` or
``ellrank.cli`` and calling ``cli.main`` in-process leave the collector as
they find it.
"""

import gc
import os
import sys


def run() -> int:
    """Run the command named by ``sys.argv``; returns its exit code."""
    enabled = gc.isenabled()
    gc.disable()
    from . import cli
    # the command is the first word wherever the parser accepts the line
    cli.load(sys.argv[1] if len(sys.argv) > 1 else "")
    gc.freeze()
    if enabled:
        gc.enable()
    return cli.main()


def main():
    """Run the command, flush its output and end the process with its exit
    code, without the interpreter's teardown."""
    code = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # cli.main has reported the failed write of the report
    os._exit(code)


if __name__ == "__main__":
    main()
