"""The suite writes no bytecode: not in this interpreter, which sets the flag
before any test module imports ellrank, and not in the fresh interpreters
the tests start, which inherit the environment.  So a run leaves no
__pycache__ in src/, where a later run of the benchmark would read it."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
