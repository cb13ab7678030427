"""Exact computation of the Mordell-Weil rank of an elliptic threefold.

The pipeline counts F_p-points of a degree-6 hypersurface in P(2,3,1,1,1),
assembles its cohomological invariants by exact linear algebra, solves the
trace-formula inequality over the integers, and verifies the six explicit
sections symbolically over Z[omega][s,t].  Each public name is imported from
the module that defines it, for example ``from ellrank.counting import
count_projective``; the package itself holds the version and the two
settings that the command line shares with the library, ``DEFAULT_BUDGET``
and ``METHODS``, so that reading them imports no numpy.
"""

import os

# ellrank does no floating-point linear algebra, so loading numpy need not
# start an OpenBLAS thread pool; this must run before numpy is first imported.
# A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# iteration cap of an enumeration, and the projective counting methods
DEFAULT_BUDGET = 10**9
METHODS = ("naive", "burnside", "weierstrass-fast")
