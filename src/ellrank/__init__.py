"""Exact computation of the Mordell-Weil rank of an elliptic threefold.

The pipeline counts F_p-points of a degree-6 hypersurface in P(2,3,1,1,1),
assembles its cohomological invariants by exact linear algebra, solves the
trace-formula inequality over the integers, and verifies the six explicit
sections symbolically over Z[omega][s,t].  Each public name is imported from
the module that defines it, for example ``from ellrank.counting import
count_projective``.
"""

import os

# ellrank does no floating-point linear algebra, so loading numpy need not
# start an OpenBLAS thread pool; this must run before numpy is first imported.
# A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
