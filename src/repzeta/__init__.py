"""repzeta: exact-arithmetic toolkit for representation zeta functions.

Formula-side objects (Weyl dimension censuses, the explicit SL2 local
factor, orbit-dimension chains, hook-length censuses, Euler products)
are each paired with an independent brute-force check at desk scale.
"""

__version__ = "0.1.0"
