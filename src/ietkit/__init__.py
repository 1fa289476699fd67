"""Interval exchange transformations with exact suspension geometry.

The package splits along the mathematics: ``perm`` holds the permutation
combinatorics and the exchange matrix, ``iet`` the exchange map and its
orbits, ``suspension`` the plane chains and the exact self-intersection test,
``criterion`` the monotone-slope certification and curve scans,
``diagnostics`` the empirical equidistribution statistics, and ``cli`` the
command-line front end.  The package exports each module's ``__all__``.
"""

from . import criterion, diagnostics, iet, perm, suspension
from .criterion import *
from .diagnostics import *
from .iet import *
from .perm import *
from .suspension import *

__version__ = "0.1.0"

__all__ = [*perm.__all__, *iet.__all__, *suspension.__all__, *criterion.__all__, *diagnostics.__all__]
