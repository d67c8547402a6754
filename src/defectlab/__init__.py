"""defectlab: exact-arithmetic laboratory for valued fields.

Cut algebra over exact rationals, truncated generalized power series in
equal and mixed characteristic, certified samples of v(a - K), and the
explicit transformations that manufacture pairwise-distinct families of
degree-p Artin-Schreier and Kummer extensions, with witness-carrying
certificates and search-free re-verification.
"""

from . import approx, artin, cuts, fields, kummer, series

__version__ = "0.1.0"
