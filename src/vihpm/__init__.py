"""Series solutions of high-order boundary value problems.

The method builds a polynomial initial approximation carrying the origin
conditions and a free constant per remaining condition, repeatedly applies
an integral correction whose kernel makes the update stationary with
respect to the approximation, and determines the constants by Newton
shooting on the off-origin conditions.  Four seventh-order two- and
three-point benchmark problems ship as built-ins.
"""

from .problems import builtin, with_settings
from .solver import solve

__version__ = "0.1.0"

__all__ = ["__version__", "builtin", "solve", "with_settings"]
