"""Geometric Levy model calculus for asset pricing.

Levy exponents for eight process families, the excess-rate-of-return
calculus and its foreign-exchange inverse, pricing kernels and price
processes, exact and Monte Carlo option pricing, and multi-factor models
with piecewise-constant coefficient schedules. The package exports each
module's `__all__` and every error class.
"""

from .errors import *
from .exponents import *
from .premium import *
from .pricing import *
from .sampling import *
from .options import *
from .multifactor import *

__version__ = "0.1.0"
