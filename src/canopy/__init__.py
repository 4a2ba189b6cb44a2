"""Expected 100-year CO2 absorption of urban tree plantings.

Per-tree absorption combines a growth curve H(t), a piecewise-linear
height-to-diameter model d(H), an annual removal probability p, and a
carbon constant c converting trunk-cylinder volume to tonnes of CO2.
The survivor (creditable) term covers trees still standing at the
horizon; the in-process term integrates the removal-weighted store of
trees felled along the way.  Portfolio tools aggregate cohorts, deduct
project emissions, and attribute steward shares.
"""

__version__ = "0.1.0"

from . import carbon, errors, fielddata, growth, portfolio, quadrature, removal
from .carbon import *  # noqa: F403
from .errors import *  # noqa: F403
from .fielddata import *  # noqa: F403
from .growth import *  # noqa: F403
from .portfolio import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .removal import *  # noqa: F403

# the package exports what each module exports, and each module lists its
# own public names once, in its __all__
__all__ = ["__version__"] + [
    name
    for module in (errors, growth, removal, quadrature, carbon, fielddata, portfolio)
    for name in module.__all__
]
