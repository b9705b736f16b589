"""Max-plus (idempotent) probability measures on finite spaces.

The package mirrors classical finite probability in the max-plus
semiring: measures are weight vectors with maximum 0 acting on test
functions by a maximum of sums, and the classical theory sits alongside
for comparison.  It covers evaluation, pushforwards, product measures,
the log/softmax correspondence between the two kinds, segment geometry
with approximation maps, and grid discretization of densities on the
unit interval.  The ``maxplusprob`` command exposes the same operations
over JSON files.
"""

from . import convert, density, functors, geometry, jsonio, measures, semiring
from .convert import *  # noqa: F401,F403
from .density import *  # noqa: F401,F403
from .functors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .jsonio import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .semiring import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (convert, density, functors, geometry, jsonio, measures, semiring)
    for name in module.__all__
]
