"""Over-then-under normal forms of virtual tangle diagrams and braids.

Gauss diagrams of virtual tangles, glide-move rewriting to the unique
reduced OU form, complete invariants of virtual pure braids, divisor
peeling with extraction graphs, and exhaustive braid tabulation.
"""

from . import braid, diagram, division, enumeration, errors, rewrite
from .braid import *  # noqa: F403
from .diagram import *  # noqa: F403
from .division import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .errors import *  # noqa: F403
from .rewrite import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    braid.__all__ + diagram.__all__ + division.__all__ + enumeration.__all__ + errors.__all__ + rewrite.__all__
)
