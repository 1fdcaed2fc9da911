"""Entanglement of GHZ states shared across a dilaton black-hole horizon.

The package pairs an exact sparse simulation of the horizon mode mixing
with closed-form expressions for the surviving genuine multipartite
entanglement, plus a verification suite that cross-checks the two.
Every name a module lists in its ``__all__`` is exported here.
"""

from . import analytic, errors, gme, hawking, modes_state, verify, xstate
from .analytic import *  # noqa: F403
from .errors import *  # noqa: F403
from .gme import *  # noqa: F403
from .hawking import *  # noqa: F403
from .modes_state import *  # noqa: F403
from .verify import *  # noqa: F403
from .xstate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (hawking, modes_state, xstate, gme, analytic, verify, errors)
        for name in module.__all__
    ),
]
