"""Channel-selection games on parallel multiple-access channels.

Equilibrium structure and learning dynamics for the finite game in which
each transmitter picks the single channel it sends on: exhaustive and
closed-form equilibrium computation, fictitious play under full action
observation and under aggregate-only feedback, cycle analysis, and a seeded
Monte-Carlo harness.

The package exports every public name of its modules, as each module's
``__all__`` lists them.
"""

from . import config, dynamics, equilibrium, game, montecarlo, output
from .game import *  # noqa: F401,F403
from .equilibrium import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .output import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *game.__all__,
    *equilibrium.__all__,
    *dynamics.__all__,
    *config.__all__,
    *montecarlo.__all__,
    *output.__all__,
    "__version__",
]
