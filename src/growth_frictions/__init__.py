"""Growth-optimal rebalancing under fixed plus proportional transaction costs.

Solves for the optimal constant-boundary strategy (wait until the risky
fraction leaves (a, b), rebalance to alpha or beta), the reflecting-boundary
limit model for vanishing fixed costs, and provides seeded Monte Carlo and
semi-analytic evaluators to cross-check every number.

Each module declares its public names once, in its ``__all__``; the package
exports their union.
"""

from .market import *
from .qvi import *
from .limit import *
from .simulate import *
from .lab import *

__version__ = "0.1.0"
