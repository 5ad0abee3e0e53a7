"""Adaptive robust tracking control with set-membership parameter learning.

The package models linear systems whose state and input matrices depend
affinely on an unknown parameter vector confined to an ellipsoid, and
provides:

- ellipsoidal calculus (volume-minimal outer bounds of intersections),
- a recursive set-membership estimator that never grows the belief volume,
- a one-step worst-case tracking controller over second-order cone
  constraints, solved in closed form when the program splits into
  one-input programs (every shipped scenario's does) and otherwise by an
  interior-point method,
- an exploring variant that maximizes the next observation's information
  inside a trust region around the robust input, and
- reproducible closed-loop studies with Monte Carlo averaging.

The package exports ``__version__`` and the union of its modules' ``__all__``.
"""

from . import active, ellipsoid, estimator, experiments, model, robust
from .active import *  # noqa: F403
from .ellipsoid import *  # noqa: F403
from .estimator import *  # noqa: F403
from .experiments import *  # noqa: F403
from .model import *  # noqa: F403
from .robust import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*ellipsoid.__all__, *model.__all__, *estimator.__all__,
           *robust.__all__, *active.__all__, *experiments.__all__,
           "__version__"]
