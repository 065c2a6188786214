"""synclab: frustrated synchronization dynamics on the circle, sphere, and
unitary group, with certified conserved quantities, low-dimensional
reductions, aggregation criteria, and constructive equilibria."""

from .state import (
    Flavor,
    PhaseConfig,
    SphereConfig,
    UnitaryConfig,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    validate,
)
from .integrate import IntegratorSettings, Projection, Scheme, Trajectory

__all__ = [
    "Flavor",
    "PhaseConfig",
    "SphereConfig",
    "UnitaryConfig",
    "make_phase_config",
    "make_sphere_config",
    "make_unitary_config",
    "validate",
    "IntegratorSettings",
    "Projection",
    "Scheme",
    "Trajectory",
]

__version__ = "0.1.0"
