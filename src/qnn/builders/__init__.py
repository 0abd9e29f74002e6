"""Mechanical network constructions: radial approximators and exact polynomial nets."""

from .factorization import (
    MultiPolySpec,
    build_factorization_trainable,
    build_multipoly_net,
    build_poly_net,
    multipoly_net_size,
    quadratic_coefficients,
)
from .radial import (
    RadialPartition,
    build_deep_radial,
    build_parabola_module,
    build_shallow_radial,
    delta_for_target_error,
    plateau_interval,
    radial_profile,
)

__all__ = [
    "MultiPolySpec",
    "RadialPartition",
    "build_deep_radial",
    "build_factorization_trainable",
    "build_multipoly_net",
    "build_parabola_module",
    "build_poly_net",
    "build_shallow_radial",
    "delta_for_target_error",
    "multipoly_net_size",
    "plateau_interval",
    "quadratic_coefficients",
    "radial_profile",
]
