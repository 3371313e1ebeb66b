"""Numerical laboratory for dyadic square packings, non-doubling measures,
and Cauchy-square singular integral operators."""

from nhcz.geometry import (
    DyadicSquare,
    SquareFamily,
    check_disjointness,
    generate_cascade_family,
    generate_family,
    packing_constant,
    suggest_generation_range,
)
from nhcz.measure import (
    BallQuery,
    NonHomogeneousMeasure,
    QuadratureCloud,
    a2_constant,
    ball_mass,
    borderline_exponent,
    build_measure,
    build_quadrature,
    growth_constant,
)
from nhcz.kernels import CzReport, KernelSpec, cz_constants
from nhcz.operators import (
    Field,
    NormEstimate,
    Operator,
    apply_direct,
    maximal_function,
    operator_norm,
    t1_testing,
)
from nhcz.fastsum import ExpansionParams, QuadTree, apply_fast, benchmark, build_tree
from nhcz.verify import (
    VerificationReport,
    check_decomposition,
    check_domination,
    check_main_inequality,
    scaling_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
