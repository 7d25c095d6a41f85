"""Validated numerics: dyadic intervals, exact polynomials, algebraic reals."""

from .intervals import DEFAULT_PREC, Dyadic, IntervalReal
from .polynomials import (
    IntPoly,
    IsolatedRoot,
    alpha_root,
    faddeev_leverrier,
    int_poly_gcd,
    isolate_dominant,
    refine_root_bisect,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .algebraic import RealAlgebraicField

__all__ = [
    "DEFAULT_PREC",
    "Dyadic",
    "IntervalReal",
    "IntPoly",
    "IsolatedRoot",
    "alpha_root",
    "faddeev_leverrier",
    "int_poly_gcd",
    "isolate_dominant",
    "refine_root_bisect",
    "squarefree_part",
    "sturm_chain",
    "sturm_count",
    "RealAlgebraicField",
]
