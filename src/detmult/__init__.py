"""Exact lengths of Ext modules of determinantal and pfaffian thickenings,
their j- and epsilon-multiplicities, and independent closed-form oracles."""

from .arith import (
    RationalPolynomial,
    bernoulli,
    factorial,
    faulhaber_polynomial,
    interpolate,
    poly_range_sum,
)
from .family import LengthClassification
from .maximal_minors import GenericParams
from .multiplicities import (
    ConsistencyError,
    Family,
    MultiplicityReport,
    build_report,
    closed_form_generic,
    closed_form_pfaffian,
    epsilon_multiplicity,
    grassmannian_degree,
    integral_formula_generic,
    integral_formula_pfaffian,
    j_multiplicity,
    orthogonal_grassmannian_degree,
    selberg_integral,
    shifted_tableaux_staircase,
    slice_polynomial,
    standard_tableaux_rectangle,
)
from .pfaffians import PfaffianParams
from .schur import embed_weight, shift, weyl_dimension

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "Family",
    "GenericParams",
    "LengthClassification",
    "MultiplicityReport",
    "PfaffianParams",
    "RationalPolynomial",
    "bernoulli",
    "build_report",
    "closed_form_generic",
    "closed_form_pfaffian",
    "embed_weight",
    "epsilon_multiplicity",
    "factorial",
    "faulhaber_polynomial",
    "grassmannian_degree",
    "integral_formula_generic",
    "integral_formula_pfaffian",
    "interpolate",
    "j_multiplicity",
    "orthogonal_grassmannian_degree",
    "poly_range_sum",
    "selberg_integral",
    "shift",
    "shifted_tableaux_staircase",
    "slice_polynomial",
    "standard_tableaux_rectangle",
    "weyl_dimension",
]
