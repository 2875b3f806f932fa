"""Null polynomials modulo prime powers and composites.

Exact construction of least-degree monic null polynomials from the p-adic
tower, the least degrees omega0/omega1 and Kempner's mu, null-ness and
equivalence testing, and counting and enumeration of all null polynomials
of bounded degree. Each question has one path: nullity, null order,
canonical form, degree reduction, counting and enumeration all rest on
the falling-factorial coordinates b_k of f = sum b_k * x(x-1)...(x-k+1)
(for a prime modulus p, on the fold of f by x**p - x). The paper's own
formulas that no question needs (the layered enumeration, the digit-block
count, the scaled tower values) and the brute-force checks live in the
tests as independent oracles.
"""
from .canonical import CanonicalForm, canonical_form, equivalent, reduce_degree
from .construct import build_tower, digit_vector, least_monic_null
from .counting import CountResult, count_monic, count_monic_le, count_null_le, enumerate_null
from .modulus import (
    crt_combine_poly,
    factor,
    kempner_basis,
    kempner_mu,
    least_monic_null_composite,
    omega0_composite,
    omega1_composite,
)
from .oracle import is_null_binomial, null_order
from .polys import ParseError, Polynomial, parse_polynomial

__all__ = [
    "CanonicalForm",
    "CountResult",
    "ParseError",
    "Polynomial",
    "build_tower",
    "canonical_form",
    "count_monic",
    "count_monic_le",
    "count_null_le",
    "crt_combine_poly",
    "digit_vector",
    "enumerate_null",
    "equivalent",
    "factor",
    "is_null_binomial",
    "kempner_basis",
    "kempner_mu",
    "least_monic_null",
    "least_monic_null_composite",
    "null_order",
    "omega0_composite",
    "omega1_composite",
    "parse_polynomial",
    "reduce_degree",
]
