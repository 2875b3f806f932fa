"""Null polynomials modulo prime powers and composites.

Exact construction of least-degree monic null polynomials from the p-adic
tower, the least degrees omega0/omega1 and Kempner's mu, null-ness and
equivalence testing, and counting and enumeration of all null polynomials
of bounded degree. Each question has one path: nullity, null order,
canonical form, degree reduction, counting and enumeration all rest on
the falling-factorial coordinates b_k of f = sum b_k * x(x-1)...(x-k+1)
(for a prime modulus p, on the fold of f by x**p - x); the canonical form
mod a composite m combines those mod its prime powers by CRT, the paper's
first reduction. The paper's own formulas that no question needs (the
layered enumeration, the digit-block count, the scaled tower values, the
least monic null polynomial mod m from those mod its prime powers) and
the brute-force checks live in the tests as independent oracles;
tests/test_modulus.py and tests/test_acceptance.py hold the last to
Kempner's mu.

The package exports the functions the benchmark calls; everything else is
imported from its module, e.g. nullpoly.polys.parse_polynomial.
"""
from .canonical import canonical_form, equivalent, reduce_degree
from .construct import least_monic_null
from .counting import count_monic, count_monic_le, count_null_le, enumerate_null
from .modulus import factor, kempner_mu, omega0_composite, omega1_composite
from .oracle import is_null_binomial, null_order
from .polys import Polynomial

__all__ = [
    "Polynomial",
    "canonical_form",
    "count_monic",
    "count_monic_le",
    "count_null_le",
    "enumerate_null",
    "equivalent",
    "factor",
    "is_null_binomial",
    "kempner_mu",
    "least_monic_null",
    "null_order",
    "omega0_composite",
    "omega1_composite",
    "reduce_degree",
]
