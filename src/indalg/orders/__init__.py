"""Order-theoretic structure of endomorphism monoids: Green's relations
and their starred refinements, group inverses, left/right decompositions,
quotient elements, Ore checks, and the sampled verification suites.

Two backends are provided: ``matrix`` (integer matrices inside rational
ones) and ``act`` (endomorphisms of a free monoid act inside its
overmonoid); each module provides its own ``greens_leq``.
"""

from __future__ import annotations

from . import acts, matrix, monoids, suite
from .matrix import (
    Decomposition,
    NoGroupInverse,
    PreconditionViolated,
    QuotElem,
    group_inverse,
    has_group_inverse,
    left_decompose,
    right_decompose,
    straight_left_decompose,
    straight_certificates,
    verify_decomposition,
    quot_elem,
    embed,
    quotient_eq,
)
from .acts import (
    ActEndo,
    ActQuot,
    act_embed,
    act_endo,
    act_left_decompose,
    act_quot,
    act_quotient_eq,
    gamma_left,
    gamma_right,
    verify_act_decomposition,
)
from .monoids import MONOIDS, ore_check
from .suite import run_act_suite, run_matrix_suite, run_suite
