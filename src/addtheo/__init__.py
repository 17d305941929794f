"""Exact derivation and verification of algebraic addition theorems.

Given a description of a function phi that is rational in u, rational in
e^(mu*u), or rational in the Weierstrass pair (wp, wp'), the kernel derives
the unique irreducible polynomial G with G(phi(u), phi(v), phi(u+v)) = 0 by
resultant elimination, certifies it numerically, and checks the structural
degree and symmetry laws that govern it.
"""

from .derive import (
    AdditionTheorem,
    BaseLaw,
    base_law,
    derivative_relation,
    derive_addition_theorem,
    eliminate,
    prune,
    reduce_f_to_g,
)
from .errors import AddTheoError
from .exprparse import parse_fraction, parse_polynomial
from .factor import factor, is_irreducible
from .funcspec import FuncSpec, FunctionClass, OrderData, make_spec, order, parse_spec
from .laws import (
    DegreeReport,
    KRelation,
    SameTheoremResult,
    SymmetryReport,
    check_rational_expressibility,
    degree_report,
    full_substitution_group,
    k_relation,
    multiplier_group,
    predicted_degree,
    same_theorem,
)
from .numeric import EvalConfig, GraphSample, phi_eval, sample_graph, wp_eval, wp_prime_eval
from .poly import MPoly
from .resultants import mgcd, resultant, squarefree, squarefree_part

__version__ = "0.1.0"

__all__ = [
    "AdditionTheorem",
    "AddTheoError",
    "BaseLaw",
    "DegreeReport",
    "EvalConfig",
    "FuncSpec",
    "FunctionClass",
    "GraphSample",
    "KRelation",
    "MPoly",
    "OrderData",
    "SameTheoremResult",
    "SymmetryReport",
    "base_law",
    "check_rational_expressibility",
    "degree_report",
    "derivative_relation",
    "derive_addition_theorem",
    "eliminate",
    "factor",
    "full_substitution_group",
    "is_irreducible",
    "k_relation",
    "make_spec",
    "mgcd",
    "multiplier_group",
    "order",
    "parse_fraction",
    "parse_polynomial",
    "parse_spec",
    "phi_eval",
    "predicted_degree",
    "prune",
    "reduce_f_to_g",
    "resultant",
    "same_theorem",
    "sample_graph",
    "squarefree",
    "squarefree_part",
    "wp_eval",
    "wp_prime_eval",
]
