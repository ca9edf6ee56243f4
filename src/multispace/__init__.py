"""Finite multi-space algebra.

A multi-space is a union of finite components, each carrying its own partial
binary operations.  This package represents such spaces exactly, verifies
their axioms exhaustively at desk scale, builds the classical worked
constructions, and analyzes multi-groups, multi-rings, multi-vector spaces
and multi-metric spaces, including normal series, ideal chains, dimension
formulas and contraction fixed points.
"""

from .core import (
    Component,
    ExprChain,
    Equation,
    FiniteUniverse,
    HOLE,
    MultiSpace,
    OpTable,
    UNDEFINED,
    automorphisms,
    classify_table,
    eval_chain,
    find_inverses,
    find_units,
    is_faithful,
    solve_equation,
    solve_system,
)


def __getattr__(name: str):
    # every public name not imported above lives in ``foundations``: it is
    # resolved on first use (PEP 562), so importing the package, or running
    # a CLI command, does not execute that module
    if name in __all__:
        from . import foundations

        return getattr(foundations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BinaryRelation",
    "Component",
    "Equation",
    "ExprChain",
    "FiniteUniverse",
    "HOLE",
    "MultiSpace",
    "NeutrosophicComponent",
    "OpTable",
    "UNDEFINED",
    "automorphisms",
    "check_boolean_laws",
    "classify_table",
    "equivalence_classes",
    "eval_chain",
    "find_inverses",
    "find_units",
    "is_faithful",
    "neutrosophic_union",
    "poset_check",
    "poset_extremes",
    "solve_equation",
    "solve_system",
    "valuate_union",
]

__version__ = "0.1.0"
