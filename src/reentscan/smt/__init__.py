"""Bitvector constraint terms and the satisfiability backend."""

from .terms import (
    Term,
    band,
    bnot,
    bor,
    bv_and,
    bv_add,
    bv_mul,
    bv_not,
    bv_or,
    bv_sub,
    bv_xor,
    const,
    eq,
    evaluate,
    ite,
    shl,
    shr,
    sgt,
    slt,
    truthy,
    udiv,
    uge,
    ugt,
    ule,
    ult,
    urem,
    var,
)
from .solver import (
    IndeterminateEquivalence,
    Solver,
    SolverStatus,
    SolverVerdict,
    UnsupportedTermError,
)

__all__ = [
    "Term", "const", "var",
    "bv_add", "bv_sub", "bv_mul", "udiv", "urem",
    "bv_and", "bv_or", "bv_xor", "bv_not", "shl", "shr", "ite",
    "eq", "ult", "ule", "ugt", "uge", "slt", "sgt",
    "band", "bor", "bnot", "truthy", "evaluate",
    "Solver", "SolverStatus", "SolverVerdict",
    "IndeterminateEquivalence", "UnsupportedTermError",
]
