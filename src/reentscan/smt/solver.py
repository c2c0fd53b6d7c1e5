"""Satisfiability and path-condition equivalence checks over 256-bit words.

:class:`Solver` lowers terms to CNF (``bitblast``) and decides them with
the in-tree CDCL engine (``sat``). Unknown results (budget exhausted or an
unsupported operation) are always surfaced, never coerced.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bitblast import BitBlaster, UnsupportedTermError
from .sat import SatSolver
from .terms import FALSE, TRUE, Term, band, bnot, evaluate


class SolverStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverVerdict:
    status: SolverStatus
    model: dict[str, int] | None

    @property
    def is_sat(self) -> bool:
        return self.status is SolverStatus.SAT


class IndeterminateEquivalence(Exception):
    """The solver could not decide an equivalence query within budget."""


def _flatten(constraints: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    seen: set[Term] = set()
    for c in constraints:
        parts = c.args if c.op == "band" else (c,)
        for p in parts:
            if p == TRUE:
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


class Solver:
    """Decides queries under a per-query time limit and remembers the answers.

    A query missing from the memo is bit-blasted to fresh CNF and solved.
    Every SAT answer carries a model, checked against the constraints before
    it is stored. Decided answers are memoized by the ordered tuple of
    flattened constraints: the same constraints in another order may solve
    to another model, so a set would not do as the key. Unknown is never
    memoized, and every model handed out is a fresh copy. One instance
    serves one contract, so the memo lives as long as that contract's
    analysis.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[tuple[Term, ...], SolverVerdict] = {}

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        flat = _flatten(constraints)
        if any(c == FALSE for c in flat):
            return SolverVerdict(SolverStatus.UNSAT, None)
        if not flat:
            return SolverVerdict(SolverStatus.SAT, {})

        key = tuple(flat)
        known = self._memo.get(key)
        if known is None:
            known = self._solve(flat, start)
            if known.status is SolverStatus.UNKNOWN:
                return known
            self._memo[key] = known
        model = dict(known.model) if known.model is not None else None
        return SolverVerdict(known.status, model)

    def _solve(self, flat: list[Term], start: float) -> SolverVerdict:
        sat = SatSolver()
        blaster = BitBlaster(sat)
        try:
            for c in flat:
                blaster.assert_true(c)
        except UnsupportedTermError:
            return SolverVerdict(SolverStatus.UNKNOWN, None)

        result = sat.solve(deadline=start + self.timeout)
        if result is None:
            return SolverVerdict(SolverStatus.UNKNOWN, None)
        if not result:
            return SolverVerdict(SolverStatus.UNSAT, None)
        model = {}
        for c in flat:
            for v in c.variables():
                model[v.name] = blaster.var_value(v.name, v.width)
        self._verify_model(flat, model)
        return SolverVerdict(SolverStatus.SAT, model)

    @staticmethod
    def _verify_model(constraints: Sequence[Term], model: Mapping[str, int]) -> None:
        for c in constraints:
            if evaluate(c, model) != 1:
                raise RuntimeError(f"solver returned a bogus model for {c!r}")

    def check_equivalence(self, left: Sequence[Term], right: Sequence[Term]) -> bool:
        """Model-set equality of two constraint conjunctions.

        Decided by refuting both directed differences; raises
        :class:`IndeterminateEquivalence` if either query is Unknown.
        """
        a = _flatten(left)
        b = _flatten(right)
        if set(a) == set(b):
            return True
        forward = self.check_sat([*a, bnot(band(b))])
        if forward.status is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("left minus right undecided")
        if forward.is_sat:
            return False
        backward = self.check_sat([*b, bnot(band(a))])
        if backward.status is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("right minus left undecided")
        return not backward.is_sat
