"""Satisfiability and path-condition equivalence checks over 256-bit words.

:class:`Solver` lowers terms to CNF (``bitblast``) and decides them with
the in-tree CDCL engine (``sat``). It owns one gate store, so each term is
blasted once per contract, and each query's CNF is replayed from the cone of
its constraints. Unknown results (budget exhausted or an unsupported
operation) are always surfaced, never coerced.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bitblast import BitBlaster, UnsupportedTermError
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


def _trivial(flat: list[Term]) -> SolverStatus | None:
    """The status of a flattened query that needs no solving, else None."""
    if any(c == FALSE for c in flat):
        return SolverStatus.UNSAT
    return None if flat else SolverStatus.SAT


RECENT_MODELS = 64  # models of recent solves that status queries try first


class Solver:
    """Decides queries under a per-query time limit and remembers the answers.

    A query missing from the memo is solved in a fresh SAT instance loaded
    from the solver's gate store (see ``bitblast``): the CNF of its
    constraints' cone alone, exactly what blasting the query afresh gives.
    Every SAT answer carries a model, checked against the constraints before
    it is stored. Decided answers are memoized by the ordered tuple of
    flattened constraints: the same constraints in another order may solve
    to another model, so a set would not do as the key. Unknown is never
    memoized, and every model handed out is a fresh copy. One instance
    serves one contract, so the memo and the gate store live as long as
    that contract's analysis.

    Callers that read only the status (branch feasibility, the verifier's
    feasibility filter, selector uniqueness, both directed equivalence
    queries) use :meth:`status`, which first tries the models of the last
    :data:`RECENT_MODELS` solves, KLEE's counterexample cache: a model that
    satisfies the query proves it SAT without blasting it. Such a hit is
    never stored as the key's model, so :meth:`check_sat`, which serves the
    callers that read models, still hands out exactly the model a fresh
    solve of the key gives.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[tuple[Term, ...], SolverVerdict] = {}
        self._sat_keys: set[tuple[Term, ...]] = set()  # shown SAT by a recent model
        self._models: deque[dict[str, int]] = deque(maxlen=RECENT_MODELS)
        self._blaster = BitBlaster()

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        flat = _flatten(constraints)
        trivial = _trivial(flat)
        if trivial is not None:
            return SolverVerdict(trivial, {} if trivial is SolverStatus.SAT else None)

        key = tuple(flat)
        known = self._memo.get(key)
        if known is None:
            known = self._solve(flat, start)
            if known.status is SolverStatus.UNKNOWN:
                return known
            self._memo[key] = known
            if known.model is not None:
                self._models.appendleft(known.model)
        model = dict(known.model) if known.model is not None else None
        return SolverVerdict(known.status, model)

    def status(self, constraints: Iterable[Term]) -> SolverStatus:
        """The status of the query without its model.

        Answered from a recent model when one satisfies the query, unbound
        variables read as 0; such a model proves SAT also where solving the
        query would give Unknown (an operation the bit-blaster cannot lower).
        """
        flat = _flatten(constraints)
        trivial = _trivial(flat)
        if trivial is not None:
            return trivial
        key = tuple(flat)
        known = self._memo.get(key)
        if known is not None:
            return known.status
        if key in self._sat_keys:
            return SolverStatus.SAT
        query = band(flat)
        if any(evaluate(query, m) == 1 for m in self._models):
            self._sat_keys.add(key)
            return SolverStatus.SAT
        return self.check_sat(flat).status

    def _solve(self, flat: list[Term], start: float) -> SolverVerdict:
        try:
            sat = self._blaster.load(flat)
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
                model[v.name] = self._blaster.var_value(sat, v)
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
        forward = self.status([*a, bnot(band(b))])
        if forward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("left minus right undecided")
        if forward is SolverStatus.SAT:
            return False
        backward = self.status([*b, bnot(band(a))])
        if backward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("right minus left undecided")
        return backward is SolverStatus.UNSAT
