"""Satisfiability and path-condition equivalence checks over 256-bit words.

:class:`Solver` lowers terms to gates (``bitblast``) and decides them with
the in-tree CDCL engine (``sat``). It owns one gate store, so each term is
blasted once per contract. A query whose constraints the store already shows
contradictory is UNSAT with no CNF built; any other query's CNF is replayed
from the cone of its constraints. Unknown results (budget exhausted or an
unsupported operation) are always surfaced, never coerced.
"""

from __future__ import annotations

import enum
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bitblast import BitBlaster, UnsupportedTermError
from .terms import Term, band, bnot, conjuncts, evaluate


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


RECENT_MODELS = 64  # models of recent solves that status queries try first


class Solver:
    """Decides queries under a per-query time limit and remembers the answers.

    Every query takes one path. Its constraints are joined into their
    interned conjunction by :func:`~reentscan.smt.terms.band`, which folds
    the query to ``FALSE`` as soon as one conjunct is false. A query
    missing from the memo has each conjunct lowered in the solver's gate
    store (see ``bitblast``). If one lowers to constant false, or two to
    complementary literals, the query is UNSAT without a SAT instance.
    Otherwise it is solved in a fresh SAT instance loaded from the store:
    the CNF of its constraints' cone alone, exactly what blasting the query
    afresh gives. The empty query is solved this way too.
    Every SAT answer carries a model, checked against the constraints before
    it is stored. Decided answers are memoized by the interned conjunction,
    which keeps its conjuncts in order: the same constraints in another
    order may solve to another model, so a set would not do as the key.
    Unknown is never memoized, and every model handed out is a fresh copy.
    One instance serves one contract, so the memo and the gate store live
    as long as that contract's analysis.

    Callers that read only the status (branch feasibility, the verifier's
    feasibility filter, selector uniqueness, both directed equivalence
    queries) use :meth:`status`, which first tries the models of the last
    :data:`RECENT_MODELS` solves, KLEE's counterexample cache: a model that
    satisfies the query proves it SAT without blasting it. A model is tried
    constraint by constraint, up to the first false one, and keeps the
    values of the terms evaluated under it until it leaves the ring, so no
    term is evaluated twice under one model: a query that adds a constraint
    to one tried before, as the next branch on a path does, evaluates only
    that constraint under the models already tried. A hit is not kept: the
    key asked again is tried on the ring again, and solved once its model
    has left the ring. So :meth:`check_sat`, which serves the callers that
    read models, still hands out exactly the model a fresh solve gives.

    :attr:`answers` counts each query asked by the place that answered it:
    ``memo``, ``ring``, ``refuted`` (contradictory in the store), ``solved``
    (decided by a SAT instance), ``timeout`` (a SAT instance out of time)
    or ``unsupported`` (a constraint the store cannot lower).
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[Term, SolverVerdict] = {}
        self._models: deque[dict[str, int]] = deque(maxlen=RECENT_MODELS)
        # per ring model, the values of the terms evaluated under it
        self._values: deque[dict[Term, int]] = deque(maxlen=RECENT_MODELS)
        self._blaster = BitBlaster()
        # how each query was answered; the counts sum to the queries asked
        self.answers: Counter[str] = Counter()

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        key = band(constraints)
        known = self._memo.get(key)
        if known is None:
            known = self._solve(conjuncts(key), start)
            if known.status is SolverStatus.UNKNOWN:
                return known
            self._memo[key] = known
            if known.model is not None:
                self._models.appendleft(known.model)
                self._values.appendleft({})
        else:
            self.answers["memo"] += 1
        model = dict(known.model) if known.model is not None else None
        return SolverVerdict(known.status, model)

    def status(self, constraints: Iterable[Term]) -> SolverStatus:
        """The status of the query without its model.

        Answered from a recent model when one satisfies the query, unbound
        variables read as 0; such a model proves SAT also where solving the
        query would give Unknown (an operation the bit-blaster cannot lower).
        """
        key = band(constraints)
        known = self._memo.get(key)
        if known is not None:
            self.answers["memo"] += 1
            return known.status
        flat = conjuncts(key)
        for model, values in zip(self._models, self._values):
            for c in flat:
                value = values.get(c)
                if value is None:
                    value = evaluate(c, model, values)
                if value != 1:
                    break
            else:
                self.answers["ring"] += 1
                return SolverStatus.SAT
        return self.check_sat([key]).status  # counted once, by _solve

    def _solve(self, flat: tuple[Term, ...], start: float) -> SolverVerdict:
        try:
            refuted = self._blaster.refutes(flat)
        except UnsupportedTermError:
            self.answers["unsupported"] += 1
            return SolverVerdict(SolverStatus.UNKNOWN, None)
        if refuted:
            self.answers["refuted"] += 1
            return SolverVerdict(SolverStatus.UNSAT, None)

        sat = self._blaster.load(flat)
        result = sat.solve(deadline=start + self.timeout)
        if result is None:
            self.answers["timeout"] += 1
            return SolverVerdict(SolverStatus.UNKNOWN, None)
        self.answers["solved"] += 1
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

    def check_equivalence(self, left: Iterable[Term], right: Iterable[Term]) -> bool:
        """Model-set equality of two constraint conjunctions.

        Decided by refuting both directed differences; raises
        :class:`IndeterminateEquivalence` if either query is Unknown.
        """
        a = band(left)
        b = band(right)
        if frozenset(conjuncts(a)) == frozenset(conjuncts(b)):
            return True
        forward = self.status([a, bnot(b)])
        if forward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("left minus right undecided")
        if forward is SolverStatus.SAT:
            return False
        backward = self.status([b, bnot(a)])
        if backward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("right minus left undecided")
        return backward is SolverStatus.UNSAT
