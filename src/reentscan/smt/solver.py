"""Satisfiability and path-condition equivalence checks over 256-bit words.

:class:`Solver` lowers terms to gates (``bitblast``) and decides them with
the in-tree CDCL engine (``sat``). It owns one gate store with one SAT
instance, so each term is blasted, and each gate's clauses added, once per
contract. A query whose constraints the store already shows contradictory
is UNSAT with no search; any other query is solved in the instance under
assumptions. Unknown results (budget exhausted or an unsupported operation)
are always surfaced, never coerced.
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
    complementary literals, the query is UNSAT without a search. Otherwise
    it is solved in the store's one SAT instance, under its conjuncts'
    literals as assumptions (see ``sat``). The empty query is solved this
    way too.

    A SAT answer carries the model its search ended at, checked against
    the constraints. Decided answers are memoized by the interned
    conjunction, which keeps its conjuncts in order: the same constraints
    in another order may solve to another model, so a set would not do as
    the key. Unknown is never memoized, and every model handed out is a
    fresh copy. One instance serves one contract, so the memo, the gate
    store and the SAT instance with its learnt clauses live as long as
    that contract's analysis.

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
    has left the ring. The callers that read a model but keep a value only
    once a uniqueness query shows it is the one value (concretized
    operands, the selector of a dispatch arm) use :meth:`check_sat`.

    Only a witness needs a canonical model, and :meth:`least_model` gives
    it: the least assignment to the bits of the query's variables, read in
    the order the query first reaches them (the roots in turn, each term's
    arguments in order), each variable LSB first, with the first bit
    highest. A search without a conflict ends at it; after one that
    conflicted, further solves find it (``SatSolver.minimize``) within a
    deadline of their own. So a witness depends only on the query, and not
    on what the contract asked before it. If minimizing runs out of time,
    the search's model is kept: a decided SAT never becomes Unknown.

    :attr:`answers` counts each query asked by the place that answered it:
    ``memo``, ``ring``, ``refuted`` (contradictory in the store), ``solved``
    (decided by a search), ``timeout`` (out of time) or ``unsupported`` (a
    constraint the store cannot lower).
    :attr:`sat_stats` gives the totals of the SAT instance.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[Term, SolverVerdict] = {}
        self._models: deque[dict[str, int]] = deque(maxlen=RECENT_MODELS)
        # per ring model, the values of the terms evaluated under it
        self._values: deque[dict[Term, int]] = deque(maxlen=RECENT_MODELS)
        # memoized SAT keys whose model came from a search that conflicted,
        # and so may not be the least one
        self._unminimized: set[Term] = set()
        self._blaster = BitBlaster()
        # how each query was answered; the counts sum to the queries asked
        self.answers: Counter[str] = Counter()

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        key = band(constraints)
        known = self._memo.get(key)
        if known is None:
            known = self._settle(key, start)
            if known.status is SolverStatus.UNKNOWN:
                return known
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
        return self._settle(key, time.monotonic()).status

    def least_model(self, constraints: Iterable[Term]) -> tuple[SolverVerdict, bool]:
        """:meth:`check_sat` with the least model, for a witness, and
        whether the model handed out is the least one.

        A memoized model is taken as it is when its search met no conflict
        or it was minimized. Any other is minimized within a deadline of
        its own (see :meth:`_minimize`); when that runs out, the search's
        model is handed out and the flag is False.
        """
        key = band(constraints)
        verdict = self.check_sat([key])
        if key in self._unminimized:
            least = self._minimize(key)
            if least is None:
                return verdict, False
            verdict = SolverVerdict(SolverStatus.SAT, dict(least))
        return verdict, True

    def _settle(self, key: Term, start: float) -> SolverVerdict:
        """Solve ``key`` and memoize a decided answer."""
        conflicts = self._blaster.sat.conflicts
        verdict = self._solve(conjuncts(key), start)
        if verdict.status is not SolverStatus.UNKNOWN:
            self._memo[key] = verdict
            if verdict.is_sat and self._blaster.sat.conflicts != conflicts:
                self._unminimized.add(key)
        return verdict

    def _solve(self, flat: tuple[Term, ...], start: float) -> SolverVerdict:
        """Decide the conjuncts by one search; a model found enters the ring."""
        unknown = SolverVerdict(SolverStatus.UNKNOWN, None)
        try:
            refuted = self._blaster.refutes(flat)
        except UnsupportedTermError:
            self.answers["unsupported"] += 1
            return unknown
        if refuted:
            self.answers["refuted"] += 1
            return SolverVerdict(SolverStatus.UNSAT, None)

        assumptions, variables, order = self._lower(flat)
        result = self._blaster.sat.solve(assumptions, order, start + self.timeout)
        if result is None:
            self.answers["timeout"] += 1
            return unknown
        self.answers["solved"] += 1
        if not result:
            return SolverVerdict(SolverStatus.UNSAT, None)
        model = self._model(flat, variables)
        self._models.appendleft(model)
        self._values.appendleft({})
        return SolverVerdict(SolverStatus.SAT, model)

    def _minimize(self, key: Term) -> dict[str, int] | None:
        """Memoize and return the least model of ``key``, a SAT query whose
        memoized model came from a search that conflicted; None when the
        deadline of its own runs out first.

        The query is solved again in the instance. A search that now meets
        no conflict ends at the least model; after one that does, further
        solves find it.
        """
        flat = conjuncts(key)
        sat = self._blaster.sat
        deadline = time.monotonic() + self.timeout
        assumptions, variables, order = self._lower(flat)
        conflicts = sat.conflicts
        result = sat.solve(assumptions, order, deadline)
        if result and sat.conflicts != conflicts:
            result = sat.minimize(assumptions, order, deadline)
        if not result:
            return None
        model = self._model(flat, variables)
        self._memo[key] = SolverVerdict(SolverStatus.SAT, model)
        self._unminimized.discard(key)
        return model

    def _lower(self, flat: tuple[Term, ...]) -> tuple[list[int], list[Term], list[int]]:
        """The query's assumption literals, its variables, and their bits
        in the order the query first reaches them."""
        blaster = self._blaster
        assumptions = [blaster.assert_true(c) for c in flat]
        variables = blaster.variables(flat)
        return assumptions, variables, blaster.input_bits(variables)

    def _model(self, flat: tuple[Term, ...], variables: list[Term]) -> dict[str, int]:
        """The instance's values of ``variables``, checked against ``flat``."""
        model = {v.name: self._blaster.var_value(v) for v in variables}
        self._verify_model(flat, model)
        return model

    @property
    def sat_stats(self) -> dict[str, float]:
        """Totals of the contract's SAT instance over every solve."""
        sat = self._blaster.sat
        return {
            "decisions": sat.decisions, "conflicts": sat.conflicts,
            "learnt": sat.learnts, "minimize_solves": sat.minimize_solves,
            "vars": sat.num_vars,
            "clauses": len(sat.clauses) + sat.num_binaries,
            "attach_s": self._blaster.attach_s, "search_s": sat.search_s,
        }

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
