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
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

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


RECENT_MODELS = 64  # models of the last searches, tried before a search


class Solver:
    """Decides queries under a per-query time limit and remembers the answers.

    Every query takes one path through :meth:`check_sat`. Its constraints
    are joined into their interned conjunction by
    :func:`~reentscan.smt.terms.band`, which folds the query to ``FALSE``
    as soon as one conjunct is false. The query is answered from the memo,
    else from a recent model, else by lowering each conjunct in the
    solver's gate store (see ``bitblast``): if one lowers to constant
    false, or two to complementary literals, it is UNSAT without a search;
    otherwise it is solved in the store's one SAT instance, under its
    conjuncts' literals as assumptions (see ``sat``). The empty query is
    solved this way too.

    The ring holds the models of the last :data:`RECENT_MODELS` searches,
    KLEE's counterexample cache. A model that satisfies the query, unbound
    variables read as 0, proves it SAT without blasting it, also where
    solving it would give Unknown (an operation the store cannot lower).
    A model is tried constraint by constraint, up to the first false one,
    and keeps the values of the terms evaluated under it until it leaves
    the ring: a query that adds a constraint to one tried before, as the
    next branch on a path does, evaluates only that constraint. A hit
    hands out a copy of that model and is not memoized, so the key asked
    again is tried on the ring again.

    A search's SAT answer carries the model it ended at, checked against
    the constraints. Decided answers of a search or the store are memoized
    by the interned conjunction, which keeps its conjuncts in order: the
    same constraints in another order may solve to another model, so a set
    would not do as the key. Unknown is never memoized, and every model
    handed out is a fresh copy. One instance serves one contract, so the
    memo, the gate store and the SAT instance with its learnt clauses live
    as long as that contract's analysis.

    Only a witness needs a canonical model, and :meth:`least_model` gives
    it: the least assignment to the bits of the query's variables, read in
    the order the query first reaches them (the roots in turn, each term's
    arguments in order), each variable LSB first, with the first bit
    highest. A search without a conflict ends at it, and often early: at
    each variable's first bit in that order, the conjuncts are evaluated on
    the bits the search has assigned, every other bit read as 0, and if
    they hold, that is the model the rest of the walk would reach (see
    ``sat``). A ring model is never taken for it, and after a search that
    conflicted, further solves find it (``SatSolver.minimize``) within a
    deadline of their own. So a witness depends only on the query, and not
    on what the contract asked before it. If minimizing runs out of time,
    the model :meth:`check_sat` gave is kept: a decided SAT never becomes
    Unknown.

    :attr:`answers` counts each query asked by the place that answered it:
    ``memo``, ``ring``, ``refuted`` (contradictory in the store), ``solved``
    (decided by a search), ``timeout`` (out of time) or ``unsupported`` (a
    constraint the store cannot lower).
    :attr:`sat_stats` gives the totals of the SAT instance; its
    ``completions`` are the searches that the check above ended.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[Term, SolverVerdict] = {}
        self._models: deque[dict[str, int]] = deque(maxlen=RECENT_MODELS)
        # per ring model, the values of the terms evaluated under it
        self._values: deque[dict[Term, int]] = deque(maxlen=RECENT_MODELS)
        # memoized SAT keys whose model is the least one
        self._least: set[Term] = set()
        self._blaster = BitBlaster()
        # how each query was answered; the counts sum to the queries asked
        self.answers: Counter[str] = Counter()

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        key = band(constraints)
        known = self._memo.get(key)
        if known is not None:
            self.answers["memo"] += 1
        else:
            known = self._recent(key) or self._settle(key, start)
        model = dict(known.model) if known.model is not None else None
        return SolverVerdict(known.status, model)

    def _recent(self, key: Term) -> SolverVerdict | None:
        """SAT with the most recent ring model that satisfies ``key``, if any."""
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
                return SolverVerdict(SolverStatus.SAT, model)
        return None

    def least_model(self, constraints: Iterable[Term]) -> tuple[SolverVerdict, bool]:
        """:meth:`check_sat` with the least model, for a witness, and
        whether the model handed out is the least one.

        A SAT model not known to be least (one from a ring model or a
        search that conflicted) is minimized within a deadline of its own
        (see :meth:`_minimize`); when that runs out, the model
        :meth:`check_sat` gave is handed out and the flag is False.
        """
        key = band(constraints)
        verdict = self.check_sat([key])
        if verdict.is_sat and key not in self._least:
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
            if verdict.is_sat and self._blaster.sat.conflicts == conflicts:
                self._least.add(key)
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
        result = self._blaster.sat.solve(
            assumptions, order, start + self.timeout,
            *self._completion(flat, variables))
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
        model is not known to be least; None when the deadline of its own
        runs out first.

        The query is solved in the instance. A search that meets no
        conflict ends at the least model; after one that does, further
        solves find it.
        """
        flat = conjuncts(key)
        sat = self._blaster.sat
        deadline = time.monotonic() + self.timeout
        assumptions, variables, order = self._lower(flat)
        conflicts = sat.conflicts
        result = sat.solve(assumptions, order, deadline,
                           *self._completion(flat, variables))
        if result and sat.conflicts != conflicts:
            result = sat.minimize(assumptions, order, deadline)
        if not result:
            return None
        model = self._model(flat, variables)
        self._memo[key] = SolverVerdict(SolverStatus.SAT, model)
        self._least.add(key)
        return model

    def _lower(self, flat: tuple[Term, ...]) -> tuple[list[int], list[Term], list[int]]:
        """The query's assumption literals, its variables, and their bits
        in the order the query first reaches them."""
        blaster = self._blaster
        assumptions = [blaster.assert_true(c) for c in flat]
        variables = blaster.variables(flat)
        return assumptions, variables, blaster.input_bits(variables)

    def _completion(self, flat: tuple[Term, ...], variables: list[Term]
                    ) -> tuple[list[int], Callable[[], bool]]:
        """The stops and check that end a search of ``flat`` early (see
        ``sat``): a stop at each variable's first bit, and whether the
        variables read from the instance, unassigned bits as 0, satisfy
        every conjunct."""
        blaster = self._blaster

        def complete() -> bool:
            model = {v.name: blaster.var_value(v) for v in variables}
            values: dict[Term, int] = {}
            return all(evaluate(c, model, values) == 1 for c in flat)

        stops = list(accumulate([v.width for v in variables[:-1]], initial=0))
        return stops, complete

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
            "completions": sat.completions,
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
        forward = self.check_sat([a, bnot(b)]).status
        if forward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("left minus right undecided")
        if forward is SolverStatus.SAT:
            return False
        backward = self.check_sat([b, bnot(a)]).status
        if backward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("right minus left undecided")
        return backward is SolverStatus.UNSAT
