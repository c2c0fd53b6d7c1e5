"""Satisfiability and path-condition equivalence checks over 256-bit words.

:class:`Solver` lowers terms to gates (``bitblast``) and decides them with
the in-tree CDCL engine (``sat``). It owns one gate store with one SAT
instance, so each term is blasted, and each gate's clauses added, once per
contract. A conjunct that a variable used nowhere else in the query can
always make true is left out, and solved for that variable once the rest
has a model. The rest is solved in the instance under assumptions.
Unknown results (budget exhausted or an unsupported operation) are always
surfaced, never coerced.
"""

from __future__ import annotations

import enum
import time
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .bitblast import BitBlaster, UnsupportedTermError
from .terms import Term, band, bnot, conjuncts, evaluate, mask


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


RECENT_MODELS = 64  # models of the last queries the memo and ring missed

# boolean ops that give the truth wanted by the choice of one operand,
# whatever the others are, by the truths for which they do
_ONTO_BOOL = {"bnot": (True, False), "eq": (True, False), "band": (False,),
              "ult": (False,)}
# bitvector ops that give any value wanted by the choice of one operand
_ONTO = frozenset({"add", "sub", "xor"})


def _free_paths(root: Term) -> dict[Term, tuple[Term, int]]:
    """The nodes that ``root`` reaches along one path only, through ops that
    can always give the value the path needs, each mapped to its parent
    and its index among the parent's arguments.

    From the root down, that is: ``bnot``; ``band`` where it must be
    false, through any operand, so a disjunction (a negated ``band``) where
    it must be true; ``eq`` either way and ``ult`` where it must be false,
    through either side; and below those ``add``, ``sub`` and ``xor``, so
    a bitwise not (an ``xor`` with all ones). A variable among the nodes
    that occurs in no other conjunct can make ``root`` true whatever the
    values of the others.
    """
    # every node once, each after all of its arguments
    order: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
        elif t not in seen:
            seen.add(t)
            stack.append((t, True))
            stack.extend((a, False) for a in t.args if a not in seen)
    # paths from the root to each node, counted up to 2
    paths = dict.fromkeys(order, 0)
    paths[root] = 1
    for t in reversed(order):
        for a in t.args:
            paths[a] = min(2, paths[a] + paths[t])

    parents: dict[Term, tuple[Term, int]] = {}
    todo: list[tuple[Term, bool]] = [(root, True)]  # node, the truth it needs
    while todo:
        t, want = todo.pop()
        if t.op in _ONTO or want in _ONTO_BOOL.get(t.op, ()):
            if t.op == "bnot":
                want = not want
            for i, a in enumerate(t.args):
                if paths[a] == 1:
                    parents[a] = (t, i)
                    todo.append((a, want))
    return parents


def _preimage(t: Term, i: int, need: int, model: Mapping[str, int],
              values: dict[Term, int]) -> int:
    """A value of ``t``'s argument ``i`` that makes ``t`` come out ``need``,
    the other arguments evaluated under ``model``; ``t`` is an op that
    :func:`_free_paths` passes through."""
    op = t.op
    if op == "bnot":
        return 1 - need
    if op == "band":
        return need
    m = mask(t.args[i].width)
    if op == "ult":  # false: the left side all ones, or the right side 0
        return m if i == 0 else 0
    other = evaluate(t.args[1 - i], model, values)
    if op == "eq":
        return other if need else (other + 1) & m
    if op == "xor":
        return need ^ other
    if op == "add":
        return (need - other) & m
    return (need + other) & m if i == 0 else (other - need) & m  # sub


class Solver:
    """Decides queries under a per-query time limit and remembers the answers.

    Every query takes one path through :meth:`check_sat`. Its constraints
    are joined into their interned conjunction by
    :func:`~reentscan.smt.terms.band`, which folds the query to ``FALSE``
    as soon as one conjunct is false or the negation of another. A negated
    disjunction is a conjunction (``bor`` is a negated ``band``), so its
    disjuncts' negations join the query as conjuncts of their own. Then:

    1. the query is answered from the memo, else from a recent model;
    2. else its conjuncts that a variable can always make true are left
       out;
    3. the rest, if anything was left out, is answered from the memo or a
       recent model, else it is searched in the store's one SAT instance,
       under its conjuncts' lowered literals as assumptions (see
       ``bitblast`` and ``sat``), and a decided answer of the search is
       memoized under the rest;
    4. a SAT model of the rest is extended over the conjuncts left out;
    5. the model is checked against every conjunct of the query;
    6. a decided answer is memoized under the query, and its model put in
       the ring.

    A conjunct that lowers to constant false, or two that lower to
    complementary literals (an add's operands commuted, say), end a search
    UNSAT as its assumptions are placed: before any decision, and whatever
    time is left. The empty query is searched this way too.

    A conjunct is left out when it holds a variable ``x`` that no other
    conjunct holds and that it reaches along one path of ops that can
    always give the value needed (see :func:`_free_paths`), as SMT
    preprocessors eliminate unconstrained terms (Bruttomesso et al., CAV
    2007). Whatever the other variables are, some ``x`` makes it true, so
    the query is SAT just when the rest is, and a model of the rest
    becomes one of the query by solving each such conjunct for its ``x``,
    top down. A conjunct left out is never lowered, so one with an
    operation the store cannot lower no longer makes its query Unknown.
    The solvency sums at the end of a path are such conjuncts, an
    account's initial balance being their ``x``.

    The ring holds the models of the last :data:`RECENT_MODELS` queries
    that the memo and the ring did not answer whole, one model per query,
    KLEE's counterexample cache. A model that satisfies the query, unbound
    variables read as 0, proves it SAT without blasting it, also where
    solving it would give Unknown (an operation the store cannot lower).
    A model is tried constraint by constraint, up to the first false one,
    and keeps the values of the terms evaluated under it until it leaves
    the ring: a query that adds a constraint to one tried before, as the
    next branch on a path does, evaluates only that constraint. A hit
    hands out a copy of that model and is not memoized, so the key asked
    again is tried on the ring again.

    A search's SAT answer carries the model it ended at. Decided answers
    are memoized by the interned conjunction, which keeps its conjuncts in
    order: the same constraints in another order may solve to another
    model, so a set would not do as the key. Unknown is never memoized,
    and every model handed out is a fresh copy. One instance serves one
    contract, so the memo, the gate store and the SAT instance with its
    learnt clauses live as long as that contract's analysis.

    Only a witness needs a canonical model, and :meth:`least_model` gives
    it: the least assignment to the bits of the query's variables, read in
    the order the query first reaches them (the roots in turn, each term's
    arguments in order), each variable LSB first, with the first bit
    highest. Whatever model :meth:`check_sat` gave, from the ring, a
    query with conjuncts left out or a search, the whole query is solved
    again for it within a deadline of its own, until a search meets no
    conflict. Such a search ends at the least model, and often early: at
    each variable's first bit in that order, the conjuncts are evaluated on
    the bits the search has assigned, every other bit read as 0, and if
    they hold, that is the model the rest of the walk would reach (see
    ``sat``, which also shows why the searches stop conflicting). So a
    witness depends only on the query, and not on what the contract asked
    before it. If minimizing runs out of time, or the query holds a
    conjunct the store cannot lower, the model :meth:`check_sat` gave is
    kept, less the variables the query does not hold: a decided SAT never
    becomes Unknown.

    :attr:`answers` counts each query asked by the place that answered it,
    or answered the rest of it: ``memo``, ``ring``, ``solved`` (decided by
    a search), ``timeout`` (out of time) or ``unsupported`` (a constraint
    the store cannot lower). :attr:`dropped` counts the conjuncts left out.
    :attr:`sat_stats` gives the totals of the SAT instance; its
    ``completions`` are the searches that the check above ended.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._memo: dict[Term, SolverVerdict] = {}
        self._models: deque[dict[str, int]] = deque(maxlen=RECENT_MODELS)
        # per ring model, the values of the terms evaluated under it
        self._values: deque[dict[Term, int]] = deque(maxlen=RECENT_MODELS)
        self._blaster = BitBlaster()
        # per conjunct, its variables that can always make it true, in cone
        # order, and the paths from it to them (see _free_paths)
        self._free: dict[Term, tuple[list[Term], dict[Term, tuple[Term, int]]]] = {}
        # how each query was answered; the counts sum to the queries asked
        self.answers: Counter[str] = Counter()
        self.dropped = 0  # conjuncts left out of the queries they were in

    def check_sat(self, constraints: Iterable[Term]) -> SolverVerdict:
        start = time.monotonic()
        key = band(constraints)
        known = self._known(key)
        if known is None:
            kept, dropped = self._split(conjuncts(key))
            self.dropped += len(dropped)
            rest = band(kept) if dropped else key
            known = dropped and self._known(rest) or self._search(rest, start)
            if known.is_sat:
                model = dict(known.model)
                values: dict[Term, int] = {}
                for c, x in dropped:  # solved for its variable, top down
                    parents = self._free[c][1]
                    path = [x]
                    while path[-1] is not c:
                        path.append(parents[path[-1]][0])
                    need = 1
                    for node in reversed(path[:-1]):
                        need = _preimage(*parents[node], need, model, values)
                    model[x.name] = need
                if dropped:  # a search's model is checked already
                    self._verify_model(conjuncts(key), model)
                known = SolverVerdict(SolverStatus.SAT, model)
                self._models.appendleft(model)
                self._values.appendleft({})
            if known.status is not SolverStatus.UNKNOWN:
                self._memo[key] = known
        model = dict(known.model) if known.model is not None else None
        return SolverVerdict(known.status, model)

    def _known(self, key: Term) -> SolverVerdict | None:
        """The memo's answer to ``key``, else a recent model's, if any."""
        known = self._memo.get(key)
        if known is not None:
            self.answers["memo"] += 1
            return known
        return self._recent(key)

    def _split(self, flat: tuple[Term, ...]
               ) -> tuple[list[Term], list[tuple[Term, Term]]]:
        """The conjuncts to keep, and those to drop, each with the variable
        that can always make it true: the first in its cone order that
        :func:`_free_paths` reaches and that no other conjunct holds."""
        cones = [self._blaster.cone(c) for c in flat]
        uses = Counter(v for cone in cones for v in cone)
        kept: list[Term] = []
        dropped: list[tuple[Term, Term]] = []
        for c, cone in zip(flat, cones):
            free = self._free.get(c)
            if free is None:
                parents = _free_paths(c)
                free = self._free[c] = ([v for v in cone if v in parents], parents)
            x = next((v for v in free[0] if uses[v] == 1), None)
            if x is None:
                kept.append(c)
            else:
                dropped.append((c, x))
        return kept, dropped

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

    def least_model(self, constraints: Iterable[Term]
                    ) -> tuple[SolverVerdict, str | None]:
        """:meth:`check_sat` with the least model, for a witness, and why
        the model handed out is not the least one: None when it is.

        A SAT answer is solved again for its least model within a deadline
        of its own (see :meth:`_minimize`). When that runs out, or a
        conjunct does not lower, the model :meth:`check_sat` gave is handed
        out over the query's variables alone, with ``"out of time"`` or the
        unsupported operation as the reason.
        """
        key = band(constraints)
        verdict = self.check_sat([key])
        if not verdict.is_sat:
            return verdict, None
        try:
            least = self._minimize(key)
        except UnsupportedTermError as exc:
            why = str(exc)
        else:
            if least is not None:
                return SolverVerdict(SolverStatus.SAT, dict(least)), None
            why = "out of time"
        names = [v.name for v in self._blaster.variables(conjuncts(key))]
        model = {name: verdict.model.get(name, 0) for name in names}
        return SolverVerdict(SolverStatus.SAT, model), why

    def _search(self, key: Term, start: float) -> SolverVerdict:
        """Decide ``key`` by one search and memoize a decided answer."""
        flat = conjuncts(key)
        try:
            assumptions, variables, order = self._lower(flat)
        except UnsupportedTermError:
            self.answers["unsupported"] += 1
            return SolverVerdict(SolverStatus.UNKNOWN, None)
        result = self._blaster.sat.solve(
            assumptions, order, start + self.timeout,
            *self._completion(flat, variables))
        if result is None:
            self.answers["timeout"] += 1
            return SolverVerdict(SolverStatus.UNKNOWN, None)
        self.answers["solved"] += 1
        verdict = (SolverVerdict(SolverStatus.SAT, self._model(flat, variables))
                   if result else SolverVerdict(SolverStatus.UNSAT, None))
        self._memo[key] = verdict
        return verdict

    def _minimize(self, key: Term) -> dict[str, int] | None:
        """Memoize and return the least model of ``key``, a SAT query; None
        when the deadline of its own runs out first. Raises
        :class:`UnsupportedTermError` if a conjunct does not lower.

        The query is solved in the instance, under the same assumptions,
        order and completion check, until a search meets no conflict: that
        search ends at the least model. Each search that conflicts leaves
        a learnt clause the instance did not hold before (see ``sat``), so
        the searches stop conflicting.
        """
        flat = conjuncts(key)
        sat = self._blaster.sat
        deadline = time.monotonic() + self.timeout
        assumptions, variables, order = self._lower(flat)
        stops, complete = self._completion(flat, variables)
        while True:
            conflicts = sat.conflicts
            if not sat.solve(assumptions, order, deadline, stops, complete):
                return None
            if sat.conflicts == conflicts:
                break
        model = self._model(flat, variables)
        self._memo[key] = SolverVerdict(SolverStatus.SAT, model)
        return model

    def _lower(self, flat: tuple[Term, ...]) -> tuple[list[int], list[Term], list[int]]:
        """The query's assumption literals, its variables, and their bits
        in the order the query first reaches them; raises
        :class:`UnsupportedTermError` if a conjunct does not lower."""
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
            "learnt": sat.learnts, "completions": sat.completions,
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
        :class:`IndeterminateEquivalence` if either query is Unknown. Each
        difference negates only the conjuncts its own side lacks: ``a``
        already asserts those the two share, so ``a ∧ ¬b`` is ``a ∧ ¬(b ∖
        a)``, and a variable only the shared conjuncts hold stays in one
        conjunct of the query.
        """
        a = band(left)
        b = band(right)
        forward = self.check_sat([a, bnot(self._beyond(b, a))]).status
        if forward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("left minus right undecided")
        if forward is SolverStatus.SAT:
            return False
        backward = self.check_sat([b, bnot(self._beyond(a, b))]).status
        if backward is SolverStatus.UNKNOWN:
            raise IndeterminateEquivalence("right minus left undecided")
        return backward is SolverStatus.UNSAT

    @staticmethod
    def _beyond(a: Term, b: Term) -> Term:
        """The conjunction of ``a``'s conjuncts that ``b`` lacks."""
        shared = set(conjuncts(b))
        return band(c for c in conjuncts(a) if c not in shared)
