"""A compact CDCL SAT solver (watched literals, 1UIP learning, VSIDS, restarts)
that solves many queries in one instance, under assumptions.

Literals are nonzero ints: +v / -v for variable v (1-based). Clauses are only
ever added. :meth:`SatSolver.solve` takes a query as a list of assumption
literals, which it decides first, one decision level each, and an order: the
only variables it decides on besides. That is MiniSat's incremental interface
(Eén and Sörensson, "An Extensible SAT-solver", SAT 2003). It returns
True/False for sat/unsat under the assumptions and None when the time runs
out. Time is checked before each decision, not before an assumption: a
query whose assumptions refute themselves, one false or two complementary,
is UNSAT whatever time is left. A SAT answer leaves its assignment in place
for :meth:`model_value` until the next clause or solve. Learnt clauses are
kept: they follow from the clauses alone, so they hold for every later
query.

Decisions over the order go in two phases. Until the solve's first conflict,
a cursor walks the order and sets each unassigned variable false. So a
conflict-free solve ends at the least assignment to the order, read as a
binary number whose first variable is the highest bit: each decision takes
the least value the variables before it allow, and each implied value holds
in every model that agrees on those variables. The caller may name stops in
the order, and a check: when the cursor is about to decide at or past a
stop, the check is asked whether the assignment so far, with every order
variable still unassigned read false, is a model. If it is, the solve ends
SAT there and leaves those variables unassigned. That is where the walk
would end anyway: every value it could still imply holds in that model,
so it meets no conflict and decides the rest false. The check reads only
which order variables are true, and before the first conflict the trail
only grows, so after its first stop it is asked again only once the trail
has gained a true order variable: at any other stop it would say no again.

At the first conflict, the variables the cursor has not passed go into
MiniSat's order heap: a ``heapq`` of ``(-activity, var)`` entries, so the
highest VSIDS activity pops first and ties go to the lower index. Raising
a variable's activity pushes a fresh entry and leaves the old one, which
pops after it and is skipped; a heap that grows past twice the variable
count is rebuilt.
Every later decision pops it, taking the variable's saved phase. A variable
that conflict analysis bumps becomes decidable too, for the rest of the
solve: on the order's variables alone, VSIDS leaves ``(x + y) - y != x`` at
16 bits Unknown after a minute, and with the bumped gates it takes a tenth
of a second. Backtracking puts back the decidable variables it unassigns,
and no others. Activities and saved phases carry over from solve to
solve.

A solve that conflicted may end above the least model. Solving the same
query again, until a solve meets no conflict, ends at it, and that loop
ends: each conflict learns a clause the instance did not hold. The
learnt clause's literals but its UIP's were all false at levels below
the conflict's, and propagation runs to the end before every assumption
and decision, so a clause already held would have set the UIP literal
true there. Each conflicted solve adds a new clause over the same
variables, and there are finitely many.

Clauses live in three stores, each one flat list indexed by literal,
``2v`` for ``+v`` and ``2v + 1`` for ``-v``:

- ``binaries`` holds a clause of two literals as the literal that each
  one's negation implies, MiniSat's implication lists;
- ``ternaries`` holds a clause of three literals as the pair of its other
  two, flat ``p, q``, under each of its literals' negations: that
  literal's truth implies ``p`` once ``q`` is false, ``q`` once ``p`` is,
  and with both false the clause is the conflict;
- ``watches`` holds a clause of four or more literals as a list of its
  own, watched on its first two literals. The gate store makes none, so
  these are the longer learnt clauses.

Almost every clause is a gate's Tseitin clause, and nearly all of those
have three literals. Kept as a list with two watches each, they cost an
object per clause, and a watch to move each time propagation falsified
one. As pairs they make no object of their own, adding one is an append,
and propagation moves nothing. ``binaries`` and ``watches``
hold ``()`` in the slot of a literal nothing lists yet; every literal has
a list in ``ternaries`` from :meth:`SatSolver.grow` on.

``clauses`` keeps one slot per clause of three or more literals, in the
order added: a watched clause's list, or the one shared ``None`` for a
three-literal clause. Nothing reads a ``None`` slot. The slots keep
``len(clauses)`` the count that the benchmark's tracer reads for its
clause and learnt-clause counts, until the tracer reads
``Solver.sat_stats`` instead (ROADMAP item 6).
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence


def _index(lit: int) -> int:
    """The watch-list index of ``lit``."""
    return lit << 1 if lit > 0 else (-lit << 1) | 1


def _literal(index: int) -> int:
    """The literal of a watch-list index."""
    return -(index >> 1) if index & 1 else index >> 1


_LOW = 0xFFFFFFFF  # the low half of a ternary reason


def _ternary_reason(index: int, other: int) -> int:
    """The reason of a literal a three-literal clause implies, from the
    watch indices of the clause's two false literals."""
    return ~(index << 32 | other)


def _false_literals(reason: int) -> tuple[int, ...]:
    """The false literals of the binary or three-literal clause that a
    negative reason names."""
    packed = ~reason
    if packed >> 32:
        return _literal(packed >> 32), _literal(packed & _LOW)
    return (_literal(packed),)


def _gate_clauses(a: int, b: int, o: int) -> list[list[int]]:
    """The Tseitin clauses of ``o = a & b``, or of ``-o = a ^ b`` if
    ``o < 0``."""
    na, nb, no = -a, -b, -o
    if o > 0:
        return [[na, nb, o], [a, no], [b, no]]
    return [[na, nb, o], [a, b, o], [na, b, no], [a, nb, no]]


def _maj_clauses(a: int, b: int, c: int, o: int) -> list[list[int]]:
    """The Tseitin clauses of ``o = maj(a, b, c)``: two operands true make
    ``o`` true, two false make it false."""
    na, nb, nc, no = -a, -b, -c, -o
    return [[na, nb, o], [na, nc, o], [nb, nc, o],
            [a, b, no], [a, c, no], [b, c, no]]


def _watch(table: list, index: int, entry: int) -> None:
    found = table[index]
    if found:
        found.append(entry)
    else:
        table[index] = [entry]


class SatSolver:
    def __init__(self) -> None:
        self.num_vars = 0
        # a slot per clause of three or more literals: None for three
        self.clauses: list[list[int] | None] = []
        # by literal (see _index): the long clauses watching its negation,
        # the literals its truth implies, and the flat (p, q) pairs of the
        # three-literal clauses that hold its negation
        self.watches: list[list[int] | tuple] = [(), ()]
        self.binaries: list[list[int] | tuple] = [(), ()]
        self.ternaries: list[list[int] | tuple] = [(), ()]
        self.num_binaries = 0  # two-literal clauses, kept in binaries only
        self.assign: list[int] = [0]  # var -> 0 unassigned, 1 true, -1 false
        self.level: list[int] = [0]
        # var -> clause index + 1; ~index of the other literal of a binary
        # clause; ~(i << 32 | j) for a three-literal clause whose other two
        # literals have indices i and j; 0 for a decision or a unit
        self.reason: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]  # saved polarity
        self.seen = bytearray(1)  # conflict analysis marks, all 0 between
        # marks: the current solve's order, and the variables its conflict
        # analysis bumped outside it (extra), which the heap decides on too
        self.decidable = bytearray(1)
        self.order: Sequence[int] = ()
        self.extra: list[int] = []
        self.cursor: int | None = 0  # next order index, None once on the heap
        # decision order after the first conflict: (-activity, var) entries,
        # stale ones among them (see _bump)
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray(1)  # var -> 1 if it has a live heap entry
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.qhead = 0
        self.ok = True
        # totals over every solve
        self.decisions = 0
        self.conflicts = 0
        self.learnts = 0
        self.completions = 0  # solves the check ended (see solve)
        self.search_s = 0.0

    # -- construction ---------------------------------------------------------

    def grow(self, num_vars: int) -> None:
        """Add unconstrained variables up to ``num_vars``."""
        k = num_vars - self.num_vars
        if k <= 0:
            return
        self.num_vars = num_vars
        self.assign += [0] * k
        self.level += [0] * k
        self.reason += [0] * k
        self.activity += [0.0] * k
        self.phase += [-1] * k
        self.in_heap += bytes(k)
        self.seen += bytes(k)
        self.decidable += bytes(k)
        self.watches += [()] * (2 * k)
        self.binaries += [()] * (2 * k)
        self.ternaries += [[] for _ in range(2 * k)]

    def new_var(self) -> int:
        self.grow(self.num_vars + 1)
        return self.num_vars

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause at level 0: without its repeated literals and those
        false at level 0, and not at all if it is a tautology or true there."""
        if self.trail_lim:
            self._backtrack(0)
        if not self.ok:
            return
        assign = self.assign
        out: list[int] = []
        for lit in lits:
            value = assign[lit] if lit > 0 else -assign[-lit]
            if value == 1 or -lit in out:
                return
            if value == 0 and lit not in out:
                out.append(lit)
        if len(out) > 1:
            self._attach(out)
        elif out:
            self._enqueue(out[0], 0)
        else:
            self.ok = False

    def add_gates(self, gates: Sequence[int], majs: Sequence[int]) -> None:
        """Add the Tseitin clauses of gates given as flat ``(a, b, out)``
        triples: ``out = a & b``, or ``-out = a ^ b`` when ``out < 0``; then
        of Maj gates given as flat ``(a, b, c, out)`` quadruples: ``out =
        maj(a, b, c)``. A gate's operands are over distinct variables, and
        its output is a variable no clause has mentioned yet.

        A gate with an operand fixed at level 0 goes through
        :meth:`add_clause`. The rest leave the state :meth:`add_clause` of
        each of :func:`_gate_clauses` and :func:`_maj_clauses` would: an And
        gate's two binary clauses go into ``binaries``, and every
        three-literal clause into ``ternaries``, its pairs appended here,
        one list per literal, in the order the clauses come, with a
        ``None`` slot in ``clauses`` each. No clause gets an object of its
        own, and adding one makes no call. With a list and two watches per
        clause, attaching took about 45% of a ``dag`` benchmark pass, and
        the lists set off over half of the pass's garbage collections.
        """
        if self.trail_lim:
            self._backtrack(0)
        assign, clauses = self.assign, self.clauses
        t, binaries = self.ternaries, self.binaries
        it = iter(gates)
        for a, b, o in zip(it, it, it):
            if assign[a if a > 0 else -a] or assign[b if b > 0 else -b]:
                for lits in _gate_clauses(a, b, o):
                    self.add_clause(lits)
                continue
            ia = a << 1 if a > 0 else (-a << 1) | 1
            ib = b << 1 if b > 0 else (-b << 1) | 1
            na, nb, no = -a, -b, -o
            if o > 0:  # [-a, -b, o], then [a, -o] and [b, -o] as binaries
                t[ia] += nb, o
                t[ib] += na, o
                t[(o << 1) | 1] += na, nb
                clauses.append(None)
                _watch(binaries, ia ^ 1, no)
                _watch(binaries, ib ^ 1, no)
                _watch(binaries, o << 1, a)
                _watch(binaries, o << 1, b)
                self.num_binaries += 2
            else:  # [-a, -b, o], [a, b, o], [-a, b, -o], [a, -b, -o]
                t[ia] += nb, o, b, no
                t[ib] += na, o, a, no
                t[ia ^ 1] += b, o, nb, no
                t[ib ^ 1] += a, o, na, no
                t[no << 1] += na, nb, a, b
                t[(no << 1) | 1] += na, b, a, nb
                clauses += (None,) * 4
        it = iter(majs)
        for a, b, c, o in zip(it, it, it, it):
            if assign[a if a > 0 else -a] or assign[b if b > 0 else -b] \
                    or assign[c if c > 0 else -c]:
                for lits in _maj_clauses(a, b, c, o):
                    self.add_clause(lits)
                continue
            ia = a << 1 if a > 0 else (-a << 1) | 1
            ib = b << 1 if b > 0 else (-b << 1) | 1
            ic = c << 1 if c > 0 else (-c << 1) | 1
            io = o << 1 if o > 0 else (-o << 1) | 1
            na, nb, nc, no = -a, -b, -c, -o
            # [-a, -b, o], [-a, -c, o], [-b, -c, o], then the same negated
            t[ia] += nb, o, nc, o
            t[ib] += na, o, nc, o
            t[ic] += na, o, nb, o
            t[io ^ 1] += na, nb, na, nc, nb, nc
            t[ia ^ 1] += b, no, c, no
            t[ib ^ 1] += a, no, c, no
            t[ic ^ 1] += a, no, b, no
            t[io] += a, b, a, c, b, c
            clauses += (None,) * 6

    def _attach(self, lits: list[int]) -> int:
        """Store a clause of two or more literals; returns the reason that
        implies its first literal."""
        a, b = lits[0], lits[1]
        if len(lits) == 2:
            _watch(self.binaries, _index(-a), b)
            _watch(self.binaries, _index(-b), a)
            self.num_binaries += 1
            return ~_index(b)
        if len(lits) == 3:
            c, t = lits[2], self.ternaries
            t[_index(-a)] += b, c
            t[_index(-b)] += a, c
            t[_index(-c)] += a, b
            self.clauses.append(None)
            return _ternary_reason(_index(b), _index(c))
        idx = len(self.clauses)
        self.clauses.append(lits)
        _watch(self.watches, _index(-a), idx)
        _watch(self.watches, _index(-b), idx)
        return idx + 1

    # -- core -----------------------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = self._value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Return the clause found false, or None.

        :meth:`_value` and :meth:`_enqueue` are inlined; the watch lists,
        literal swaps and trail are what calling them gives. The binary
        clauses of a literal go first, then its three-literal ones.
        """
        trail, clauses, watches = self.trail, self.clauses, self.watches
        binaries, ternaries = self.binaries, self.ternaries
        assign, level, reason, phase = self.assign, self.level, self.reason, self.phase
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            li = lit << 1 if lit > 0 else (-lit << 1) | 1
            implied = binaries[li]
            if implied:
                why = ~(li ^ 1)  # the binary clause (other, -lit)
                for other in implied:
                    var = other if other > 0 else -other
                    value = assign[var]
                    if value == 0:
                        sign = 1 if other > 0 else -1
                        assign[var] = phase[var] = sign
                        level[var] = depth
                        reason[var] = why
                        trail.append(other)
                    elif (value > 0) != (other > 0):
                        self.qhead = qhead
                        return [other, -lit]
            pairs = ternaries[li]
            if pairs:
                high = (li ^ 1) << 32  # -lit's half of a ternary reason
                it = iter(pairs)
                for p, q in zip(it, it):  # the clause (p, q, -lit)
                    vp = assign[p] if p > 0 else -assign[-p]
                    if vp == 1:
                        continue
                    vq = assign[q] if q > 0 else -assign[-q]
                    if vq == 1 or vp == vq == 0:
                        continue
                    if vp == vq:
                        self.qhead = qhead
                        return [p, q, -lit]
                    if vp == 0:  # q false implies p
                        other = p
                        why = ~(high | (q << 1 if q > 0 else (-q << 1) | 1))
                    else:
                        other = q
                        why = ~(high | (p << 1 if p > 0 else (-p << 1) | 1))
                    var, sign = (other, 1) if other > 0 else (-other, -1)
                    assign[var] = phase[var] = sign
                    level[var] = depth
                    reason[var] = why
                    trail.append(other)
            watch_list = watches[li]
            if not watch_list:
                continue
            # kept in place, so the list is not replaced by a new object
            kept = 0
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = clauses[ci]
                # ensure the falsified literal is at position 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if first > 0:
                    var, value = first, assign[first]
                else:
                    var, value = -first, -assign[-first]
                if value == 1:
                    watch_list[kept] = ci
                    kept += 1
                    continue
                # search replacement watch
                for k in range(2, len(clause)):
                    other = clause[k]
                    if other > 0:
                        if assign[other] == -1:
                            continue
                        wi = (other << 1) | 1
                    elif assign[-other] == 1:
                        continue
                    else:
                        wi = -other << 1
                    clause[1], clause[k] = other, clause[1]
                    found = watches[wi]
                    if found:
                        found.append(ci)
                    else:
                        watches[wi] = [ci]
                    break
                else:
                    watch_list[kept] = ci
                    kept += 1
                    if value == -1:
                        del watch_list[kept:i]
                        self.qhead = qhead
                        return clause
                    sign = 1 if first > 0 else -1
                    assign[var] = sign
                    level[var] = depth
                    reason[var] = ci + 1
                    phase[var] = sign
                    trail.append(first)
            del watch_list[kept:]
        self.qhead = qhead
        return None

    # -- decision heap --------------------------------------------------------

    def _unflatten(self) -> None:
        """Hand the order over to the heap: what the cursor has not passed."""
        act, in_heap = self.activity, self.in_heap
        rest = self.order[self.cursor:]
        for var in rest:
            in_heap[var] = 1
        self.heap = [(-act[var], var) for var in rest]
        heapify(self.heap)
        self.cursor = None

    def _heap_insert(self, var: int) -> None:
        self.in_heap[var] = 1
        heappush(self.heap, (-self.activity[var], var))

    def _rebuild_heap(self) -> None:
        """One entry per variable in the heap, at its current activity."""
        act, in_heap = self.activity, self.in_heap
        self.heap = [(-act[var], var) for var in range(1, self.num_vars + 1)
                     if in_heap[var]]
        heapify(self.heap)

    def _bump(self, var: int) -> None:
        if not self.decidable[var]:  # decided on from its next unassignment
            self.decidable[var] = 1
            self.extra.append(var)
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()  # its entries hold the old activities
        elif self.in_heap[var]:
            # the old entry stays behind: its activity is lower, so it pops
            # after this one, and _decide skips it
            heappush(self.heap, (-self.activity[var], var))
            if len(self.heap) > 2 * self.num_vars:
                self._rebuild_heap()

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt = [0]
        seen = self.seen
        counter = 0
        lit = 0
        index = len(self.trail)
        clause: Sequence[int] = conflict
        cur_level = len(self.trail_lim)
        while True:
            for q in clause if lit == 0 else clause[1:]:
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                lit = self.trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(lit)]
            if reason > 0:
                clause = self.clauses[reason - 1]
                # put the implied literal first so the [1:] slice skips it
                if clause[0] != lit:
                    pos = clause.index(lit)
                    clause[0], clause[pos] = clause[pos], clause[0]
            else:
                clause = (lit, *_false_literals(reason))
            seen[abs(lit)] = 0
        learnt[0] = -lit
        # the marks left: the first UIP's and the learnt clause's
        for q in learnt:
            seen[abs(q)] = 0
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        # move a max-level literal to position 1 for watching
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        trail, assign = self.trail, self.assign
        if self.cursor is None:
            mark, in_heap = self.decidable, self.in_heap
            for k in range(len(trail) - 1, limit - 1, -1):
                var = abs(trail[k])
                assign[var] = 0
                if mark[var] and not in_heap[var]:
                    self._heap_insert(var)
        else:
            for lit in trail[limit:]:
                assign[lit if lit > 0 else -lit] = 0
        del trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(trail)

    def _decide(self) -> int:
        assign = self.assign
        i = self.cursor
        if i is not None:
            order = self.order
            n = len(order)
            while i < n:
                var = order[i]
                i += 1
                if assign[var] == 0:
                    self.cursor = i
                    return -var
            self.cursor = i
            return 0
        heap, in_heap = self.heap, self.in_heap
        while heap:
            var = heappop(heap)[1]
            if in_heap[var]:  # else a stale entry
                in_heap[var] = 0
                if assign[var] == 0:
                    return var if self.phase[var] >= 0 else -var
        return 0

    # -- solving --------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              order: Sequence[int] | None = None,
              deadline: float | None = None, stops: Sequence[int] = (),
              complete: Callable[[], bool] | None = None) -> bool | None:
        """Satisfiability under ``assumptions``, deciding over ``order``
        (every variable when None) besides them.

        The order must hold every variable the clauses leave free once the
        assumptions and the order are set: a Tseitin encoding's inputs.
        ``stops`` are ascending order indices; while no conflict has
        happened and time is left, ``complete`` is asked at the first stop
        the cursor reaches, and at a later one if an order variable turned
        true since it was last asked, whether the order's unassigned
        variables may all be read false; a True ends the solve SAT (see the
        module docstring).
        """
        start = time.perf_counter()
        if self.trail_lim:
            self._backtrack(0)
        if not self.ok or self._propagate():
            self.ok = False
            return False
        if order is None:
            order = range(1, self.num_vars + 1)
        mark = self.decidable
        for var in order:
            mark[var] = 1
        self.order, self.cursor = order, 0
        try:
            return self._search(assumptions, deadline, iter(stops), complete)
        finally:
            for var in order:
                mark[var] = 0
            for var in self.extra:
                mark[var] = 0
            self.extra = []
            in_heap = self.in_heap
            for _, var in self.heap:
                in_heap[var] = 0
            self.heap = []
            self.order, self.cursor = (), 0
            self.search_s += time.perf_counter() - start

    def _search(self, assumptions: Sequence[int], deadline: float | None,
                stops: Iterable[int],
                complete: Callable[[], bool] | None) -> bool | None:
        trail, trail_lim = self.trail, self.trail_lim
        assign, level, reason, phase = self.assign, self.level, self.reason, self.phase
        stop = next(stops, None) if complete is not None else None
        # the trail's length at the last check; before the first conflict
        # the order is what is marked decidable
        checked, marked = -1, self.decidable
        conflicts = 0
        restart_limit = 100
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict:
                conflicts += 1
                since_restart += 1
                self.conflicts += 1
                if not trail_lim:
                    self.ok = False
                    return False
                if self.cursor is not None:
                    self._unflatten()
                    stop = None  # no completion after a conflict
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                self._enqueue(learnt[0],
                              self._attach(learnt) if len(learnt) > 1 else 0)
                self.learnts += 1
                self.var_inc /= self.var_decay
                if conflicts % 256 == 0 and deadline is not None \
                        and time.monotonic() > deadline:
                    return None
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
            elif len(trail_lim) < len(assumptions):
                # the next assumption, on a level of its own even if it holds
                lit = assumptions[len(trail_lim)]
                value = self._value(lit)
                if value == -1:
                    return False
                trail_lim.append(len(trail))
                if value == 0:
                    self._enqueue(lit, 0)
            elif deadline is not None and time.monotonic() > deadline:
                # checked before every decision, so a search out of time
                # stops there whatever propagation settled; assumptions that
                # refute themselves end it UNSAT first
                return None
            else:
                lit = self._decide()
                if lit == 0:
                    return True
                # lit's variable is at order index cursor - 1
                if stop is not None and self.cursor > stop:
                    while stop is not None and stop < self.cursor:
                        stop = next(stops, None)
                    if checked < 0 or any(
                            v > 0 and marked[v] for v in trail[checked:]):
                        checked = len(trail)
                        if complete():
                            self.completions += 1
                            return True
                self.decisions += 1
                trail_lim.append(len(trail))
                # _enqueue inlined: the variable is unassigned
                var, sign = (lit, 1) if lit > 0 else (-lit, -1)
                assign[var] = phase[var] = sign
                level[var] = len(trail_lim)
                reason[var] = 0
                trail.append(lit)

    def model_value(self, var: int) -> bool:
        """The variable's value in the last SAT solve's model: a variable
        the solve left unassigned (one a completed solve never reached)
        reads false."""
        return self.assign[var] == 1
