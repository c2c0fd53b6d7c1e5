"""A compact CDCL SAT solver (watched literals, 1UIP learning, VSIDS, restarts).

Literals are nonzero ints: +v / -v for variable v (1-based). ``solve`` returns
True/False for sat/unsat and None when the time or conflict budget runs out.

Decisions come from a lazy binary max-heap of variables ordered by VSIDS
activity, ties going to the lower index (MiniSat's order heap; Eén and
Sörensson, "An Extensible SAT-solver", SAT 2003). Every unassigned variable
is in the heap; assigned ones may linger until popped, and backtracking puts
the variables it unassigns back. The top unassigned variable is the one a
scan over all variables for the highest activity, first index first, picks.
"""

from __future__ import annotations

import time


class SatSolver:
    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.assign: list[int] = [0]  # var -> 0 unassigned, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[int] = [0]  # var -> clause index + 1, 0 = decision
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]  # saved polarity
        self.heap: list[int] = []  # decision order, see the module docstring
        self.heap_pos: list[int] = [-1]  # var -> index in heap, -1 if absent
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.qhead = 0
        self.ok = True
        self.restarts = 0

    # -- construction ---------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(0)
        self.activity.append(0.0)
        self.phase.append(-1)
        self.heap_pos.append(-1)
        self._heap_insert(self.num_vars)
        return self.num_vars

    def add_clause(self, lits: list[int]) -> None:
        if not self.ok:
            return
        # dedupe, drop tautologies
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        filtered = self._level0_filter(out)
        if filtered is None:
            return  # already satisfied at level 0
        if not filtered:
            self.ok = False
            return
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], 0):
                self.ok = False
            return
        self._attach(filtered)

    @classmethod
    def load(cls, num_vars: int, clauses: list[list[int]]) -> "SatSolver":
        """A solver in the state that ``num_vars`` :meth:`new_var` calls and
        :meth:`add_clause` on each clause in order leave, for clauses with
        no repeated or complementary literals (a Tseitin encoding's). It
        takes ownership of the clause lists."""
        s = cls()
        n = s.num_vars = num_vars
        s.assign = [0] * (n + 1)
        s.level = [0] * (n + 1)
        s.reason = [0] * (n + 1)
        s.activity = [0.0] * (n + 1)
        s.phase = [0] + [-1] * n
        # with every activity 0, n inserts leave the heap in index order
        s.heap = list(range(1, n + 1))
        s.heap_pos = [-1, *range(n)]
        kept, watches = s.clauses, s.watches
        fixed: set[int] = set()  # both literals of each variable set so far
        for lits in clauses:
            if not fixed.isdisjoint(lits):
                lits = s._level0_filter(lits)
                if lits is None:
                    continue
            if len(lits) > 1:
                idx = len(kept)
                kept.append(lits)
                watches.setdefault(-lits[0], []).append(idx)
                watches.setdefault(-lits[1], []).append(idx)
            elif lits:  # unassigned, as the filter dropped what is not
                s._enqueue(lits[0], 0)
                fixed.update((lits[0], -lits[0]))
            else:
                s.ok = False
                break
        return s

    def _level0_filter(self, lits: list[int]) -> list[int] | None:
        """``lits`` without literals false at level 0; None if one is true."""
        filtered = []
        for lit in lits:
            v = self._value(lit)
            if v == 1 and self.level[abs(lit)] == 0:
                return None
            if v == -1 and self.level[abs(lit)] == 0:
                continue
            filtered.append(lit)
        return filtered

    def _attach(self, lits: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(-lits[0], []).append(idx)
        self.watches.setdefault(-lits[1], []).append(idx)
        return idx

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

    def _propagate(self) -> int:
        """Return conflicting clause index + 1, or 0."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            watch_list = self.watches.get(lit)
            if not watch_list:
                continue
            kept: list[int] = []
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                # ensure the falsified literal is at position 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(ci)
                    continue
                # search replacement watch
                found = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(ci)
                        found = True
                        break
                if found:
                    continue
                kept.append(ci)
                if not self._enqueue(first, ci + 1):
                    kept.extend(watch_list[i:])
                    self.watches[lit] = kept
                    return ci + 1
            self.watches[lit] = kept
        return 0

    # -- decision heap --------------------------------------------------------

    def _heap_insert(self, var: int) -> None:
        self.heap_pos[var] = len(self.heap)
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1)

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self.heap, self.heap_pos, self.activity
        var = heap[i]
        a = act[var]
        while i > 0:
            p = (i - 1) >> 1
            parent = heap[p]
            pa = act[parent]
            if pa > a or (pa == a and parent < var):
                break
            heap[i] = parent
            pos[parent] = i
            i = p
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self.heap, self.heap_pos, self.activity
        n = len(heap)
        var = heap[i]
        a = act[var]
        while True:
            c = 2 * i + 1
            if c >= n:
                break
            child = heap[c]
            ca = act[child]
            if c + 1 < n:
                right = heap[c + 1]
                ra = act[right]
                if ra > ca or (ra == ca and right < child):
                    c, child, ca = c + 1, right, ra
            if a > ca or (a == ca and var < child):
                break
            heap[i] = child
            pos[child] = i
            i = c
        heap[i] = var
        pos[var] = i

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # rescaling may round distinct activities to equal ones, whose
            # order then falls to the index: rebuild rather than sift
            for i in range(len(self.heap) // 2 - 1, -1, -1):
                self._sift_down(i)
        elif self.heap_pos[var] >= 0:
            self._sift_up(self.heap_pos[var])

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learnt = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self.trail)
        clause = self.clauses[conflict - 1]
        cur_level = len(self.trail_lim)
        while True:
            for q in clause if lit == 0 else clause[1:]:
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
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
            clause = self.clauses[reason - 1]
            # put the implied literal first so the [1:] slice skips it
            if clause[0] != lit:
                pos = clause.index(lit)
                clause[0], clause[pos] = clause[pos], clause[0]
            seen[abs(lit)] = False
        learnt[0] = -lit
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
        assign, pos = self.assign, self.heap_pos
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            assign[var] = 0
            if pos[var] < 0:
                self._heap_insert(var)
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        heap, pos, assign = self.heap, self.heap_pos, self.assign
        while heap:
            var = heap[0]
            pos[var] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                self._sift_down(0)
            if assign[var] == 0:
                return var if self.phase[var] >= 0 else -var
        return 0

    def solve(self, deadline: float | None = None) -> bool | None:
        if not self.ok:
            return False
        if self._propagate():
            self.ok = False
            return False
        conflicts = 0
        restart_limit = 100
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict:
                conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return False
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], 0):
                        self.ok = False
                        return False
                else:
                    ci = self._attach(learnt)
                    self._enqueue(learnt[0], ci + 1)
                self.var_inc /= self.var_decay
                if conflicts % 256 == 0 and deadline is not None \
                        and time.monotonic() > deadline:
                    self._backtrack(0)
                    return None
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.restarts += 1
                    self._backtrack(0)
            else:
                lit = self._decide()
                if lit == 0:
                    return True
                if deadline is not None and time.monotonic() > deadline:
                    self._heap_insert(abs(lit))  # popped but never assigned
                    self._backtrack(0)
                    return None
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, 0)

    def model_value(self, var: int) -> bool:
        return self.assign[var] == 1
