"""Tseitin encoding of bitvector terms onto the CDCL SAT backend.

A :class:`BitBlaster` is a gate store with one :class:`SatSolver` instance.
The :class:`~reentscan.smt.solver.Solver` owns one, so there is one of each
per contract. The store lowers each term once: it numbers CNF variables
itself, its gate caches and term memos last as long as it does, and each
gate's clauses go into the instance once, at the end of the lowering that
made the gate. A query is solved in that instance: its roots' literals
(:meth:`BitBlaster.assert_true`) are the assumptions, and the bits of the
variables in their cone (:meth:`BitBlaster.variables`) are the order the
search decides on, in the order a walk of the cone first reaches them.
Every gate in the cone is a function of those bits, so once they are set,
propagation sets the cone: until its first conflict, the search decides on
nothing else (see ``sat``).

The gates are And, Xor and Maj, the majority of three. An adder's carry is
one Maj gate, as in MiniSat+'s adders (Eén and Sörensson, JSAT 2006), and
so is each bit of an unsigned comparison, the borrow of a subtraction. So a
256-bit add, sub or ``ult`` lowers to 3, 3 and 1 CNF variables per bit, and
propagation sets a carry or borrow as soon as two of its operands agree,
whatever the third.

The gate caches are structural hashing: the same gate over the same
operands is one literal, and a root's negation lowers to its literal
negated. So roots that contradict each other only as gates, an add's
operands commuted, say, lower to constant false or to complementary
literals, and the search ends UNSAT as it places them, before any decision.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Iterable

from .sat import SatSolver
from .terms import Term

TRUE_LIT = 1  # variable 1 is constant true
_LOW = 0xFFFFFFFF  # the low half of a gate-cache key


class UnsupportedTermError(Exception):
    """The term uses an operation outside the supported bitvector fragment."""


class BitBlaster:
    """Lowers Terms to gates once and attaches their clauses to one instance.

    Bitvectors become LSB-first literal lists. The gates a lowering makes
    wait until the lowering ends, in one flat ``array("i")`` per shape:
    ``(a, b, out)`` triples, with ``out`` negated for an Xor gate, and
    ``(a, b, c, out)`` quadruples for a Maj gate.
    """

    def __init__(self) -> None:
        self.num_vars = TRUE_LIT
        # node -> its literal, or its bits LSB first; a variable's are its own
        self._memo: dict[Term, int | array] = {}
        self._and_gates: dict[int, int] = {}
        self._xor_gates: dict[int, int] = {}
        self._maj_gates: dict[int, int] = {}
        # gates made since the last attach: And/Xor triples, Maj quadruples
        self._pending = array("i")
        self._pending_maj = array("i")
        self._cone_vars: dict[Term, tuple[Term, ...]] = {}  # by root
        self.sat = SatSolver()
        self.sat.add_clause([self.sat.new_var()])
        self.attach_s = 0.0  # seconds spent attaching clauses

    def _new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    # -- gate layer -----------------------------------------------------------

    def _const(self, value: bool) -> int:
        return TRUE_LIT if value else -TRUE_LIT

    def g_and(self, a: int, b: int) -> int:
        t = TRUE_LIT
        if a == -t or b == -t:
            return -t
        if a == t:
            return b
        if b == t:
            return a
        if a == b:
            return a
        if a == -b:
            return -t
        key = (a << 32) | (b & _LOW) if a < b else (b << 32) | (a & _LOW)
        o = self._and_gates.get(key)
        if o is None:
            o = self._and_gates[key] = self._new_var()
            self._pending.extend((a, b, o))
        return o

    def g_or(self, a: int, b: int) -> int:
        return -self.g_and(-a, -b)

    def g_xor(self, a: int, b: int) -> int:
        t = TRUE_LIT
        if a == t:
            return -b
        if a == -t:
            return b
        if b == t:
            return -a
        if b == -t:
            return a
        if a == b:
            return -t
        if a == -b:
            return t
        x, y = abs(a), abs(b)
        if x > y:
            x, y = y, x
        key = (x << 33) | (y << 1) | ((a < 0) ^ (b < 0))
        o = self._xor_gates.get(key)
        if o is None:
            o = self._xor_gates[key] = self._new_var()
            self._pending.extend((a, b, -o))
        return o

    def g_mux(self, c: int, a: int, b: int) -> int:
        """c ? a : b"""
        t = TRUE_LIT
        if c == t:
            return a
        if c == -t:
            return b
        if a == b:
            return a
        return self.g_or(self.g_and(c, a), self.g_and(-c, b))

    def g_maj(self, a: int, b: int, c: int) -> int:
        """At least two of a, b, c: a full adder's carry."""
        x, y, z = sorted((a, b, c), key=abs)  # a constant operand first
        t = TRUE_LIT
        if x == t:
            return self.g_or(y, z)
        if x == -t:
            return self.g_and(y, z)
        if x == y or y == z:
            return y
        if x == -y:
            return z
        if y == -z:
            return x
        # self-dual: maj(-x, -y, -z) = -maj(x, y, z), so x is keyed positive
        sign = 1 if x > 0 else -1
        x, y, z = x * sign, y * sign, z * sign
        key = ((x << 66) | (abs(y) << 34) | ((y < 0) << 33)
               | (abs(z) << 1) | (z < 0))
        o = self._maj_gates.get(key)
        if o is None:
            o = self._maj_gates[key] = self._new_var()
            self._pending_maj.extend((x, y, z, o))
        return o * sign

    def g_and_many(self, lits: list[int]) -> int:
        acc = TRUE_LIT
        for lit in lits:
            acc = self.g_and(acc, lit)
        return acc

    def g_or_many(self, lits: list[int]) -> int:
        return -self.g_and_many([-lit for lit in lits])

    # -- arithmetic helpers ---------------------------------------------------

    def _adder(self, a: list[int], b: list[int], carry: int) -> list[int]:
        out = []
        for ai, bi in zip(a, b):
            out.append(self.g_xor(self.g_xor(ai, bi), carry))
            carry = self.g_maj(ai, bi, carry)
        return out

    def _shift_const(self, bits: list[int], amount: int, left: bool) -> list[int]:
        w = len(bits)
        zero = self._const(False)
        if amount >= w:
            return [zero] * w
        if left:
            return [zero] * amount + bits[:w - amount]
        return bits[amount:] + [zero] * amount

    def _barrel_shift(self, bits: list[int], amount: list[int], left: bool) -> list[int]:
        w = len(bits)
        stages = max(1, (w - 1).bit_length())
        cur = bits
        for s in range(stages):
            shifted = self._shift_const(cur, 1 << s, left)
            cur = [self.g_mux(amount[s], sh, keep)
                   for sh, keep in zip(shifted, cur)]
        # any set bit beyond the in-range stages zeroes the result
        overflow = self.g_or_many(amount[stages:])
        zero = self._const(False)
        return [self.g_mux(overflow, zero, x) for x in cur]

    def _ult(self, a: list[int], b: list[int]) -> int:
        # the borrow out of a - b, LSB to MSB
        lt = self._const(False)
        for ai, bi in zip(a, b):
            lt = self.g_maj(-ai, bi, lt)
        return lt

    def _mul(self, a: list[int], b: Term) -> list[int]:
        # shift-and-add against a constant multiplicand
        assert b.is_const and b.value is not None
        w = len(a)
        acc = [self._const(False)] * w
        value = b.value
        bit = 0
        while value and bit < w:
            if value & 1:
                acc = self._adder(acc, self._shift_const(a, bit, True),
                                  self._const(False))
            value >>= 1
            bit += 1
        return acc

    # -- term lowering --------------------------------------------------------

    def _lower(self, root: Term) -> None:
        """Lower every node under ``root`` not lowered yet, children first,
        then attach the clauses of the gates made.

        An explicit stack, so term depth is not bound by Python's recursion
        limit; each node's lowering then finds its children in the memo. A
        node that fails to lower leaves no memo entry, and the gates made
        before it are attached all the same.
        """
        memo = self._memo
        stack = [root]
        try:
            while stack:
                term = stack[-1]
                if term in memo:
                    stack.pop()
                    continue
                pending = [a for a in term.args
                           if a.op != "const" and a not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                if term.is_bool:
                    memo[term] = self._lower_bool(term)
                else:
                    memo[term] = array("i", self._lower_bv(term))
                stack.pop()
        finally:
            # attaching first backtracks the instance to level 0, a walk
            # over the last model's trail: skip it when nothing was made
            if self.sat.num_vars < self.num_vars:
                self._attach()

    def _attach(self) -> None:
        """Add the variables and the gates made since the last attach to
        the instance, which adds each gate's Tseitin clauses."""
        start = perf_counter()
        sat = self.sat
        sat.grow(self.num_vars)
        sat.add_gates(self._pending, self._pending_maj)
        del self._pending[:]
        del self._pending_maj[:]
        self.attach_s += perf_counter() - start

    def blast_bv(self, term: Term) -> list[int]:
        if term.op == "const":
            return [self._const(bool((term.value >> i) & 1))
                    for i in range(term.width)]
        if term not in self._memo:
            self._lower(term)
        return list(self._memo[term])

    def blast_bool(self, term: Term) -> int:
        if term.op == "const":
            return self._const(bool(term.value))
        if term not in self._memo:
            self._lower(term)
        return self._memo[term]

    def _lower_bv(self, term: Term) -> list[int]:
        op = term.op
        w = term.width
        if op == "var":
            # keyed by the interned term, so by name and width together
            return [self._new_var() for _ in range(w)]
        if op in ("add", "sub"):
            a = self.blast_bv(term.args[0])
            b = self.blast_bv(term.args[1])
            if op == "add":
                return self._adder(a, b, self._const(False))
            return self._adder(a, [-x for x in b], TRUE_LIT)
        if op == "mul":
            lhs, rhs = term.args
            if rhs.is_const:
                return self._mul(self.blast_bv(lhs), rhs)
            if lhs.is_const:
                return self._mul(self.blast_bv(rhs), lhs)
            raise UnsupportedTermError("symbolic*symbolic multiplication")
        if op in ("udiv", "urem"):
            raise UnsupportedTermError(f"{op} with symbolic divisor")
        if op == "and":
            a, b = map(self.blast_bv, term.args)
            return [self.g_and(x, y) for x, y in zip(a, b)]
        if op == "or":
            a, b = map(self.blast_bv, term.args)
            return [self.g_or(x, y) for x, y in zip(a, b)]
        if op == "xor":
            a, b = map(self.blast_bv, term.args)
            return [self.g_xor(x, y) for x, y in zip(a, b)]
        if op in ("shl", "shr"):
            a = self.blast_bv(term.args[0])
            amount = term.args[1]
            if amount.is_const:
                return self._shift_const(a, amount.value, op == "shl")
            return self._barrel_shift(a, self.blast_bv(amount), op == "shl")
        if op == "ite":
            c = self.blast_bool(term.args[0])
            a = self.blast_bv(term.args[1])
            b = self.blast_bv(term.args[2])
            return [self.g_mux(c, x, y) for x, y in zip(a, b)]
        raise UnsupportedTermError(f"bitvector op {op!r}")

    def _lower_bool(self, term: Term) -> int:
        op = term.op
        if op == "eq":
            a, b = map(self.blast_bv, term.args)
            return self.g_and_many([-self.g_xor(x, y) for x, y in zip(a, b)])
        if op == "ult":
            a, b = map(self.blast_bv, term.args)
            return self._ult(a, b)
        if op == "bnot":
            return -self.blast_bool(term.args[0])
        if op == "band":
            return self.g_and_many([self.blast_bool(a) for a in term.args])
        raise UnsupportedTermError(f"boolean op {op!r}")

    # -- queries --------------------------------------------------------------

    def assert_true(self, term: Term) -> int:
        """The assumption literal that asserts a root, lowering it if need be."""
        return self.blast_bool(term)

    def variables(self, roots: Iterable[Term]) -> list[Term]:
        """The variables in the roots' cone, each once, in the order a walk
        of the cone first reaches them: the roots in turn, each node's
        arguments in order, depth first."""
        out: list[Term] = []
        seen: set[int] = set()
        for root in roots:
            for v in self.cone(root):
                if id(v) not in seen:
                    seen.add(id(v))
                    out.append(v)
        return out

    def cone(self, root: Term) -> tuple[Term, ...]:
        """The variables in one root's cone, in the order of
        :meth:`variables`; walked once per root."""
        found = self._cone_vars.get(root)
        if found is None:
            found = self._cone_vars[root] = self._walk(root)
        return found

    @staticmethod
    def _walk(root: Term) -> tuple[Term, ...]:
        out: list[Term] = []
        seen: set[int] = set()
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.op == "var":
                out.append(t)
            else:
                stack.extend(reversed(t.args))
        return tuple(out)

    def input_bits(self, variables: Iterable[Term]) -> list[int]:
        """The CNF variables of ``variables``' bits, each LSB first."""
        memo = self._memo
        return [bit for v in variables for bit in memo[v]]

    def var_value(self, var: Term) -> int:
        """The value of a lowered variable in the instance's current model,
        an unassigned bit read as 0."""
        assign = self.sat.assign
        value = 0
        for i, bit in enumerate(self._memo[var]):
            if assign[bit] == 1:
                value |= 1 << i
        return value
