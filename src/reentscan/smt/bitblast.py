"""Tseitin encoding of bitvector terms onto the CDCL SAT backend.

A :class:`BitBlaster` is a gate store. The :class:`~reentscan.smt.solver.Solver`
owns one, so there is one per contract. The store lowers each term once:
it numbers CNF variables itself, and its And/Xor gate cache and term memos
last as long as it does. Lowering a node records, in call order, every gate
the node's own lowering touched (created, or found in the cache) together
with the operands of that call; a variable's bits are its record.

:meth:`BitBlaster.load` builds each query's :class:`SatSolver` from the cone
of the query's roots only. It walks the cone in the order lowering visits
arguments, so children come before the node's own gates. It numbers each
store variable on first touch, emits each gate's clauses with the operands
of the call that touched it first, and emits each root's unit clause right
after that root. That is exactly the CNF a fresh store would lower from
those roots alone: the same numbering, and the same clauses with the same
literals in the same order. So what earlier queries lowered never shows in
a query's search, model or witness.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .sat import SatSolver
from .terms import Term

TRUE_LIT = 1  # variable 1 is constant true, in the store and in every query
_LOW = 0xFFFFFFFF  # the low half of a gate-cache key


class UnsupportedTermError(Exception):
    """The term uses an operation outside the supported bitvector fragment."""


class BitBlaster:
    """Lowers Terms to gates once; loads per-query CNF from their cones.

    Bitvectors become LSB-first literal lists. A node's record is a flat
    ``array("i")`` of ``(a, b, out)`` triples, one per gate touch, with
    ``out`` negated for an Xor gate.
    """

    def __init__(self) -> None:
        self.num_vars = TRUE_LIT
        # node -> its literal, or its bits LSB first; a variable's are its own
        self._memo: dict[Term, int | array] = {}
        self._records: dict[Term, array] = {}  # nodes that touched gates
        self._and_gates: dict[int, int] = {}
        self._xor_gates: dict[int, int] = {}
        self._touches = array("i")  # record of the node being lowered
        # the query loaded last: store variable -> query variable (0: untouched)
        self._qvar: list[int] = [0, TRUE_LIT]
        self._seen: set[Term] = set()
        self._clauses: list[list[int]] = []
        self._query_vars = TRUE_LIT

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
        self._touches.extend((a, b, o))
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
        self._touches.extend((a, b, -o))
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
        return self.g_or(self.g_and(a, b), self.g_and(c, self.g_xor(a, b)))

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
        lt = self._const(False)
        for ai, bi in zip(a, b):  # LSB to MSB
            eq_bit = -self.g_xor(ai, bi)
            lt = self.g_or(self.g_and(-ai, bi), self.g_and(eq_bit, lt))
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
        """Lower every node under ``root`` not lowered yet, children first.

        An explicit stack, so term depth is not bound by Python's recursion
        limit; each node's lowering then finds its children in the memo,
        and its record holds just the gates it touches itself. A node that
        fails to lower leaves no memo entry and no record.
        """
        memo = self._memo
        stack = [root]
        while stack:
            term = stack[-1]
            if term in memo:
                stack.pop()
                continue
            pending = [a for a in term.args if a.op != "const" and a not in memo]
            if pending:
                stack.extend(pending)
                continue
            self._touches = record = array("i")
            if term.is_bool:
                memo[term] = self._lower_bool(term)
            else:
                memo[term] = array("i", self._lower_bv(term))
            if record:
                self._records[term] = record
            stack.pop()

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
        if op == "not":
            return [-x for x in self.blast_bv(term.args[0])]
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
        if op == "bor":
            return self.g_or_many([self.blast_bool(a) for a in term.args])
        raise UnsupportedTermError(f"boolean op {op!r}")

    # -- per-query CNF --------------------------------------------------------

    def load(self, roots: Iterable[Term]) -> SatSolver:
        """A fresh solver holding the CNF of the roots' cone, roots asserted.

        Raises :class:`UnsupportedTermError` if a root cannot be lowered; the
        store stays usable for the next query.
        """
        self._qvar = [0, TRUE_LIT]
        self._seen = set()
        self._clauses = [[TRUE_LIT]]
        self._query_vars = TRUE_LIT
        for root in roots:
            self.assert_true(root)
        return SatSolver.load(self._query_vars, self._clauses)

    def assert_true(self, term: Term) -> None:
        """Lower one root and add its cone and its unit clause to the query."""
        lit = self.blast_bool(term)
        qvar = self._qvar
        qvar.extend([0] * (self.num_vars + 1 - len(qvar)))
        seen = self._seen
        if term not in seen:
            seen.add(term)
            # children first, in argument order, as a fresh lowering visits them
            stack = [(term, iter(term.args))]
            while stack:
                node, args = stack[-1]
                for arg in args:
                    if arg not in seen and arg.op != "const":
                        seen.add(arg)
                        stack.append((arg, iter(arg.args)))
                        break
                else:
                    stack.pop()
                    self._emit(node)
        self._clauses.append([qvar[lit] if lit > 0 else -qvar[-lit]])

    def _emit(self, term: Term) -> None:
        """Number the store variables ``term`` touches first in this query
        and add the clauses of the gates among them."""
        qvar = self._qvar
        n = self._query_vars
        if term.op == "var":
            for v in self._memo[term]:
                n += 1
                qvar[v] = n
            self._query_vars = n
            return
        record = self._records.get(term)
        if record is None:
            return
        out = self._clauses
        it = iter(record)
        for a, b, o in zip(it, it, it):
            g = o if o > 0 else -o
            if qvar[g]:
                continue
            n += 1
            qvar[g] = n
            a = qvar[a] if a > 0 else -qvar[-a]
            b = qvar[b] if b > 0 else -qvar[-b]
            if o > 0:
                out.append([-a, -b, n])
                out.append([a, -n])
                out.append([b, -n])
            else:
                out.append([-a, -b, -n])
                out.append([a, b, -n])
                out.append([-a, b, n])
                out.append([a, -b, n])
        self._query_vars = n

    def var_value(self, sat: SatSolver, var: Term) -> int:
        """The value of a variable in ``sat``'s model; ``sat`` must be the
        solver of the query loaded last. A variable outside it reads 0."""
        bits = self._memo.get(var)
        if bits is None:
            return 0
        qvar = self._qvar
        value = 0
        for i, v in enumerate(bits):
            if qvar[v] and sat.model_value(qvar[v]):
                value |= 1 << i
        return value
