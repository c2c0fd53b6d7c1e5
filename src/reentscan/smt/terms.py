"""Immutable fixed-width bitvector and boolean terms with constant folding.

Terms are hash-consed: every term is interned in a weak table keyed by its
operator, width, value, name and (already interned) arguments, so two terms
built the same way are the same object. Equality is identity, hashing reads a
stored structural hash, and each node memoizes a Merkle digest of its
structure. The rest of the analyzer relies on this for memoization (storage
reads, hash summaries, solver answers) and for cheap equality of path
conditions, also on DAG-shaped terms whose tree unfolding is exponential.

Shifts and masks by constants are kept in a small normal form. ``shr`` by a
constant folds a right shift into one shift (0 at or past the width), a
left shift by the same amount into a mask, and distributes over and/or/xor
when every operand folds so, which never makes the term larger; ``bv_and``
merges nested constant masks. So an ABI dispatcher's ``calldata[0] >> 224``
(``udiv`` by ``2**224`` is that ``shr``) is the selector constant when the
selector is fixed, and ``function_id & 0xffffffff`` when it is open.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Iterable, Mapping

BOOL = 0  # sentinel width for boolean terms


def mask(width: int) -> int:
    return (1 << width) - 1


# (op, width, value, name, args) -> the one live term with that structure
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Term:
    """One interned term node; build terms with the constructors below.

    ``_hash`` derives from the child hashes, so it is structural (but follows
    ``str`` hashing, which differs between processes). ``digest`` is a sha256
    Merkle hash of the node header and the child digests, the same in every
    process; it names memo symbols that end up in reports.
    """

    __slots__ = ("op", "width", "args", "value", "name", "_hash", "_digest",
                 "__weakref__")

    def __new__(cls, op: str, width: int, args: tuple["Term", ...] = (),
                value: int | None = None, name: str | None = None) -> "Term":
        key = (op, width, value, name, args)
        t = _INTERNED.get(key)
        if t is None:
            t = object.__new__(cls)
            t.op = op
            t.width = width
            t.args = args
            t.value = value
            t.name = name
            t._hash = hash((op, width, value, name,
                            tuple(a._hash for a in args)))
            t._digest = None
            _INTERNED[key] = t
        return t

    def __reduce__(self):
        # rebuilt through the table (and its hash recomputed) on unpickling
        return Term, (self.op, self.width, self.args, self.value, self.name)

    def __deepcopy__(self, memo: dict) -> "Term":
        return self  # immutable; also keeps deep terms off the copy recursion

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def is_bool(self) -> bool:
        return self.width == BOOL

    def digest(self) -> str:
        """Stable 10-character hex digest of the term structure (for memo
        symbol names).

        Each node's sha256 covers its header ``op:width:value:name;`` and the
        32-byte digests of its arguments, computed once per node, bottom-up
        without recursion.
        """
        if self._digest is None:
            stack: list[Term] = [self]
            while stack:
                t = stack[-1]
                pending = [a for a in t.args if a._digest is None]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                if t._digest is None:
                    h = hashlib.sha256(
                        f"{t.op}:{t.width}:{t.value}:{t.name};".encode())
                    for a in t.args:
                        h.update(a._digest)
                    t._digest = h.digest()
        return self._digest.hex()[:10]

    def __repr__(self) -> str:
        if self.op == "const":
            if self.width == BOOL:
                return "true" if self.value else "false"
            return hex(self.value)  # type: ignore[arg-type]
        if self.op == "var":
            return f"{self.name}"
        return f"({self.op} {' '.join(map(repr, self.args))})"


# -- bitvector constructors ---------------------------------------------------

def const(value: int, width: int = 256) -> Term:
    return Term("const", width, value=value & mask(width))


def var(name: str, width: int = 256) -> Term:
    return Term("var", width, name=name)


def _check_bv(*terms: Term) -> int:
    width = terms[0].width
    for t in terms:
        if t.width != width or t.width == BOOL:
            raise ValueError(f"width mismatch: {[x.width for x in terms]}")
    return width


def bv_add(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value + b.value, w)
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    # a constant added to base + constant is one offset from that base, so
    # eq sees (x + 1) + 2 as x + 3; no other add is reordered, since slot
    # symbols are named by term digests
    for k, t in ((a, b), (b, a)):
        if k.is_const and t.op == "add":
            x, y = t.args
            if y.is_const:
                return bv_add(x, const(y.value + k.value, w))
            if x.is_const:
                return bv_add(const(x.value + k.value, w), y)
    return Term("add", w, (a, b))


def bv_sub(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value - b.value, w)
    if b.is_const and b.value == 0:
        return a
    if a == b:
        return const(0, w)
    return Term("sub", w, (a, b))


def bv_mul(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value * b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, w)
            if x.value == 1:
                return y
    return Term("mul", w, (a, b))


def udiv(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if b.is_const:
        if b.value == 0:
            return const(0, w)  # EVM convention
        if b.value == 1:
            return a
        if b.value & (b.value - 1) == 0:
            return shr(a, const(b.value.bit_length() - 1, w))
        if a.is_const:
            return const(a.value // b.value, w)
    return Term("udiv", w, (a, b))


def urem(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if b.is_const:
        if b.value == 0:
            return const(0, w)  # EVM convention
        if b.value & (b.value - 1) == 0:
            return bv_and(a, const(b.value - 1, w))
        if a.is_const:
            return const(a.value % b.value, w)
    return Term("urem", w, (a, b))


def bv_and(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value & b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, w)
            if x.value == mask(w):
                return y
            # nested masks are one mask: (t & c) & x is t & (c & x)
            if y.op == "and":
                for c, t in (y.args, y.args[::-1]):
                    if c.is_const:
                        return bv_and(t, const(c.value & x.value, w))
    if a == b:
        return a
    return Term("and", w, (a, b))


def bv_or(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value | b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == mask(w):
                return const(mask(w), w)
    if a == b:
        return a
    return Term("or", w, (a, b))


def bv_xor(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return const(a.value ^ b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.value == 0:
            return y
    if a == b:
        return const(0, w)
    return Term("xor", w, (a, b))


_BITWISE = {"and": bv_and, "or": bv_or, "xor": bv_xor}


def bv_not(a: Term) -> Term:
    if a.is_const:
        return const(~a.value, a.width)
    return Term("not", a.width, (a,))


def shl(a: Term, amount: Term) -> Term:
    w = _check_bv(a, amount)
    if amount.is_const:
        if amount.value == 0:
            return a
        if amount.value >= w:
            return const(0, w)
        if a.is_const:
            return const(a.value << amount.value, w)
    return Term("shl", w, (a, amount))


def _shift_down(a: Term, k: int) -> Term | None:
    """``a >> k`` for ``0 < k < width``, where it needs no new shr node:
    a constant shifted, two right shifts as one (0 at or past the width),
    and a left shift undone by the same amount as a mask. None for any
    other ``a``."""
    w = a.width
    if a.is_const:
        return const(a.value >> k, w)
    if a.op in ("shl", "shr") and a.args[1].is_const:
        x, j = a.args[0], a.args[1].value
        if a.op == "shr":
            return shr(x, const(min(j + k, w), w))
        if j == k:
            return bv_and(x, const(mask(w - k), w))
    return None


def shr(a: Term, amount: Term) -> Term:
    w = _check_bv(a, amount)
    if amount.is_const:
        k = amount.value
        if k == 0:
            return a
        if k >= w:
            return const(0, w)
        down = _shift_down(a, k)
        if down is not None:
            return down
        # distributed over a bitwise op only where each operand folds, so
        # the result is never larger: the ABI selector word
        # (sel << 224) | (arg0 >> 32) shifted down by 224 is sel & 0xffffffff
        if a.op in _BITWISE:
            parts = [_shift_down(x, k) for x in a.args]
            if None not in parts:
                return _BITWISE[a.op](*parts)
    return Term("shr", w, (a, amount))


def ite(cond: Term, then: Term, other: Term) -> Term:
    if not cond.is_bool:
        raise ValueError("ite condition must be boolean")
    _check_bv(then, other)
    if cond.is_const:
        return then if cond.value else other
    if then == other:
        return then
    return Term("ite", then.width, (cond, then, other))


# -- boolean constructors -----------------------------------------------------

TRUE = Term("const", BOOL, value=1)
FALSE = Term("const", BOOL, value=0)


def _bool_const(v: bool) -> Term:
    return TRUE if v else FALSE


def _base_offset(t: Term) -> tuple[Term, int]:
    """``t`` as a base plus a constant offset: an add with a constant
    operand has that offset, any other term is its own base at 0."""
    if t.op == "add":
        x, y = t.args
        if y.is_const:
            return x, y.value
        if x.is_const:
            return y, x.value
    return t, 0


def eq(a: Term, b: Term) -> Term:
    _check_bv(a, b)
    if a.is_const and b.is_const:
        return _bool_const(a.value == b.value)
    if a == b:
        return TRUE
    # base + j == base + k holds just when j == k (mod 2^w): two slots at
    # different offsets from one base never alias
    base_a, off_a = _base_offset(a)
    base_b, off_b = _base_offset(b)
    if base_a is base_b:
        return _bool_const(off_a == off_b)
    # normalize: constant on the right
    if a.is_const:
        a, b = b, a
    # eq(ite(c, 1, 0), k) collapses back to the condition
    if a.op == "ite" and a.args[1].is_const and a.args[2].is_const and b.is_const:
        cond, x, y = a.args
        hits = [x.value == b.value, y.value == b.value]
        if hits == [True, False]:
            return cond
        if hits == [False, True]:
            return bnot(cond)
        if hits == [True, True]:
            return TRUE
        return FALSE
    return Term("eq", BOOL, (a, b))


def ult(a: Term, b: Term) -> Term:
    w = _check_bv(a, b)
    if a.is_const and b.is_const:
        return _bool_const(a.value < b.value)
    if b.is_const and b.value == 0:
        return FALSE
    if a.is_const and a.value == mask(w):
        return FALSE
    if a == b:
        return FALSE
    return Term("ult", BOOL, (a, b))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def ule(a: Term, b: Term) -> Term:
    return bnot(ult(b, a))


def uge(a: Term, b: Term) -> Term:
    return bnot(ult(a, b))


def _flip_sign(a: Term) -> Term:
    return bv_xor(a, const(1 << (a.width - 1), a.width))


def slt(a: Term, b: Term) -> Term:
    return ult(_flip_sign(a), _flip_sign(b))


def sgt(a: Term, b: Term) -> Term:
    return slt(b, a)


def bnot(a: Term) -> Term:
    if not a.is_bool:
        raise ValueError("bnot expects a boolean")
    if a.is_const:
        return _bool_const(not a.value)
    if a.op == "bnot":
        return a.args[0]
    return Term("bnot", BOOL, (a,))


def band(terms: Iterable[Term]) -> Term:
    """The conjunction of ``terms``: conjuncts flattened in order, each
    once, true ones dropped, and ``FALSE`` as soon as one is false or one
    is the negation of another. Terms are interned, so ``band([t]) is t``
    for any boolean ``t``."""
    # each conjunct's atom, the conjunct less an outer bnot, to the
    # conjunct: its one polarity, since the other makes the whole FALSE
    seen: dict[Term, Term] = {}
    for t in terms:
        if not t.is_bool:
            raise ValueError("band expects booleans")
        items = t.args if t.op == "band" else (t,)
        for item in items:
            if item.is_const:
                if not item.value:
                    return FALSE
                continue
            atom = item.args[0] if item.op == "bnot" else item
            if seen.setdefault(atom, item) is not item:
                return FALSE
    if not seen:
        return TRUE
    flat = tuple(seen.values())
    return flat[0] if len(flat) == 1 else Term("band", BOOL, flat)


def conjuncts(t: Term) -> tuple[Term, ...]:
    """The conjuncts of a term that :func:`band` built: none for ``TRUE``."""
    if t.op == "band":
        return t.args
    return () if t is TRUE else (t,)


def bor(terms: Iterable[Term]) -> Term:
    flat: list[Term] = []
    seen: set[Term] = set()
    for t in terms:
        if not t.is_bool:
            raise ValueError("bor expects booleans")
        items = t.args if t.op == "bor" else (t,)
        for item in items:
            if item.is_const:
                if item.value:
                    return TRUE
                continue
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Term("bor", BOOL, tuple(flat))


def truthy(a: Term) -> Term:
    """Boolean "word is nonzero" condition."""
    return bnot(eq(a, const(0, a.width)))


def bool_to_word(cond: Term, width: int = 256) -> Term:
    return ite(cond, const(1, width), const(0, width))


# -- concrete evaluation ------------------------------------------------------

def evaluate(term: Term, env: Mapping[str, int] | None = None,
             memo: dict[Term, int] | None = None) -> int:
    """Evaluate a term to a concrete int (booleans yield 0/1).

    Unbound variables default to 0, matching model extraction where the solver
    left them unconstrained. ``memo`` holds values of terms under the same
    ``env``; it is read and extended, so calls that share it evaluate each
    subterm once.
    """
    env = env or {}
    if memo is None:
        memo = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if t in memo:
            continue
        if not ready:
            stack.append((t, True))
            stack.extend((a, False) for a in t.args)
            continue
        a = [memo[x] for x in t.args]
        w = t.width
        m = mask(w) if w else 1
        op = t.op
        if op == "const":
            r = t.value  # type: ignore[assignment]
        elif op == "var":
            r = env.get(t.name, 0) & m  # type: ignore[arg-type]
        elif op == "add":
            r = (a[0] + a[1]) & m
        elif op == "sub":
            r = (a[0] - a[1]) & m
        elif op == "mul":
            r = (a[0] * a[1]) & m
        elif op == "udiv":
            r = a[0] // a[1] if a[1] else 0
        elif op == "urem":
            r = a[0] % a[1] if a[1] else 0
        elif op == "and":
            r = a[0] & a[1]
        elif op == "or":
            r = a[0] | a[1]
        elif op == "xor":
            r = a[0] ^ a[1]
        elif op == "not":
            r = ~a[0] & m
        elif op == "shl":
            r = (a[0] << a[1]) & m if a[1] < w else 0
        elif op == "shr":
            r = a[0] >> a[1] if a[1] < w else 0
        elif op == "ite":
            r = a[1] if a[0] else a[2]
        elif op == "eq":
            r = int(a[0] == a[1])
        elif op == "ult":
            r = int(a[0] < a[1])
        elif op == "bnot":
            r = int(not a[0])
        elif op == "band":
            r = int(all(a))
        elif op == "bor":
            r = int(any(a))
        else:
            raise ValueError(f"cannot evaluate op {op!r}")
        memo[t] = r
    return memo[term]
