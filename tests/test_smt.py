"""Solver stack: constant folding, SAT core, bit-blasting, equivalence.

The main oracle is exhaustive enumeration at width 8: random constraint sets
over two variables are decided both by brute force and by the solver.
"""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reentscan import verifier
from reentscan.evm_core import Bytecode
from reentscan.smt import (
    IndeterminateEquivalence,
    Solver,
    SolverStatus,
    SolverVerdict,
    UnsupportedTermError,
    band,
    bnot,
    bor,
    bv_add,
    bv_and,
    bv_mul,
    bv_not,
    bv_or,
    bv_sub,
    bv_xor,
    const,
    eq,
    evaluate,
    ite,
    shl,
    shr,
    slt,
    udiv,
    ule,
    ult,
    urem,
    var,
)
from reentscan.smt import solver as solver_mod
from reentscan.smt import terms
from reentscan.smt import sat as sat_mod
from reentscan.smt.bitblast import BitBlaster
from reentscan.smt.sat import SatSolver
from reentscan.smt.solver import RECENT_MODELS
from reentscan.smt.terms import TRUE, FALSE, conjuncts, truthy

ROOT = Path(__file__).resolve().parent.parent

WORD_EDGES = [0, 1, 2, (1 << 255) - 1, 1 << 255, (1 << 256) - 2, (1 << 256) - 1]


# -- constant folding vs bigint semantics -------------------------------------

@pytest.mark.parametrize("a", WORD_EDGES)
@pytest.mark.parametrize("b", WORD_EDGES)
def test_folding_matches_bigints(a, b):
    m = (1 << 256) - 1
    ca, cb = const(a), const(b)
    assert bv_add(ca, cb).value == (a + b) & m
    assert bv_sub(ca, cb).value == (a - b) & m
    assert bv_mul(ca, cb).value == (a * b) & m
    assert udiv(ca, cb).value == (a // b if b else 0)
    assert urem(ca, cb).value == (a % b if b else 0)
    assert bv_and(ca, cb).value == a & b
    assert bv_or(ca, cb).value == a | b
    assert bv_xor(ca, cb).value == a ^ b
    assert eq(ca, cb) is (TRUE if a == b else FALSE)
    assert ult(ca, cb) is (TRUE if a < b else FALSE)


@given(st.integers(0, (1 << 256) - 1), st.integers(0, 300))
def test_shift_folding(a, s):
    m = (1 << 256) - 1
    assert shl(const(a), const(s)).value == ((a << s) & m if s < 256 else 0)
    assert shr(const(a), const(s)).value == (a >> s if s < 256 else 0)


# -- the shift/mask normal form -----------------------------------------------

def _shift_mask_terms(width: int):
    """Terms over x and y of ``width`` bits in the shapes the normal form
    rewrites: shifts by constants, and/or/xor of them and of constants, and
    nested constant masks, with constants on either side."""
    # few amounts, so equal and summing-past-the-width ones come up often
    amounts = st.sampled_from([0, 1, 3, width // 2, width - 1, width])
    consts = st.integers(0, (1 << width) - 1).map(lambda v: ("const", v))
    leaves = st.sampled_from([("var", "x"), ("var", "y")]) | consts
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.sampled_from(["shl", "shr"]), inner, amounts),
        st.tuples(st.sampled_from(["and", "or", "xor"]), inner, inner),
        st.tuples(st.just("and"), inner, consts),
        st.tuples(st.just("and"), consts, inner)), max_leaves=6)


_FOLDING = {"shl": shl, "shr": shr, "and": bv_and, "or": bv_or, "xor": bv_xor}


def _build(shape, width: int, folded: bool):
    """``shape`` through the folding constructors, or as raw ``Term`` nodes
    with no rewrite at all."""
    kind, *rest = shape
    if kind == "var":
        return var(rest[0], width)
    if kind == "const":
        return const(rest[0], width)
    a = _build(rest[0], width, folded)
    b = (const(rest[1], width) if isinstance(rest[1], int)
         else _build(rest[1], width, folded))
    if folded:
        return _FOLDING[kind](a, b)
    return terms.Term(kind, width, (a, b))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 16]).flatmap(
    lambda w: st.tuples(st.just(w), _shift_mask_terms(w),
                        st.integers(0, (1 << w) - 1),
                        st.integers(0, (1 << w) - 1))))
def test_shift_mask_rewrites_keep_the_value(case):
    width, shape, x, y = case
    folded, raw = _build(shape, width, True), _build(shape, width, False)
    env = {"x": x, "y": y}
    assert evaluate(folded, env) == evaluate(raw, env)
    assert Solver().check_sat([bnot(eq(folded, raw))]).status is \
        SolverStatus.UNSAT


def test_shift_mask_rewrites():
    x = var("x")
    low32 = bv_and(x, const(0xFFFFFFFF))
    # a right shift of a right shift is one shift, 0 at the width
    assert shr(shr(x, const(3)), const(5)) is shr(x, const(8))
    assert shr(shr(x, const(200)), const(56)) is const(0)
    # a left shift undone by the same amount is a mask
    assert shr(shl(x, const(224)), const(224)) is low32
    assert shr(shl(x, const(8)), const(4)).op == "shr"
    # nested constant masks merge, the constant on either side
    assert bv_and(const(0xFFFF), bv_and(const(0xFF00FF), x)) is \
        bv_and(x, const(0xFF))
    assert bv_and(bv_and(x, const(0xFFFFFFFFFF)), const(0xFFFFFFFF)) is low32
    # distributed only where every operand folds
    word = bv_or(shl(x, const(224)), shr(var("y"), const(32)))
    assert shr(word, const(224)) is low32
    assert shr(bv_xor(x, const(0xF0)), const(4)).op == "shr"
    assert shr(bv_and(shl(x, const(8)), const(0xFF00)), const(8)) is \
        bv_and(x, const(0xFF))


def test_division_by_zero_convention():
    x = var("x")
    assert udiv(x, const(0)).value == 0
    assert urem(x, const(0)).value == 0


def test_structural_identity():
    a = bv_add(var("x"), const(1))
    b = bv_add(var("x"), const(1))
    assert a is b and hash(a) == hash(b)
    assert a.digest() == b.digest()
    assert a != bv_add(var("y"), const(1))


# -- hash-consing and digests -------------------------------------------------

def _doubling_chain(name: str, links: int):
    x = var(name)
    for _ in range(links):
        x = bv_add(x, x)
    return x


def test_dag_terms_are_shared():
    a = _doubling_chain("x", 200)
    b = _doubling_chain("x", 200)
    assert a is b and a == b
    assert a is not _doubling_chain("x", 199)


def test_digest_hashes_each_distinct_node_once(monkeypatch):
    calls = []
    sha256 = terms.hashlib.sha256

    def counting(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(terms.hashlib, "sha256", counting)
    # a fresh name: interned nodes of earlier tests may carry digests already
    chain = _doubling_chain("digest_once", 200)
    chain.digest()
    assert len(calls) == 201  # the var and 200 add nodes
    chain.digest()
    assert len(calls) == 201
    # a 1000-deep chain of distinct nodes needs no recursion
    deep = var("digest_deep")
    for i in range(1000):
        deep = bv_xor(deep, var(f"digest_deep_{i % 7}"))
    deep.digest()
    assert len(calls) == 201 + 1 + 7 + 1000


def test_digest_tells_apart_order_and_width():
    x, y = var("x"), var("y")
    assert bv_add(x, y).digest() != bv_add(y, x).digest()
    assert var("x", 8).digest() != var("x").digest()
    assert bv_add(var("x", 8), const(1, 8)).digest() \
        != bv_add(x, const(1)).digest()


def test_digest_definition_is_pinned():
    # symbol names built from digests end up in report.json: a digest is
    # the head of a sha256 over the node's header and its arguments' sha256s
    sha = terms.hashlib.sha256
    x = sha(b"var:256:None:x;").digest()
    one = sha(b"const:256:1:None;").digest()
    assert x.hex() == (
        "6e78265c7a0391ff5f26663459c1ee3e0d712be1683f457a494b0947a992f8b0")
    assert sha(b"add:256:None:None;" + x + one).hexdigest() == (
        "7707da6ee8b4910c0d40ea4d3c067d75c96d92d11da438bdf704146401f7e757")
    assert var("x").digest() == "6e78265c7a"
    assert bv_add(var("x"), const(1)).digest() == "7707da6ee8"


def test_digests_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = """
from reentscan.smt.terms import band, bv_add, const, eq, ult, var
x = var("x")
for _ in range(30):
    x = bv_add(x, x)
c = band([eq(x, const(7)), ult(var("y"), x)])
print(x.digest(), c.digest())
"""
    outs = [subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
        for seed in ("1", "2")]
    assert outs[0] == outs[1] and len(outs[0].split()) == 2


def test_copies_and_pickles_are_the_same_term():
    t = bv_add(var("x"), const(1))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    chain = _doubling_chain("x", 200)
    assert copy.deepcopy(chain) is chain
    assert pickle.loads(pickle.dumps(chain)) is chain


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
       st.integers(0, 255))
def test_offsets_from_one_base_fold_by_their_difference(x, i, j, k):
    # base + j == base + k just when j == k mod 2^w, whatever the base is;
    # an offset added in two steps, (base + i) + (j - i), is base + j
    base = var("x", 8)
    right = bv_add(const(k, 8), base)
    for left in (bv_add(base, const(j, 8)),
                 bv_add(bv_add(base, const(i, 8)), const(j - i, 8)),
                 bv_add(const(j - i, 8), bv_add(const(i, 8), base))):
        assert eq(left, right) is (TRUE if j == k else FALSE)
        assert evaluate(eq(left, right), {"x": x}) == \
            ((x + j) % 256 == (x + k) % 256)


def test_offset_fold_needs_one_base():
    x, y = var("x"), var("y")
    assert eq(bv_add(x, const(1)), x) is FALSE
    assert eq(x, bv_add(x, const((1 << 256) - 1))) is FALSE
    # 2^256 wraps to an offset of 0, which bv_add drops
    assert eq(bv_add(x, const(1 << 256)), x) is TRUE
    # different bases, or an offset that is not a constant, stay open
    assert eq(bv_add(x, const(1)), bv_add(y, const(1))).op == "eq"
    assert eq(bv_add(x, y), x).op == "eq"
    # a constant added to an offset is one offset from the same base
    assert eq(bv_add(bv_add(x, const(1)), const(2)), bv_add(x, const(3))) is TRUE
    assert eq(bv_add(bv_add(x, const(1)), const(2)), bv_add(x, const(1))) is FALSE
    assert bv_add(bv_add(x, const(1)), const(2)) is bv_add(x, const(3))


def test_boolean_simplifications():
    x = var("x")
    assert bnot(bnot(truthy(x))) == truthy(x)
    assert band([TRUE, truthy(x), truthy(x)]) == truthy(x)
    assert band([FALSE, truthy(x)]) is FALSE
    assert eq(ite(ult(x, const(5)), const(1), const(0)), const(1)) == ult(x, const(5))
    assert bv_not(bv_not(const(7))).value == 7


# -- conjunctions -------------------------------------------------------------

@given(st.lists(st.integers(0, 50), max_size=8))
def test_conjunction_grows_monotonically(values):
    pc = TRUE
    seen: list = []
    for v in values:
        seen.append(pc)
        pc = band((pc, ult(var("x"), const(v + 1))))
    # growing never drops a conjunct: each earlier condition is a prefix
    for snap in seen:
        before = conjuncts(snap)
        assert conjuncts(pc)[: len(before)] == before


def test_conjunction_drops_true():
    t = ult(var("x"), const(3))
    assert band((TRUE, TRUE)) is TRUE
    assert conjuncts(band((TRUE, t, TRUE))) == (t,)
    assert conjuncts(TRUE) == ()


_ATOMS = [ult(var("x"), const(3)), eq(var("y"), const(1)),
          eq(var("x"), var("y")), bnot(eq(var("x"), var("y"))), TRUE, FALSE]


@given(st.lists(st.sampled_from(_ATOMS), max_size=4),
       st.fixed_dictionaries({"x": st.integers(0, 4), "y": st.integers(0, 4)}))
@example([_ATOMS[2], _ATOMS[0], _ATOMS[3]], {"x": 1, "y": 1})
def test_conjunction_of_one_is_itself(parts, env):
    # band terms, single atoms, TRUE and FALSE alike
    t = band(parts)
    assert band([t]) is t
    # FALSE exactly when a part is, or an atom meets its negation
    contradicts = FALSE in parts or any(
        bnot(p) in parts for p in parts if not p.is_const)
    assert (t is FALSE) == contradicts
    assert evaluate(t, env) == all(evaluate(p, env) == 1 for p in parts)


@given(st.lists(st.sampled_from(_ATOMS[:4]), max_size=4), st.randoms())
def test_conjuncts_are_order_insensitive_as_a_set(parts, rnd):
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    assert frozenset(conjuncts(band(parts))) == \
        frozenset(conjuncts(band(shuffled)))


# -- CDCL core ----------------------------------------------------------------

def test_pigeonhole_unsat():
    # 5 pigeons in 4 holes
    sat = SatSolver()
    holes = 4
    v = [[sat.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for p in v:
        sat.add_clause(p)
    for h in range(holes):
        for i in range(holes + 1):
            for j in range(i + 1, holes + 1):
                sat.add_clause([-v[i][h], -v[j][h]])
    assert sat.solve() is False


def test_sat_model_is_verified():
    sat = SatSolver()
    a, b, c = sat.new_var(), sat.new_var(), sat.new_var()
    sat.add_clause([a, b])
    sat.add_clause([-a, c])
    sat.add_clause([-b, -c])
    assert sat.solve() is True
    model = {x: sat.model_value(x) for x in (a, b, c)}
    assert (model[a] or model[b]) and (not model[a] or model[c]) \
        and (not model[b] or not model[c])


def test_random_cnf_against_bruteforce():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 8)
        clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(1, 25))]
        brute = any(
            all(any((assign >> (abs(l) - 1)) & 1 == (l > 0) for l in cl)
                for cl in clauses)
            for assign in range(1 << n))
        sat = SatSolver()
        for _ in range(n):
            sat.new_var()
        for cl in clauses:
            sat.add_clause(list(cl))
        assert sat.solve() is brute


class ScanCheckedSat(SatSolver):
    """Checks every decision against a scan over all variables: on the
    cursor, the order's first unassigned variable, set false; on the heap,
    the unassigned decidable variable of highest activity, first index
    first."""

    def _decide(self) -> int:
        if self.cursor is not None:
            first = next((v for v in self.order if self.assign[v] == 0), 0)
            expected = -first
        else:
            free = [v for v in range(1, self.num_vars + 1)
                    if self.decidable[v] and self.assign[v] == 0]
            expected = max(free, key=lambda v: (self.activity[v], -v), default=0)
        lit = super()._decide()
        if self.cursor is not None or expected == 0:
            assert lit == expected
        else:
            assert abs(lit) == expected
        return lit


class HandOverRecordingSat(ScanCheckedSat):
    """Records the cursor and the decision count at the hand-over to the heap."""

    handover = None

    def _unflatten(self) -> None:
        self.handover = (self.cursor, self.decisions)
        super()._unflatten()


def _load(solver, n, clauses):
    for _ in range(n):
        solver.new_var()
    for cl in clauses:
        solver.add_clause(list(cl))
    return solver


def _pigeonhole(pigeons, holes):
    v = [[p * holes + h + 1 for h in range(holes)] for p in range(pigeons)]
    clauses = list(v)
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                clauses.append([-v[i][h], -v[j][h]])
    return pigeons * holes, clauses


def _random_3sat(rng, n):
    return n, [[rng.choice([-1, 1]) * x for x in rng.sample(range(1, n + 1), 3)]
               for _ in range(round(4.26 * n))]


def _satisfies(a, clauses):
    return all(any((a >> (abs(l) - 1)) & 1 == (l > 0) for l in cl)
               for cl in clauses)


def _brute(n, clauses):
    return any(_satisfies(a, clauses) for a in range(1 << n))


def test_heap_decisions_match_linear_scan():
    rng = random.Random(3)
    instances = [_pigeonhole(6, 5)] + [_random_3sat(rng, 120) for _ in range(4)]
    for n, clauses in instances:
        checked = _load(ScanCheckedSat(), n, clauses)
        result = checked.solve()
        assert checked.decisions > 0
        # more conflicts than the first restart interval (100) in one
        # search: the search restarted
        assert checked.conflicts > 100
        assert result is _load(SatSolver(), n, clauses).solve()
        if result:
            assert all(any(checked.model_value(abs(l)) == (l > 0) for l in cl)
                       for cl in clauses)
    assert _load(SatSolver(), *instances[0]).solve() is False  # 6 pigeons, 5 holes
    for _ in range(40):
        n, clauses = _random_3sat(rng, rng.randint(3, 12))
        assert _load(ScanCheckedSat(), n, clauses).solve() is _brute(n, clauses)
    # no conflict: every decision comes from the cursor
    n = 80
    clauses = [[rng.choice([-1, 1]) * x for x in rng.sample(range(1, n + 1), 3)]
               for _ in range(n)]
    flat = _load(HandOverRecordingSat(), n, clauses)
    assert flat.solve() is True
    assert flat.handover is None and flat.decisions > 0
    assert all(any(flat.model_value(abs(l)) == (l > 0) for l in cl)
               for cl in clauses)
    # the first conflict comes after the cursor passed both decided and
    # propagated variables; the scan then checks the heap's decisions
    live = _load(HandOverRecordingSat(), *_pigeonhole(6, 5))
    assert live.solve() is False
    passed, decided = live.handover
    assert 0 < decided < passed
    assert live.decisions > decided


def test_heap_stays_within_a_multiple_of_the_variables(monkeypatch):
    # a bump leaves the variable's old entry behind, and a heap past twice
    # the variable count is rebuilt; entries pushed back on backtracking,
    # one per variable at most, bring the bound to three times
    peak = Counter()

    def watched(method):
        def wrapper(self, var):
            method(self, var)
            peak[self] = max(peak[self], len(self.heap))
        return wrapper

    for name in ("_bump", "_heap_insert"):
        monkeypatch.setattr(SatSolver, name, watched(getattr(SatSolver, name)))
    pigeons = _load(SatSolver(), *_pigeonhole(8, 7))
    assert pigeons.solve() is False and pigeons.conflicts > 1000
    # stale entries were kept: more entries than variables at the peak
    assert pigeons.num_vars < peak[pigeons] <= 3 * pigeons.num_vars
    x, y = var("x"), var("y")
    solver = Solver()
    # (x - y) + y = x: the sum's bits say little until y's are decided;
    # with y nonzero as well, the search runs well past its first restart
    assert solver.check_sat([ult(const(0), bv_add(bv_sub(x, y), y)),
                             ult(const(0), y)]).is_sat
    sat = solver._blaster.sat
    assert sat.conflicts > 100
    assert 0 < peak[sat] <= 3 * sat.num_vars


def test_one_instance_solves_many_queries_under_assumptions():
    # one instance, many queries: each is the clauses plus its assumptions,
    # decided over a random order of all variables, learnt clauses kept
    rng = random.Random(9)
    for _ in range(30):
        n, clauses = _random_3sat(rng, rng.randint(4, 10))
        sat = _load(ScanCheckedSat(), n, clauses)
        for _ in range(8):
            assumptions = [rng.choice([-1, 1]) * v
                           for v in rng.sample(range(1, n + 1), rng.randint(0, 3))]
            order = rng.sample(range(1, n + 1), n)
            expected = _brute(n, clauses + [[lit] for lit in assumptions])
            assert sat.solve(assumptions, order) is expected
            if expected:
                model = sum(1 << (v - 1) for v in range(1, n + 1)
                            if sat.model_value(v))
                assert _satisfies(model, clauses + [[a] for a in assumptions])
        assert sat.ok or not _brute(n, clauses)  # UNSAT under assumptions only


def test_conflict_free_solve_gives_the_least_model():
    # read over the order with its first variable highest, the model of a
    # solve without a conflict is the least model: after a solve that
    # conflicted, solving again until a solve meets none reaches it
    rng = random.Random(4)
    checked = resolved = 0
    for _ in range(150):
        n = rng.randint(3, 9)
        clauses = [[rng.choice([-1, 1]) * x for x in rng.sample(range(1, n + 1), 3)]
                   for _ in range(rng.randint(1, 3 * n))]
        order = rng.sample(range(1, n + 1), n)

        def rank(a):  # a's bits, read over the order
            return [(a >> (v - 1)) & 1 for v in order]

        models = [a for a in range(1 << n) if _satisfies(a, clauses)]
        sat = _load(SatSolver(), n, clauses)
        conflicts = sat.conflicts
        result = sat.solve((), order)
        assert result is bool(models)
        if not result:
            continue
        resolved += sat.conflicts != conflicts
        while sat.conflicts != conflicts:
            conflicts = sat.conflicts
            assert sat.solve((), order) is True
        got = sum(1 << (v - 1) for v in range(1, n + 1) if sat.model_value(v))
        assert rank(got) == min(map(rank, models))
        checked += 1
    assert checked > 50 and resolved > 0


@st.composite
def _gates(draw):
    """Two batches of gates over the inputs and the gates before them, as
    the gate store makes them: And/Xor triples and Maj quadruples, drawn
    mixed, with operands of distinct variables and each output new. Between
    them, variables of the first batch fixed at level 0."""
    n = draw(st.integers(4, 7))
    batches = []
    for _ in range(2):
        triples, quads = [], []
        for _ in range(draw(st.integers(0, 6))):
            maj = draw(st.booleans())
            operands = draw(st.lists(st.integers(2, n), min_size=2 + maj,
                                     max_size=2 + maj, unique=True))
            operands = [v * draw(st.sampled_from([1, -1])) for v in operands]
            n += 1
            if maj:
                quads += [*operands, n]
            else:
                triples += [*operands, n * draw(st.sampled_from([1, -1]))]
        batches.append((triples, quads))
        if len(batches) == 1:
            units = draw(st.lists(st.integers(2, n), max_size=3, unique=True))
            units = [v * draw(st.sampled_from([1, -1])) for v in units]
    return n, batches[0], units, batches[1]


def _solver_state(sat):
    return (sat.num_vars, sat.clauses, sat.watches, sat.binaries,
            sat.ternaries, sat.num_binaries, sat.trail, sat.assign, sat.level,
            sat.reason, sat.phase, sat.heap, sat.in_heap, sat.ok)


@settings(max_examples=300, deadline=None)
@given(_gates())
# an And over an input fixed true; an Xor fixed, then an And over it; a Maj
# over an input fixed false; a Maj over an And of its batch, then a Maj over
# an input fixed true
@example((4, ([], []), [2], ([2, 3, 4], [])))
@example((5, ([2, -3, -4], []), [-4], ([4, 2, 5], [])))
@example((5, ([], []), [-3], ([], [2, 3, -4, 5])))
@example((7, ([2, 3, 5], [5, -4, 2, 6]), [3], ([], [6, 3, -4, 7])))
def test_add_gates_matches_clause_by_clause_construction(gates):
    # attaching gates leaves the instance as adding their Tseitin clauses
    # one by one does, And/Xor gates first, before and after a solve
    n, first, units, second = gates
    built, bulk = SatSolver(), SatSolver()
    for sat in (built, bulk):
        sat.grow(n)
        sat.add_clause([1])
    for batch in (first, units, second):
        if batch is units:
            for sat in (built, bulk):
                for unit in units:
                    sat.add_clause([unit])
            continue
        triples, quads = batch
        it = iter(triples)
        for a, b, o in zip(it, it, it):
            clauses = [[-a, -b, o], [a, -o], [b, -o]] if o > 0 else \
                [[-a, -b, o], [a, b, o], [-a, b, -o], [a, -b, -o]]
            for lits in clauses:
                built.add_clause(lits)
        it = iter(quads)
        for a, b, c, o in zip(it, it, it, it):
            for lits in ([-a, -b, o], [-a, -c, o], [-b, -c, o],
                         [a, b, -o], [a, c, -o], [b, c, -o]):
                built.add_clause(lits)
        bulk.add_gates(triples, quads)
        assert _solver_state(bulk) == _solver_state(built)
    assert bulk.solve() is built.solve()
    assert _solver_state(bulk) == _solver_state(built)


class MethodCallSat(SatSolver):
    """Propagates through :meth:`_value` and :meth:`_enqueue` calls, as the
    kernel did before they were inlined into :meth:`SatSolver._propagate`."""

    def _propagate(self):
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            li = sat_mod._index(lit)
            for other in self.binaries[li]:
                if not self._enqueue(other, ~sat_mod._index(-lit)):
                    return [other, -lit]
            pairs = self.ternaries[li]
            for k in range(0, len(pairs), 2):
                p, q = pairs[k], pairs[k + 1]
                if self._value(p) == 1 or self._value(q) == 1:
                    continue
                if self._value(q) == -1:
                    implied, why = p, sat_mod._index(q)
                elif self._value(p) == -1:
                    implied, why = q, sat_mod._index(p)
                else:
                    continue
                if not self._enqueue(implied, sat_mod._ternary_reason(
                        sat_mod._index(-lit), why)):
                    return [p, q, -lit]
            watch_list = self.watches[li]
            if not watch_list:
                continue
            kept: list[int] = []
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(ci)
                    continue
                found = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        sat_mod._watch(self.watches,
                                       sat_mod._index(-clause[1]), ci)
                        found = True
                        break
                if found:
                    continue
                kept.append(ci)
                if not self._enqueue(first, ci + 1):
                    kept.extend(watch_list[i:])
                    self.watches[li] = kept
                    return clause
            self.watches[li] = kept
        return None


def _search_state(sat):
    return (*_solver_state(sat), sat.qhead, sat.trail_lim, sat.activity,
            sat.conflicts)


@st.composite
def _tseitin_cnf(draw):
    """Clauses over distinct variables, units among them."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True) \
        .flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    return n, [list(c) for c in draw(st.lists(clause, max_size=30))]


@settings(max_examples=300, deadline=None)
@given(_tseitin_cnf())
@example((3, [[1], [-1, 2], [1, 3], [-2]]))
def test_inlined_propagation_matches_method_calls_on_small_cnfs(cnf):
    n, clauses = cnf
    new = _load(SatSolver(), n, clauses)
    old = _load(MethodCallSat(), n, clauses)
    assert new.solve() is old.solve()
    assert _search_state(new) == _search_state(old)


def test_inlined_propagation_matches_method_calls_on_search():
    # conflicts, learnt clauses, backjumps and restarts: the same trail,
    # levels, reasons, watches and clause literal order throughout, also
    # across solves under assumptions in one instance
    rng = random.Random(5)
    instances = [_pigeonhole(6, 5)] + [_random_3sat(rng, 120) for _ in range(2)]
    results = []
    for n, clauses in instances:
        new, old = _load(SatSolver(), n, clauses), _load(MethodCallSat(), n, clauses)
        results.append(new.solve())
        assert results[-1] is old.solve()
        assert new.conflicts > 100  # one search past a restart
        assert _search_state(new) == _search_state(old)
        for _ in range(3):
            assumptions = rng.sample(range(1, n + 1), 2)
            order = rng.sample(range(1, n + 1), n)
            assert new.solve(assumptions, order) is old.solve(assumptions, order)
            assert _search_state(new) == _search_state(old)
    assert results[0] is False  # 6 pigeons, 5 holes


class ReasonCheckedSat(SatSolver):
    """Keeps every clause it stores and every clause it learns, and checks
    at each conflict that every implied literal's reason names a stored
    clause with that literal true and the others false."""

    def __init__(self):
        super().__init__()
        self.stored, self.learnt = set(), []

    def _attach(self, lits):
        self.stored.add(frozenset(lits))
        return super()._attach(lits)

    def _analyze(self, conflict):
        _check_reasons(self)
        learnt, back = super()._analyze(conflict)
        self.learnt.append(learnt)
        return learnt, back


def _check_reasons(sat):
    for lit in sat.trail:
        why = sat.reason[abs(lit)]
        if why == 0:
            continue
        if why > 0:
            clause = sat.clauses[why - 1]
            others = [q for q in clause if q != lit]
        else:
            others = list(sat_mod._false_literals(why))
            clause = [lit, *others]
        assert lit in clause and frozenset(clause) in sat.stored
        assert sat._value(lit) == 1
        assert all(sat._value(q) == -1 for q in others)


@st.composite
def _mostly_3sat(draw):
    """Clauses over distinct variables, nine in ten of three literals, as
    many as make random 3-SAT hard or more, so searches conflict; and a
    few queries under assumptions."""
    n = draw(st.integers(4, 10))
    width = st.sampled_from([3] * 9 + [2, 4])
    clause = width.flatmap(lambda w: st.lists(
        st.integers(1, n), min_size=w, max_size=w, unique=True)) \
        .flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    clauses = draw(st.lists(clause, min_size=4 * n, max_size=6 * n))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    queries = draw(st.lists(st.lists(literal, max_size=3, unique_by=abs),
                            min_size=1, max_size=4))
    return n, [list(c) for c in clauses], queries


@settings(max_examples=200, deadline=None)
@given(_mostly_3sat())
def test_ternary_reasons_and_learnt_clauses_are_sound(cnf):
    # every reason, binary and ternary ones decoded from their packed
    # form, is a stored clause that implies its literal; every clause
    # stored or learnt, the input's as level-0 units shortened them among
    # them, holds in every model of the input
    n, clauses, queries = cnf
    sat = _load(ReasonCheckedSat(), n, clauses)
    for assumptions in queries:
        result = sat.solve(assumptions)
        assert result is _brute(n, clauses + [[a] for a in assumptions])
        _check_reasons(sat)
    models = [a for a in range(1 << n) if _satisfies(a, clauses)]
    for clause in [*sat.stored, *sat.learnt]:
        assert all(_satisfies(a, [clause]) for a in models)


# -- width-8 enumeration oracle ----------------------------------------------

def _random_term(rng, depth, width=8):
    if depth == 0:
        if rng.random() < 0.5:
            return var(rng.choice("xy"), width)
        return const(rng.randrange(1 << width), width)
    a = _random_term(rng, depth - 1, width)
    b = _random_term(rng, depth - 1, width)
    op = rng.choice([bv_add, bv_sub, bv_and, bv_or, bv_xor, shl, shr,
                     lambda p, q: bv_mul(p, const(rng.randrange(1 << width), width)),
                     lambda p, q: ite(ult(p, q), p, q)])
    return op(a, b)


def _random_constraint(rng):
    a = _random_term(rng, rng.randint(0, 2))
    b = _random_term(rng, rng.randint(0, 2))
    return rng.choice([eq, ult, ule, slt, lambda p, q: bnot(slt(q, p)),
                       lambda p, q: bnot(eq(p, q))])(a, b)


def test_solver_against_enumeration():
    rng = random.Random(2024)
    solver = Solver(timeout=30.0)
    for _ in range(80):
        constraints = [_random_constraint(rng) for _ in range(rng.randint(1, 3))]
        brute_sat = any(
            all(evaluate(c, {"x": x, "y": y}) == 1 for c in constraints)
            for x in range(256) for y in range(256))
        # earlier iterations' models may answer it from the ring
        verdict = solver.check_sat(constraints)
        assert verdict.status is (SolverStatus.SAT if brute_sat else SolverStatus.UNSAT)
        if verdict.is_sat:
            assert all(evaluate(c, verdict.model) == 1 for c in constraints)


def test_equivalence_against_enumeration():
    rng = random.Random(11)
    solver = Solver(timeout=30.0)
    for _ in range(40):
        left = [_random_constraint(rng)]
        right = [_random_constraint(rng)]

        def models(cs):
            return {(x, y) for x in range(256) for y in range(256)
                    if all(evaluate(c, {"x": x, "y": y}) == 1 for c in cs)}

        assert solver.check_equivalence(left, right) == (models(left) == models(right))


# -- query memo ---------------------------------------------------------------

@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    solve = SatSolver.solve

    def counted(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SatSolver, "solve", counted)
    return calls


def test_repeated_query_is_solved_once(solve_calls):
    solver = Solver()
    x = var("x")
    query = [ult(const(5), x), ult(x, const(9))]
    first = solver.check_sat(query)
    second = solver.check_sat(list(query))
    assert len(solve_calls) == 1
    assert first.is_sat and second.is_sat
    # every SAT answer carries a model that satisfies the query
    assert all(evaluate(c, first.model) == 1 for c in query)
    assert first.model == second.model and first.model is not second.model
    second.model["x"] = 0
    assert solver.check_sat(query).model == first.model
    assert len(solve_calls) == 1


def test_memo_key_keeps_constraint_order():
    solver = Solver()
    a, b = ult(const(5), var("x")), ult(var("y"), const(9))
    # the second is a ring hit, memoized once minimized
    solver.least_model([a, b])
    solver.least_model([b, a])
    assert list(solver._memo) == [band([a, b]), band([b, a])]


def test_unknown_is_not_memoized(solve_calls):
    solver = Solver(timeout=0)
    query = [ult(const(5), var("x"))]
    assert solver.check_sat(query).status is SolverStatus.UNKNOWN
    assert not solver._memo and not solver._models
    solver.timeout = 30.0
    assert solver.check_sat(query).status is SolverStatus.SAT
    assert len(solve_calls) == 2


# -- the recent-model ring ----------------------------------------------------

def test_query_is_answered_from_a_recent_model(solve_calls):
    solver = Solver()
    x, y = var("x"), var("y")
    first = solver.check_sat([ult(const(5), x)])
    assert first.is_sat
    assert len(solve_calls) == 1
    # y is unbound in the stored model and reads as 0
    query = [ult(const(5), x), eq(y, const(0))]
    hit = solver.check_sat(query)
    assert hit == first and hit.model is not first.model
    hit.model["x"] = 0
    assert solver.check_sat(query) == first
    assert len(solve_calls) == 1
    assert solver.answers == Counter(solved=1, ring=2)


def test_ring_hit_is_not_solved(solve_calls):
    solver = Solver()
    x = var("x")
    solver.check_sat([ult(const(5), x)])
    query = [ult(const(5), x), ult(x, bv_not(const(0)))]
    assert solver.check_sat(query).is_sat
    assert len(solve_calls) == 1


def test_ring_miss_is_solved(solve_calls):
    solver = Solver()
    x = var("x")
    solver.check_sat([ult(x, const(5))])
    assert solver.check_sat([ult(const(9), x)]).is_sat
    assert len(solve_calls) == 2
    assert solver.check_sat([ult(x, const(5)), ult(const(9), x)]).status \
        is SolverStatus.UNSAT
    assert len(solve_calls) == 3
    # the miss's model now answers queries it satisfies
    assert solver.check_sat([ult(const(9), x), ult(const(7), x)]).is_sat
    assert len(solve_calls) == 3


def test_model_ring_keeps_the_most_recent():
    solver = Solver()
    x = var("x")
    for v in range(RECENT_MODELS + 6):
        solver.check_sat([eq(x, const(v))])
    assert len(solver._models) == RECENT_MODELS
    assert [m["x"] for m in solver._models] == list(
        range(RECENT_MODELS + 5, 5, -1))


def test_ring_evaluates_only_the_added_constraint(monkeypatch):
    solver = Solver()
    x = var("x", 8)
    # the ring holds x = 2, x = 1, x = 0, in that order; each query misses
    # the ring, and pins x by a term the checks below do not evaluate and
    # that x, used once, cannot be left to satisfy (a product is not one)
    for v in (0, 1, 2):
        solver.check_sat([eq(bv_mul(x, const(3, 8)), const(3 * v, 8))])
    assert solver.answers == Counter(solved=3)
    below = ult(x, const(3, 8))
    # tried under every ring model: x = 2 and x = 1 fail, x = 0 holds
    assert solver.check_sat([below, eq(x, const(0, 8))]).is_sat
    calls = []
    evaluate_ = solver_mod.evaluate

    def counted(term, *args):
        calls.append(term)
        return evaluate_(term, *args)

    monkeypatch.setattr(solver_mod, "evaluate", counted)
    added = eq(x, const(1, 8))
    assert solver.check_sat([below, added]).is_sat
    assert calls == [added, added]  # false under x = 2, true under x = 1
    calls.clear()
    # a constraint already false under a model rules it out unevaluated:
    # x = 2 fails on added, x = 1 on x == 0, and only x = 0 evaluates added
    assert solver.check_sat([added, eq(x, const(0, 8))]).status \
        is SolverStatus.UNSAT
    assert calls == [added]


# -- 256-bit behavior ---------------------------------------------------------

def test_equivalence_reflexive_and_symmetric():
    solver = Solver()
    b, s = var("b"), var("s")
    two_s = bv_add(s, s)
    ge_s = bnot(ult(b, s))
    ge_2s = bnot(ult(b, two_s))
    assert solver.check_equivalence([ge_s], [ge_s])
    assert not solver.check_equivalence([ge_s], [ge_2s])
    assert not solver.check_equivalence([ge_2s], [ge_s])  # symmetric


def test_equivalence_of_rewritten_forms():
    solver = Solver()
    x = var("x")
    # x > 0 and x >= 1 denote the same model set
    assert solver.check_equivalence([ult(const(0), x)],
                                    [bnot(ult(x, const(1)))])


def test_unsupported_ops_are_unknown():
    solver = Solver()
    x, y = var("x"), var("y")
    verdict = solver.check_sat([eq(bv_mul(x, y), const(6))])
    assert verdict.status is SolverStatus.UNKNOWN
    verdict = solver.check_sat([eq(udiv(x, y), const(2))])
    assert verdict.status is SolverStatus.UNKNOWN
    with pytest.raises(IndeterminateEquivalence):
        solver.check_equivalence([eq(bv_mul(x, y), const(6))], [TRUE])


def test_model_extraction_256_bit():
    solver = Solver()
    x = var("x")
    verdict = solver.check_sat([ult(const(1 << 200), x), ult(x, bv_not(const(0)))])
    assert verdict.is_sat
    assert (1 << 200) < verdict.model["x"] < (1 << 256) - 1


# -- the per-contract gate store and its SAT instance --------------------------

def _clause_count(sat):
    return len(sat.clauses) + sat.num_binaries


def _tseitin_count(store):
    """The clauses of the store's gates: three per And, four per Xor, six
    per Maj."""
    return (3 * len(store._and_gates) + 4 * len(store._xor_gates)
            + 6 * len(store._maj_gates))


def _sharing_queries():
    """Queries that share subterms, in the order one contract might ask them."""
    x, y = var("x", 8), var("y", 8)
    path = [ult(const(3, 8), x), eq(bv_and(x, y), const(1, 8)),
            ult(bv_add(x, y), const(200, 8)), bnot(eq(shl(y, x), bv_sub(y, x)))]
    prefixes = [path[:k] for k in range(1, len(path) + 1)]
    left, right = path[:3], [path[2], path[0], ule(bv_add(x, y), const(150, 8))]
    differences = [[*left, bnot(band(right))], [*right, bnot(band(left))]]
    # blasts to the constant true literal though no term folding sees it
    commuted = eq(bv_add(x, y), bv_add(y, x))
    return [*prefixes, *differences, [path[1], commuted, path[3]], path[::-1]]


def _conflicting_queries():
    """Queries whose search conflicts in an instance of their own, over
    variables of their own. The first one's search ends at p = 12, above
    its least model p = 4; the last one's conflicts again when it is
    solved a second time, so its least model takes further solves."""
    p, q, r = var("p", 4), var("q", 4), var("r", 4)
    s, t = var("s", 4), var("t", 4)
    return [[bnot(eq(p, bv_sub(const(0, 4), p)))],
            [bnot(ult(bv_sub(const(15, 4), q), q)),
             bnot(eq(bv_and(r, bv_sub(r, q)), bv_add(q, bv_add(r, q))))],
            [ult(bv_add(t, bv_xor(s, const(10, 4))), t), eq(s, const(15, 4)),
             bnot(ult(bv_or(t, s), const(9, 4)))]]


def test_store_attaches_each_gate_once():
    # each gate's Tseitin clauses enter the one instance once, when the
    # lowering that made it ends: what a query shares adds nothing
    store = BitBlaster()
    fresh_vars = 0
    for query in _sharing_queries():
        fresh = BitBlaster()
        for c in query:
            fresh.assert_true(c)
        fresh_vars += fresh.num_vars
        before = _clause_count(store.sat) - _tseitin_count(store)
        for c in query:
            store.assert_true(c)
        assert _clause_count(store.sat) - _tseitin_count(store) == before
        assert store.sat.num_vars == store.num_vars
        assert not store._pending and not store._pending_maj
    assert _clause_count(store.sat) == _tseitin_count(store) > 0
    assert store.num_vars < fresh_vars  # the queries did share gates


def test_shared_solver_models_match_fresh_solvers(solve_calls):
    # a least model depends on the query alone, not on what ran before it
    shared = Solver()
    sat = shared._blaster.sat
    queries = _sharing_queries() + _conflicting_queries()
    solves = []  # per query, the shared instance's solves for the least model
    for query in queries:
        shared.check_sat(query)  # what least_model asks first
        before = solve_calls.count(sat)
        assert shared.least_model(query) == Solver().least_model(query)
        solves.append(solve_calls.count(sat) - before)
    assert any(shared.check_sat(q).is_sat for q in queries)
    assert shared.sat_stats["conflicts"] > 0
    # some least model took a search that conflicted, then another
    assert max(solves) >= 2


def test_unsupported_query_leaves_the_store_consistent():
    x, y = var("x", 8), var("y", 8)
    good = [ult(const(3, 8), x), ult(x, y)]
    # x, y and the first constraints lower before the product fails
    bad = [*good, eq(bv_add(bv_mul(x, y), x), const(6, 8))]
    follow = [*good, eq(bv_add(y, x), const(6, 8))]
    solver = Solver()
    assert solver.check_sat(bad).status is SolverStatus.UNKNOWN
    assert solver.check_sat(follow) == Solver().check_sat(follow)
    store = BitBlaster()
    with pytest.raises(UnsupportedTermError):
        for c in bad:
            store.assert_true(c)
    # the gates made before the failure are in the instance all the same
    assert store.sat.num_vars == store.num_vars
    assert not store._pending and not store._pending_maj
    assert _clause_count(store.sat) == _tseitin_count(store) > 0
    assumptions = [store.assert_true(c) for c in follow]
    variables = store.variables(follow)
    assert store.sat.solve(assumptions, store.input_bits(variables)) is True
    model = {v.name: store.var_value(v) for v in variables}
    assert all(evaluate(c, model) == 1 for c in follow)


def _searched_nothing(solver):
    stats = solver.sat_stats
    return stats["decisions"] == stats["conflicts"] == 0


def test_complementary_roots_are_unsat_without_a_decision():
    x, y = var("x", 8), var("y", 8)
    # the operands commuted: two terms, but one adder in the gate store
    query = [ult(const(3, 8), x), eq(bv_add(x, y), const(6, 8)),
             bnot(eq(bv_add(y, x), const(6, 8)))]
    solver = Solver()
    for _ in range(2):
        assert solver.check_sat(query) == SolverVerdict(SolverStatus.UNSAT, None)
    assert solver.answers == Counter(solved=1, memo=1)
    assert _searched_nothing(solver)


def test_constant_false_root_is_unsat_without_a_decision():
    x, y = var("x", 8), var("y", 8)
    # no term folding sees it, but it blasts to the constant false literal
    query = [ult(const(3, 8), x), bnot(eq(bv_add(x, y), bv_add(y, x)))]
    solver = Solver()
    assert solver.check_sat(query).status is SolverStatus.UNSAT
    assert solver.answers == Counter(solved=1)
    assert _searched_nothing(solver)


def test_unsupported_root_beside_a_contradiction_is_unknown_without_a_decision():
    x, y = var("x", 8), var("y", 8)
    c = eq(bv_add(x, y), const(6, 8))
    # the operands commuted: a contradiction only the gate store sees
    d = bnot(eq(bv_add(y, x), const(6, 8)))
    product = eq(bv_mul(x, y), const(6, 8))
    solver = Solver()
    for query in ([c, d, product], [product, c, d]) * 2:
        assert solver.check_sat(query).status is SolverStatus.UNKNOWN
    assert solver.answers == Counter(unsupported=4)
    # a conjunct beside its own negation folds to FALSE before lowering
    assert solver.check_sat([c, bnot(c), product]).status is SolverStatus.UNSAT
    assert solver.answers == Counter(unsupported=4, solved=1)
    assert _searched_nothing(solver)


def test_false_conjunct_beside_an_unsupported_one_is_unsat_without_a_decision():
    x, y = var("x", 8), var("y", 8)
    solver = Solver()
    query = [FALSE, eq(bv_mul(x, y), const(6, 8))]
    assert solver.check_sat(query).status is SolverStatus.UNSAT
    assert solver.answers == Counter(solved=1)
    assert _searched_nothing(solver)


# -- the model: the least assignment in first-touch order ---------------------

def _first_touch(query):
    """The variables of a query in the order a depth-first walk of its
    conjuncts, arguments in order, first reaches them."""
    order, seen = [], set()

    def walk(t):
        if t not in seen:
            seen.add(t)
            if t.op == "var":
                order.append(t)
            for a in t.args:
                walk(a)

    for c in conjuncts(band(query)):
        walk(c)
    return order


def _least_model(query, holds):
    """The first assignment, over the bits of the query's variables in
    first-touch order, each variable LSB first and the first bit highest,
    under which ``holds`` is true; None if there is none."""
    variables = _first_touch(query)
    widths = [v.width for v in variables]
    for bits in itertools.product((0, 1), repeat=sum(widths)):
        model, k = {}, 0
        for v, w in zip(variables, widths):
            model[v.name] = sum(bit << i for i, bit in enumerate(bits[k:k + w]))
            k += w
        if holds(model):
            return model
    return None


_BV_OPS = [(bv_add, lambda a, b: a + b), (bv_sub, lambda a, b: a - b),
           (bv_and, lambda a, b: a & b), (bv_or, lambda a, b: a | b),
           (bv_xor, lambda a, b: a ^ b)]


@st.composite
def _small_term(draw, names, width, depth):
    """A term and the function that computes it from a model."""
    mask = (1 << width) - 1
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 3)):
            name = draw(st.sampled_from(names))
            return var(name, width), lambda m: m.get(name, 0)
        value = draw(st.integers(0, mask))
        return const(value, width), lambda m: value
    a, fa = draw(_small_term(names, width, depth - 1))
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(1, mask))
        return bv_mul(a, const(k, width)), lambda m: fa(m) * k & mask
    b, fb = draw(_small_term(names, width, depth - 1))
    build, fn = draw(st.sampled_from(_BV_OPS))
    return build(a, b), lambda m: fn(fa(m), fb(m)) & mask


@st.composite
def _small_query(draw, names, width):
    """One to three comparisons: the constraints and a function that
    tells whether a model satisfies them all."""
    sign = 1 << (width - 1)
    comparisons = [(eq, lambda a, b: a == b), (ult, lambda a, b: a < b),
                   (ule, lambda a, b: a <= b),
                   (slt, lambda a, b: a ^ sign < b ^ sign),
                   (lambda a, b: bnot(eq(a, b)), lambda a, b: a != b)]
    constraints, checks = [], []
    for _ in range(draw(st.integers(1, 3))):
        a, fa = draw(_small_term(names, width, 2))
        b, fb = draw(_small_term(names, width, 2))
        build, fn = draw(st.sampled_from(comparisons))
        constraints.append(build(a, b))
        checks.append(lambda m, fa=fa, fb=fb, fn=fn: fn(fa(m), fb(m)))
    return constraints, lambda m: all(check(m) for check in checks)


@st.composite
def _small_queries(draw):
    """2-4 variables of 3-4 bits, at most 12 bits in all; random queries
    over them with the conflicting ones among them, each with a function
    that tells a model, and whether it is asked first without its least
    model."""
    count = draw(st.integers(2, 4))
    width = draw(st.sampled_from([3] if count == 4 else [3, 4]))
    names = [f"v{i}" for i in range(count)]
    queries = [(q, holds, draw(st.booleans())) for q, holds in
               draw(st.lists(_small_query(names, width), min_size=1, max_size=5))]
    for query in _conflicting_queries():
        # their variables are their own, so their first search conflicts
        holds = (lambda q: lambda m: all(evaluate(c, m) == 1 for c in q))(query)
        queries.insert(draw(st.integers(0, len(queries))), (query, holds, False))
    return queries


class _FullSearchTwin:
    """While entered, every solve given a completion check is also made
    without it, in a copy of the instance, and the two must agree: the same
    result, model over the order and conflicts, and no more decisions with
    the check."""

    def __enter__(self):
        solve = self.solve = SatSolver.solve

        def twinned(sat, assumptions=(), order=None, deadline=None, stops=(),
                    complete=None):
            if complete is None:
                return solve(sat, assumptions, order, deadline)
            full = copy.deepcopy(sat)
            before = sat.decisions, sat.conflicts
            expected = solve(full, assumptions, order, deadline)
            result = solve(sat, assumptions, order, deadline, stops, complete)
            assert result is expected
            assert sat.conflicts - before[1] == full.conflicts - before[1]
            assert sat.decisions - before[0] <= full.decisions - before[0]
            if result:
                assert [sat.model_value(v) for v in order] == \
                    [full.model_value(v) for v in order]
            return result

        SatSolver.solve = twinned
        return self

    def __exit__(self, *exc):
        SatSolver.solve = self.solve


@settings(max_examples=40, deadline=None)
@given(_small_queries())
def test_models_are_the_least_assignment_in_first_touch_order(queries):
    solver = Solver()
    with _FullSearchTwin():
        for query, holds, asked_first in queries:
            expected = _least_model(query, holds)
            status = SolverStatus.UNSAT if expected is None else SolverStatus.SAT
            if asked_first:
                assert solver.check_sat(query).status is status
            verdict = solver.least_model(query)
            assert verdict == (SolverVerdict(status, expected), None)
    assert solver.sat_stats["conflicts"] > 0


def test_all_zero_least_model_is_completed_without_a_decision():
    x = var("x")
    solver = Solver()
    assert solver.least_model([ule(x, const(1000))]) == \
        (SolverVerdict(SolverStatus.SAT, {"x": 0}), None)
    stats = solver.sat_stats
    assert stats["completions"] == 1 and stats["decisions"] == 0


def test_completion_waits_for_the_deadline_check():
    # at timeout 0 the search stops before its first assumption, so the
    # completion at cursor 0 never runs
    x = var("x")
    solver = Solver(timeout=0)
    assert solver.check_sat([ule(x, const(1000))]) == \
        SolverVerdict(SolverStatus.UNKNOWN, None)
    assert solver.sat_stats["completions"] == 0
    assert solver.answers == Counter(timeout=1)


def test_no_time_leaves_a_query_that_propagation_settles_unknown():
    # x = 5 needs no decision once its assumption is placed, but a search
    # out of time stops before the decision that would end it SAT
    x = var("x")
    query = [eq(x, const(5))]
    solver = Solver(timeout=0)
    assert solver.check_sat(query) == SolverVerdict(SolverStatus.UNKNOWN, None)
    assert solver.answers == Counter(timeout=1)
    assert solver.sat_stats["decisions"] == 0
    # what needs no search stays decided
    solver.timeout = 60.0
    assert solver.check_sat(query).is_sat                       # solved
    solver.timeout = 0
    assert solver.check_sat(query).is_sat                       # memo
    assert solver.check_sat([ult(x, const(9))]).is_sat          # ring
    c = ult(const(3), x)
    assert solver.check_sat([c, bnot(c)]).status is SolverStatus.UNSAT
    assert solver.answers == Counter(timeout=1, solved=2, memo=1, ring=1)


def test_bits_a_completed_solve_leaves_unassigned_read_false():
    sat = _load(SatSolver(), 3, [[-1, 2], [-2, 3]])
    assert sat.solve((), [1, 2, 3], stops=[0], complete=lambda: True) is True
    assert sat.completions == 1 and sat.decisions == 0
    assert not any(sat.model_value(v) for v in (1, 2, 3))


def test_conflicted_search_then_least_model_gives_the_least_model():
    p = var("p", 4)
    query = [bnot(eq(p, bv_sub(const(0, 4), p)))]
    solver = Solver()
    # the search's own model is handed out, memoized and enters the ring
    searched = SolverVerdict(SolverStatus.SAT, {"p": 12})
    assert solver.check_sat(query) == searched
    assert solver.sat_stats["conflicts"] > 0
    assert solver.answers == Counter(solved=1)
    assert list(solver._models) == [searched.model]
    least = SolverVerdict(SolverStatus.SAT, {"p": 4})
    assert solver.least_model(query) == (least, None)
    assert solver.answers == Counter(solved=1, memo=1)
    # the least model replaces the memoized one
    assert solver.least_model(query) == (least, None)
    assert solver.check_sat(query) == least


def test_conflicted_256_bit_queries_are_minimized_within_the_default_timeout():
    # minimizing solves the query again until a solve meets no conflict;
    # these searches conflict and their least models follow by hand from
    # the order x, y, z, each LSB first
    x, y, z = var("x"), var("y"), var("z")
    queries = [
        # x != -x: x = 2**254, the latest single bit not 0 or 2**255;
        # then z < y < x + z wraps only for y = 2**255
        ([bnot(eq(x, bv_sub(const(0), x))), ult(y, bv_add(x, z)), ult(z, y)],
         {"x": 1 << 254, "y": 1 << 255, "z": 3 << 253}),
        # (x - y) + y = x, so x != 0: x = 2**255, its lowest bits clear,
        # then y = 0
        ([ult(const(0), bv_add(bv_sub(x, y), y))], {"x": 1 << 255, "y": 0}),
    ]
    for query, least in queries:
        solver = Solver()
        assert solver.least_model(query) == \
            (SolverVerdict(SolverStatus.SAT, least), None)
        assert solver.sat_stats["conflicts"] > 0


def test_check_sat_never_minimizes(solve_calls):
    # a search that conflicts keeps its model: one solve per query
    for query in _conflicting_queries():
        solver = Solver()
        verdict = solver.check_sat(query)
        assert solver.sat_stats["conflicts"] > 0
        assert solve_calls == [solver._blaster.sat]
        solve_calls.clear()
        assert verdict.is_sat
        assert all(evaluate(c, verdict.model) == 1 for c in query)


def test_least_model_out_of_time_keeps_the_search_model(monkeypatch):
    # a re-solve that runs out of time leaves a decided SAT decided
    solve = SatSolver.solve
    conflicts = []  # the instance's conflicts before each solve

    def out_of_time_from_the_third(sat, assumptions, order, deadline, *rest):
        conflicts.append(sat.conflicts)
        if len(conflicts) > 2:
            deadline = 0.0
        return solve(sat, assumptions, order, deadline, *rest)

    query = _conflicting_queries()[-1]
    searched = Solver().check_sat(query)
    monkeypatch.setattr(SatSolver, "solve", out_of_time_from_the_third)
    solver = Solver()
    verdict, why = solver.least_model(query)
    # the search, least_model's first solve, which conflicted, and the
    # re-solve, out of time
    assert len(conflicts) == 3 and conflicts[1] < conflicts[2]
    assert why == "out of time"
    assert verdict == searched
    assert all(evaluate(c, verdict.model) == 1 for c in query)
    assert solver.answers == Counter(solved=1)
    # the search's model stays memoized, not taken for the least one
    monkeypatch.undo()
    assert solver.least_model(query) == Solver().least_model(query)
    assert solver.least_model(query)[1] is None


def test_least_model_of_a_reduced_query_it_cannot_lower_keeps_its_model():
    # check_sat leaves out the conjunct with the product, which x alone can
    # make true; least_model lowers the whole query, and cannot
    a, b, x = var("a"), var("b"), var("x")
    query = [eq(bv_add(bv_mul(a, b), x), const(5)), ult(a, const(3))]
    solver = Solver(5)
    verdict, why = solver.least_model(query)
    assert why == "symbolic*symbolic multiplication"
    assert verdict == SolverVerdict(SolverStatus.SAT, {"a": 0, "b": 0, "x": 5})
    assert solver.dropped == 1


def test_least_model_of_a_ring_hit_it_cannot_lower_keeps_the_query_variables():
    # the ring model also names y, which the query does not hold; the
    # witness keeps the query's variables, unbound ones read as 0
    a, b, y = var("a"), var("b"), var("y")
    solver = Solver(5)
    solver.check_sat([ult(a, const(3)), eq(y, const(7))])
    assert solver._models[0] == {"a": 0, "y": 7}  # the ring model tried first
    verdict, why = solver.least_model([ult(a, const(3)), eq(bv_mul(a, b), const(0))])
    assert why == "symbolic*symbolic multiplication"
    assert solver.answers["ring"] == 1
    assert verdict == SolverVerdict(SolverStatus.SAT, {"a": 0, "b": 0})


def test_ring_model_is_never_a_witness():
    solver = Solver()
    x = var("x")
    solver.check_sat([eq(x, const(9))])
    # x = 9 satisfies the query, but the least model sets the lowest bits
    # clear: only bit 255 is set
    least = SolverVerdict(SolverStatus.SAT, {"x": 1 << 255})
    assert solver.least_model([ult(const(5), x)]) == (least, None)
    assert solver.answers == Counter(solved=1, ring=1)
    assert solver.least_model([ult(const(5), x)]) == (least, None)
    assert solver.answers == Counter(solved=1, ring=1, memo=1)


def test_unsat_query_between_sat_ones_leaves_the_instance_usable():
    x, y, z = var("x", 4), var("y", 4), var("z", 4)
    first = [ult(x, y), ult(const(9, 4), bv_add(x, y))]
    cycle = [ult(x, y), ult(y, z), ult(z, x)]  # no gate hashing sees it
    last = [ult(y, z), eq(bv_xor(x, z), const(5, 4))]
    solver = Solver()
    assert solver.check_sat(first) == Solver().check_sat(first)
    assert solver.check_sat(cycle) == SolverVerdict(SolverStatus.UNSAT, None)
    assert solver.answers == Counter(solved=2)
    assert solver.sat_stats["conflicts"] > 0
    assert solver._blaster.sat.ok  # UNSAT under assumptions only
    assert solver.check_sat(last) == Solver().check_sat(last)
    assert solver.check_sat(last).is_sat


def test_ult_cycle_is_unsat_within_the_default_timeout():
    # decisions over the inputs alone, in a static order, leave this
    # Unknown at 16 bits after 30 s; VSIDS takes a tenth of a second
    x, y, z = var("x", 64), var("y", 64), var("z", 64)
    verdict = Solver().check_sat([ult(x, y), ult(y, z), ult(z, x)])
    assert verdict == SolverVerdict(SolverStatus.UNSAT, None)


def test_ult_chain_with_a_bounded_difference_is_solved_without_a_conflict():
    # each ult bit is one majority gate, so propagation alone carries the
    # comparisons: x = 0, then y > 0 with the most low bits clear that
    # leaves room for z in (y, 7) with z != y: y = 4, then z = 6 of {5, 6},
    # its lowest bit clear
    x, y, z = var("x"), var("y"), var("z")
    solver = Solver()
    query = [ult(x, y), ult(y, z), ult(bv_sub(z, x), const(7)),
             bnot(eq(bv_add(x, y), z))]
    assert solver.least_model(query) == \
        (SolverVerdict(SolverStatus.SAT, {"x": 0, "y": 4, "z": 6}), None)
    assert solver.sat_stats["conflicts"] == 0


def test_add_then_sub_is_identity_within_the_default_timeout():
    # VSIDS over the inputs alone leaves this Unknown at 16 bits after
    # 60 s; deciding the gates that conflicts bump takes a fraction of one
    x, y = var("x", 32), var("y", 32)
    verdict = Solver().check_sat([bnot(eq(bv_sub(bv_add(x, y), y), x))])
    assert verdict == SolverVerdict(SolverStatus.UNSAT, None)


def test_empty_query_is_sat_with_empty_model():
    solver = Solver()
    assert solver.check_sat([]) == SolverVerdict(SolverStatus.SAT, {})
    assert solver.check_sat([]) == SolverVerdict(SolverStatus.SAT, {})
    assert solver.check_sat([TRUE]) == SolverVerdict(SolverStatus.SAT, {})
    assert solver.answers == Counter(solved=1, memo=2)


class AskCountingSolver(Solver):
    """Counts the queries asked: every one goes through check_sat."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = 0

    def check_sat(self, constraints):
        self.asked += 1
        return super().check_sat(constraints)


def test_answer_sources_sum_to_queries_asked(monkeypatch):
    x, y = var("x", 8), var("y", 8)
    c = ult(const(3, 8), x)
    solver = AskCountingSolver()
    solver.check_sat([])                                        # solved
    solver.check_sat([c])                                       # solved
    solver.check_sat([c])                                       # memo
    solver.check_sat([c, ult(x, const(250, 8))])                # ring
    solver.check_sat([c, ult(x, const(250, 8))])                # ring
    solver.check_sat([c, bnot(c)])                              # solved
    solver.check_sat([c, eq(bv_mul(x, y), const(6, 8))])        # unsupported
    solver.check_sat([c, eq(y, const(7, 8))])                   # memo: c
    solver.timeout = 0
    solver.check_sat([ult(x, y)])                               # timeout
    assert solver.answers == Counter(solved=3, memo=2, ring=2,
                                     unsupported=1, timeout=1)
    assert solver.asked == 9
    assert solver.dropped == 1
    # and over a whole contract's discovery and pairs
    solvers = []

    def counting(*args, **kwargs):
        solvers.append(AskCountingSolver(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(verifier, "Solver", counting)
    code = (ROOT / "fixtures" / "token.hex").read_text().strip()
    verifier.analyze([("token", Bytecode(bytes.fromhex(code)), "fixture")])
    (solver,) = solvers
    assert solver.asked == sum(solver.answers.values()) > 0
    # an equivalence of two equal conditions asks a ∧ FALSE, solved once
    # without a decision and a memo hit after
    assert solver.answers == Counter(memo=42, ring=45, solved=18)
    # a conjunction that holds a conjunct and its negation is FALSE, with
    # nothing left to drop
    assert solver.dropped == 5


def test_variable_bits_are_keyed_by_name_and_width():
    solver = Solver()
    narrow, wide = var("x", 8), var("x", 16)
    assert solver.check_sat([eq(narrow, const(0xAB, 8))]).model == {"x": 0xAB}
    assert solver.check_sat([eq(wide, const(0x1234, 16))]).model == {"x": 0x1234}
    store = BitBlaster()
    narrow_bits, wide_bits = store.blast_bv(narrow), store.blast_bv(wide)
    assert (len(narrow_bits), len(wide_bits)) == (8, 16)
    assert not set(narrow_bits) & set(wide_bits)


@pytest.fixture
def completion_checks(monkeypatch):
    """The answers of every completion check asked, in order."""
    checks = []
    completion = Solver._completion

    def counted(self, flat, variables):
        stops, complete = completion(self, flat, variables)
        return stops, lambda: checks.append(complete()) or checks[-1]

    monkeypatch.setattr(Solver, "_completion", counted)
    return checks


def test_deep_terms_blast_without_recursion(completion_checks):
    # lowering and the cone walk keep their own stacks: a chain deeper
    # than Python's recursion limit still loads
    chain = var("x0", 8)
    for i in range(1, 1500):
        chain = bv_xor(chain, var(f"x{i}", 8))
    solver = Solver()
    # least_model, since check_sat leaves out a conjunct that one of its
    # variables, used once, can always make true
    verdict, why = solver.least_model([eq(chain, const(5, 8))])
    assert verdict.is_sat and why is None and solver.dropped == 1
    assert evaluate(chain, verdict.model) == 5
    # 1,500 stops, and no order bit turns true before the last one: the
    # completion check is asked at the first stop alone
    assert completion_checks == [False]
    stats = solver.sat_stats
    assert (stats["decisions"], stats["completions"]) == (11992, 0)


def test_completion_is_asked_again_once_an_order_bit_turns_true(completion_checks):
    # x's bits are decided false, propagation sets some of y's true: asked
    # again before z's first decision, where it ends the search. An or is
    # not always made true by one operand, so no conjunct is left out
    x, y, z = var("x", 8), var("y", 8), var("z", 8)
    solver = Solver()
    query = [eq(bv_or(x, y), const(5, 8)), ult(z, const(9, 8))]
    assert solver.check_sat(query).model == {"x": 0, "y": 5, "z": 0}
    assert completion_checks == [False, True]
    assert solver.sat_stats["completions"] == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, (1 << 256) - 1))
def test_evaluate_matches_solver_on_point_constraints(v):
    solver = Solver()
    x = var("x")
    verdict = solver.check_sat([eq(x, const(v))])
    assert verdict.is_sat
    assert verdict.model["x"] == v


# -- conjuncts that a variable used once can always make true ------------------

X8, Y8 = var("x", 8), var("y", 8)
ABOVE_200 = ult(const(200, 8), Y8)  # holds y in a second conjunct

# one conjunct per op and polarity the elimination passes through; only x
# is in no other conjunct
ONCE_USED = {
    "eq": eq(X8, Y8),
    "eq false": bnot(eq(X8, Y8)),
    "ult false, x left": bnot(ult(X8, Y8)),
    "ult false, x right": bnot(ult(Y8, X8)),
    "bor true": bor([eq(X8, Y8), ult(Y8, const(3, 8))]),
    "band false": bnot(band([eq(X8, Y8), ult(const(3, 8), Y8)])),
    "add, x left": eq(bv_add(X8, Y8), const(7, 8)),
    "add, x right": eq(bv_add(Y8, X8), const(7, 8)),
    "sub, x left": eq(bv_sub(X8, Y8), const(7, 8)),
    "sub, x right": eq(bv_sub(Y8, X8), const(7, 8)),
    "xor": eq(bv_xor(X8, Y8), const(7, 8)),
    "not": eq(bv_not(X8), Y8),
    "nested": bnot(ult(bv_sub(Y8, bv_not(bv_xor(Y8, bv_add(X8, Y8)))), Y8)),
}


@pytest.mark.parametrize("case", ONCE_USED)
def test_conjunct_a_once_used_variable_satisfies_is_dropped(case):
    c = ONCE_USED[case]
    query = [c, ABOVE_200]
    solver = Solver()
    verdict = solver.check_sat(query)
    assert verdict.is_sat and solver.dropped == 1
    assert all(evaluate(t, verdict.model) == 1 for t in query)
    assert c not in solver._blaster._memo  # never bit-blasted
    # memoized under the whole query, and the model enters the ring
    assert solver._memo[band(query)] == verdict
    assert solver._models[0] == verdict.model


NOT_DROPPED = {
    "in two conjuncts": [eq(bv_add(X8, Y8), const(7, 8)), ult(X8, Y8)],
    "twice in one": [eq(bv_add(X8, X8), Y8), ABOVE_200],
    "twice through a bor": [bor([eq(X8, Y8), eq(X8, const(3, 8))]), ABOVE_200],
    "under ite": [eq(ite(ult(Y8, const(3, 8)), Y8, X8), const(7, 8)), ABOVE_200],
    "under and": [eq(bv_and(X8, Y8), const(8, 8)), ABOVE_200],
    "under shr": [eq(shr(X8, const(1, 8)), Y8), ult(Y8, const(9, 8))],
    "under mul": [eq(bv_mul(X8, const(3, 8)), Y8), ABOVE_200],
    "ult true": [ult(X8, Y8), ABOVE_200],
    "bor false": [bnot(bor([eq(X8, Y8), ult(Y8, const(3, 8))])), ABOVE_200],
    "band true": [bor([band([eq(X8, Y8), ult(Y8, const(3, 8))]),
                       ult(const(250, 8), Y8)]), ABOVE_200],
}


@pytest.mark.parametrize("case", NOT_DROPPED)
def test_conjunct_a_variable_cannot_always_satisfy_is_kept(case):
    query = NOT_DROPPED[case]
    solver = Solver()
    verdict = solver.check_sat(query)
    assert solver.dropped == 0
    assert verdict.is_sat
    assert all(evaluate(t, verdict.model) == 1 for t in query)


def test_reduced_query_unsat_makes_the_query_unsat():
    query = [eq(bv_add(X8, Y8), const(7, 8)), ult(Y8, const(3, 8)),
             ult(const(5, 8), Y8)]
    solver = Solver()
    verdict = solver.check_sat(query)
    assert verdict == SolverVerdict(SolverStatus.UNSAT, None)
    assert solver.dropped == 1 and solver.answers == Counter(solved=1)
    assert solver._memo[band(query)] == verdict
    assert solver.check_sat(query) == verdict
    assert solver.answers == Counter(solved=1, memo=1)


def test_dropped_conjunct_with_an_op_the_store_cannot_lower_is_decided():
    # x + y*z == 6 is true for x = 6 - y*z whatever y and z: the product
    # is evaluated, never lowered
    z = var("z", 8)
    product = eq(bv_add(X8, bv_mul(Y8, z)), const(6, 8))
    solver = Solver()
    verdict = solver.check_sat([product, ult(const(3, 8), Y8)])
    assert verdict.is_sat and solver.dropped == 1
    assert evaluate(product, verdict.model) == 1
    # the same product where no variable is used once stays Unknown
    assert solver.check_sat([product, ult(X8, Y8), ult(const(3, 8), z)]).status \
        is SolverStatus.UNKNOWN


def test_equal_conditions_are_equivalent_through_a_refuted_query():
    a, b = ult(const(3, 8), X8), ult(X8, Y8)
    solver = Solver()
    assert solver.check_equivalence([a, b], [b, a])
    assert solver.answers == Counter(solved=1, memo=1)  # a ∧ FALSE, twice


def test_equivalence_leaves_out_the_shared_conjuncts():
    # the solvency conjunct holds bal and pay and nothing else does, once
    # it is no longer negated on the other side too
    bal, pay, v = var("bal"), var("pay"), var("v")
    solvent = bnot(ult(bv_add(bal, v), pay))
    solver = Solver()
    assert solver.check_equivalence([solvent, ult(const(0), v)],
                                    [solvent, bnot(ult(v, const(1)))])
    assert solver.dropped == 2
    assert not solver.check_equivalence([solvent, ult(const(1), v)],
                                        [solvent, ult(const(0), v)])


_W3 = (1 << 3) - 1
_ORACLE_VARS = [var(name, 3) for name in "abcd"]
# every assignment of the four 3-bit variables, a first
_ORACLE_ENV = {v.name: [(k >> (3 * i)) & _W3 for k in range(1 << 12)]
               for i, v in enumerate(reversed(_ORACLE_VARS))}
_ORACLE_OPS = {
    "add": lambda a, b: (a + b) & _W3, "sub": lambda a, b: (a - b) & _W3,
    "mul": lambda a, b: (a * b) & _W3, "and": lambda a, b: a & b,
    "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "not": lambda a: ~a & _W3,
    "shl": lambda a, b: (a << b) & _W3 if b < 3 else 0,
    "shr": lambda a, b: a >> b if b < 3 else 0,
    "ite": lambda c, a, b: a if c else b,
    "eq": lambda a, b: int(a == b), "ult": lambda a, b: int(a < b),
    "bnot": lambda a: 1 - a, "band": lambda *a: int(all(a)),
    "bor": lambda *a: int(any(a)),
}


def _column(t, memo):
    """``t``'s value under every assignment of the four variables."""
    if t not in memo:
        if t.op == "const":
            memo[t] = [t.value] * (1 << 12)
        elif t.op == "var":
            memo[t] = _ORACLE_ENV[t.name]
        else:
            fn = _ORACLE_OPS[t.op]
            memo[t] = list(map(fn, *(_column(a, memo) for a in t.args)))
    return memo[t]


def _oracle_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return rng.choice(_ORACLE_VARS)
        return const(rng.randrange(8), 3)
    a, b = _oracle_term(rng, depth - 1), _oracle_term(rng, depth - 1)
    op = rng.choice(["add", "sub", "xor", "not", "and", "or", "mul", "shr",
                     "shl", "ite"])
    if op == "not":
        return bv_not(a)
    if op == "mul":
        return bv_mul(a, const(rng.randrange(8), 3))
    if op == "ite":
        return ite(ult(a, b), b, a)
    build = {"add": bv_add, "sub": bv_sub, "xor": bv_xor, "and": bv_and,
             "or": bv_or, "shr": shr, "shl": shl}[op]
    return build(a, b)


def _oracle_conjunct(rng):
    a, b = _oracle_term(rng, 2), _oracle_term(rng, 2)
    c = rng.choice([eq, ult, lambda p, q: bnot(eq(p, q)),
                    lambda p, q: bnot(ult(p, q))])(a, b)
    shape = rng.random()
    if shape < 0.15:
        return bor([c, _oracle_conjunct(rng)])
    if shape < 0.3:
        return bnot(band([c, _oracle_conjunct(rng)]))
    return c


def test_elimination_against_enumeration():
    # 4 variables of 3 bits in 2-4 conjuncts: most queries hold some
    # variable once, and check_sat must agree with all 4,096 assignments
    rng = random.Random(26)
    solver = Solver()
    memo = {}
    seen = Counter()
    for _ in range(300):
        query = [_oracle_conjunct(rng) for _ in range(rng.randint(2, 4))]
        holds = [all(bits) for bits in zip(*(_column(c, memo) for c in query))]
        dropped = solver.dropped
        verdict = solver.check_sat(query)
        assert verdict.status is (SolverStatus.SAT if any(holds)
                                  else SolverStatus.UNSAT), query
        if verdict.is_sat:
            assert all(evaluate(c, verdict.model) == 1 for c in query)
        seen[verdict.status, solver.dropped > dropped] += 1
    # both answers came with conjuncts left out and without
    assert len(seen) == 4, seen
