"""Solver stack: constant folding, SAT core, bit-blasting, equivalence.

The main oracle is exhaustive enumeration at width 8: random constraint sets
over two variables are decided both by brute force and by the solver.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reentscan.smt import (
    IndeterminateEquivalence,
    Solver,
    SolverStatus,
    UnsupportedTermError,
    band,
    bnot,
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
    sle,
    slt,
    udiv,
    ule,
    ult,
    urem,
    var,
)
from reentscan.smt import terms
from reentscan.smt.bitblast import BitBlaster
from reentscan.smt.sat import SatSolver
from reentscan.smt.solver import RECENT_MODELS
from reentscan.smt.terms import TRUE, FALSE, truthy

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
    # symbol names built from digests end up in report.json
    assert var("x").digest(64) == (
        "6e78265c7a0391ff5f26663459c1ee3e0d712be1683f457a494b0947a992f8b0")
    assert bv_add(var("x"), const(1)).digest(64) == (
        "7707da6ee8b4910c0d40ea4d3c067d75c96d92d11da438bdf704146401f7e757")
    assert bv_add(var("x"), const(1)).digest() == "7707da6ee8"


def test_digests_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = """
from reentscan.smt.terms import band, bv_add, const, eq, ult, var
x = var("x")
for _ in range(30):
    x = bv_add(x, x)
c = band([eq(x, const(7)), ult(var("y"), x)])
print(x.digest(64), c.digest(64))
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


def test_boolean_simplifications():
    x = var("x")
    assert bnot(bnot(truthy(x))) == truthy(x)
    assert band([TRUE, truthy(x), truthy(x)]) == truthy(x)
    assert band([FALSE, truthy(x)]) is FALSE
    assert eq(ite(ult(x, const(5)), const(1), const(0)), const(1)) == ult(x, const(5))
    assert bv_not(bv_not(const(7))).value == 7


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
    """Checks every heap decision against a linear scan over all variables."""

    def __init__(self) -> None:
        super().__init__()
        self.decisions = 0

    def _decide(self) -> int:
        best, best_act = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        lit = super()._decide()
        assert abs(lit) == best  # highest activity, lowest index among ties
        self.decisions += 1
        return lit


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


def _brute(n, clauses):
    return any(all(any((a >> (abs(l) - 1)) & 1 == (l > 0) for l in cl)
                   for cl in clauses)
               for a in range(1 << n))


def test_heap_decisions_match_linear_scan():
    rng = random.Random(3)
    instances = [_pigeonhole(6, 5)] + [_random_3sat(rng, 120) for _ in range(4)]
    for n, clauses in instances:
        checked = _load(ScanCheckedSat(), n, clauses)
        result = checked.solve()
        assert checked.decisions > 0
        assert checked.restarts > 0
        assert result is _load(SatSolver(), n, clauses).solve()
        if result:
            assert all(any(checked.model_value(abs(l)) == (l > 0) for l in cl)
                       for cl in clauses)
    assert _load(SatSolver(), *instances[0]).solve() is False  # 6 pigeons, 5 holes
    for _ in range(40):
        n, clauses = _random_3sat(rng, rng.randint(3, 12))
        assert _load(ScanCheckedSat(), n, clauses).solve() is _brute(n, clauses)


@st.composite
def _tseitin_cnf(draw):
    """Clauses over distinct variables, units among them."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True) \
        .flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    return n, [list(c) for c in draw(st.lists(clause, max_size=30))]


def _solver_state(sat):
    return (sat.num_vars, sat.clauses, sat.watches, sat.trail, sat.assign,
            sat.level, sat.reason, sat.phase, sat.heap, sat.heap_pos, sat.ok)


@settings(max_examples=300, deadline=None)
@given(_tseitin_cnf())
@example((3, [[1], [-1, 2], [1, 3], [-2]]))  # falsified, satisfied, contradictory
@example((2, [[-1, 2], [1], [-2, 1]]))
def test_bulk_load_matches_incremental_construction(cnf):
    n, clauses = cnf
    built = _load(SatSolver(), n, clauses)
    loaded = SatSolver.load(n, [list(c) for c in clauses])
    assert _solver_state(loaded) == _solver_state(built)
    assert loaded.solve() is built.solve()
    assert _solver_state(loaded) == _solver_state(built)


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
    return rng.choice([eq, ult, ule, slt, sle,
                       lambda p, q: bnot(eq(p, q))])(a, b)


def test_solver_against_enumeration():
    rng = random.Random(2024)
    solver = Solver(timeout=30.0)
    for _ in range(80):
        constraints = [_random_constraint(rng) for _ in range(rng.randint(1, 3))]
        brute_sat = any(
            all(evaluate(c, {"x": x, "y": y}) == 1 for c in constraints)
            for x in range(256) for y in range(256))
        # status first, so that earlier iterations' models can answer it
        status = solver.status(constraints)
        assert status is (SolverStatus.SAT if brute_sat else SolverStatus.UNSAT)
        verdict = solver.check_sat(constraints)
        assert verdict.status is status
        if verdict.is_sat:
            model = verdict.model or {}
            assert all(evaluate(c, model) == 1 for c in constraints)


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


def test_memo_key_keeps_constraint_order(solve_calls):
    solver = Solver()
    a, b = ult(const(5), var("x")), ult(var("y"), const(9))
    solver.check_sat([a, b])
    solver.check_sat([b, a])
    assert len(solve_calls) == 2


def test_unknown_is_not_memoized():
    solver = Solver(timeout=0)
    query = [ult(const(5), var("x"))]
    assert solver.check_sat(query).status is SolverStatus.UNKNOWN
    solver.timeout = 30.0
    assert solver.check_sat(query).status is SolverStatus.SAT


# -- status queries and the recent-model ring ---------------------------------

def test_status_is_answered_from_a_recent_model(solve_calls):
    solver = Solver()
    x, y = var("x"), var("y")
    assert solver.check_sat([ult(const(5), x)]).is_sat
    assert len(solve_calls) == 1
    # y is unbound in the stored model and reads as 0
    query = [ult(const(5), x), eq(y, const(0))]
    assert solver.status(query) is SolverStatus.SAT
    assert solver.status(query) is SolverStatus.SAT
    assert len(solve_calls) == 1


def test_status_hit_leaves_models_exact(solve_calls):
    solver = Solver()
    x = var("x")
    solver.check_sat([ult(const(5), x)])
    query = [ult(const(5), x), ult(x, bv_not(const(0)))]
    assert solver.status(query) is SolverStatus.SAT
    assert len(solve_calls) == 1
    # the model reader solves the key afresh rather than taking the hit's model
    assert solver.check_sat(query).model == Solver().check_sat(query).model
    assert len(solve_calls) == 3


def test_status_miss_is_solved(solve_calls):
    solver = Solver()
    x = var("x")
    solver.check_sat([ult(x, const(5))])
    assert solver.status([ult(const(9), x)]) is SolverStatus.SAT
    assert len(solve_calls) == 2
    assert solver.status([ult(x, const(5)), ult(const(9), x)]) \
        is SolverStatus.UNSAT
    assert len(solve_calls) == 3
    # the miss's model now answers queries it satisfies
    assert solver.status([ult(const(9), x), ult(const(7), x)]) \
        is SolverStatus.SAT
    assert len(solve_calls) == 3


def test_status_never_caches_unknown(solve_calls):
    solver = Solver(timeout=0)
    query = [ult(const(5), var("x"))]
    assert solver.status(query) is SolverStatus.UNKNOWN
    assert not solver._models
    solver.timeout = 30.0
    assert solver.status(query) is SolverStatus.SAT
    assert len(solve_calls) == 2


def test_model_ring_keeps_the_most_recent():
    solver = Solver()
    x = var("x")
    for v in range(RECENT_MODELS + 6):
        solver.check_sat([eq(x, const(v))])
    assert len(solver._models) == RECENT_MODELS
    assert [m["x"] for m in solver._models] == list(
        range(RECENT_MODELS + 5, 5, -1))


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


# -- the per-contract gate store ----------------------------------------------

def _loaded_state(sat):
    return sat.num_vars, sat.clauses, sat.trail, sat.watches


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


def test_store_loads_the_cnf_of_a_fresh_blaster():
    store = BitBlaster()
    fresh_vars = 0
    for query in _sharing_queries():
        fresh = BitBlaster().load(query)
        fresh_vars += fresh.num_vars
        assert _loaded_state(store.load(query)) == _loaded_state(fresh)
    assert store.num_vars < fresh_vars  # the queries did share gates


def test_shared_solver_models_match_fresh_solvers():
    shared = Solver()
    for query in _sharing_queries():
        verdict = shared.check_sat(query)
        assert verdict == Solver().check_sat(query)
    assert any(shared.check_sat(q).is_sat for q in _sharing_queries())


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
        store.load(bad)
    assert _loaded_state(store.load(follow)) == \
        _loaded_state(BitBlaster().load(follow))


def test_variable_bits_are_keyed_by_name_and_width():
    solver = Solver()
    narrow, wide = var("x", 8), var("x", 16)
    assert solver.check_sat([eq(narrow, const(0xAB, 8))]).model == {"x": 0xAB}
    assert solver.check_sat([eq(wide, const(0x1234, 16))]).model == {"x": 0x1234}
    store = BitBlaster()
    narrow_bits, wide_bits = store.blast_bv(narrow), store.blast_bv(wide)
    assert (len(narrow_bits), len(wide_bits)) == (8, 16)
    assert not set(narrow_bits) & set(wide_bits)


def test_deep_terms_blast_without_recursion():
    # lowering and the cone walk keep their own stacks: a chain deeper
    # than Python's recursion limit still loads
    chain = var("x0", 8)
    for i in range(1, 1500):
        chain = bv_xor(chain, var(f"x{i}", 8))
    verdict = Solver().check_sat([eq(chain, const(5, 8))])
    assert verdict.is_sat
    assert evaluate(chain, verdict.model) == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, (1 << 256) - 1))
def test_evaluate_matches_solver_on_point_constraints(v):
    solver = Solver()
    x = var("x")
    verdict = solver.check_sat([eq(x, const(v))])
    assert verdict.is_sat
    assert verdict.model["x"] == v
