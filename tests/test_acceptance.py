"""Acceptance gate: full-pipeline behavior on the five committed fixtures.

Each criterion below runs against the same per-fixture analysis results,
collected once per test session:

1. exact benign/vulnerable pair splits per contract,
2. function-pair combination counts,
3. end-to-end runtime upper bounds,
4. inter-contract graph structure (create edges, re-entry chain),
5. the differential oracle corpus,
6. the property suites (degenerate verdicts, determinism, invariants),
7. structural conformance of the exploration speed-ups.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asm import assemble, concrete
from reentscan.evm_core import Bytecode, selector_of
from reentscan.smt import Solver, terms as tm
from reentscan.smt.bitblast import BitBlaster
from reentscan.symdomain import (
    COMPLETED,
    EdgeKind,
    EndState,
)
from reentscan.symvm import AbiCalldata, SymVM
from reentscan.verifier import AnalyzerConfig, Status, analyze

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TESTS = Path(__file__).resolve().parent
PINNED_REPORTS = TESTS / "fixture_reports.json"

# published reference wall-clock seconds; the bound asserted is 10x each
REFERENCE_SECONDS = {
    "fund": 20.750,
    "known_reentrancy": 23.003,
    "bank": 47.579,
    "token": 519.676,
    "known_cross_function": 37.705,
}

# (benign pairs, vulnerable pairs); pair count is their sum
EXPECTED_SPLIT = {
    "fund": (0, 1),
    "known_reentrancy": (0, 1),
    "bank": (2, 1),
    "token": (11, 1),
    "known_cross_function": (1, 1),
}


def load_fixture(name: str) -> Bytecode:
    return Bytecode(bytes.fromhex((FIXTURES / f"{name}.hex").read_text().strip()))


@pytest.fixture(scope="module")
def runs():
    """label -> (AnalysisReport, wall seconds) for every fixture."""
    out = {}
    for name in REFERENCE_SECONDS:
        start = time.perf_counter()
        report = analyze([(name, load_fixture(name), "fixture")])
        out[name] = (report, time.perf_counter() - start)
    return out


def _main_contract(report, name):
    (contract,) = [c for c in report.contracts if c.label == name]
    return contract


# -- 1: verdict reproduction --------------------------------------------------

def test_criterion1_verdict_split(runs):
    for name, (benign, vulnerable) in EXPECTED_SPLIT.items():
        report, _ = runs[name]
        contract = _main_contract(report, name)
        got_benign = sum(p.status is Status.BENIGN for p in contract.pairs)
        got_vulnerable = sum(p.status is Status.VULNERABLE
                             for p in contract.pairs)
        assert (got_benign, got_vulnerable) == (benign, vulnerable), name
        assert not any(p.status is Status.INCONCLUSIVE for p in contract.pairs)
        assert contract.status is Status.VULNERABLE
        assert report.status is Status.VULNERABLE


def test_criterion1_every_vulnerable_pair_has_witness(runs):
    for name in EXPECTED_SPLIT:
        report, _ = runs[name]
        for pair in _main_contract(report, name).pairs:
            if pair.status is Status.VULNERABLE:
                assert pair.witness, f"{name}: missing witness model"


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items()
                if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def test_criterion1_reports_match_pinned(runs):
    """Each fixture's whole report, witnesses included, equals the pinned
    one in fixture_reports.json (timings dropped). A change that means to
    move a report regenerates that file and says why."""
    pinned = json.loads(PINNED_REPORTS.read_text())
    assert sorted(pinned) == sorted(REFERENCE_SECONDS)
    for name in REFERENCE_SECONDS:
        report, _ = runs[name]
        assert _without_elapsed(report.to_dict()) == pinned[name], name


# -- 2: combination counts ----------------------------------------------------

def test_criterion2_pair_counts(runs):
    for name, (benign, vulnerable) in EXPECTED_SPLIT.items():
        report, _ = runs[name]
        assert len(_main_contract(report, name).pairs) == benign + vulnerable


# -- 3: runtime upper bound ---------------------------------------------------

def test_criterion3_runtime_bound(runs):
    for name, bound in REFERENCE_SECONDS.items():
        _, elapsed = runs[name]
        assert elapsed <= 10 * bound, \
            f"{name} took {elapsed:.1f}s, bound {10 * bound:.0f}s"


# -- 4: inter-contract graph structure ----------------------------------------

def test_criterion4_bank_has_create_edges(runs):
    # walked up from its end, every path has each constructor run it entered
    # come back; the graph as a whole need not, since a fork inside a
    # constructor frame gives its one entry a return on either side
    report, _ = runs["bank"]
    contract = _main_contract(report, "bank")
    creating = 0
    for pair in contract.pairs:
        graph = pair.scenarios.ecfg
        parent = {dst: (src, kind) for src, dst, kind in graph.edges}
        for bid, node in graph.nodes.items():
            if node.end_state not in COMPLETED:
                continue
            kinds = []
            while bid in parent:
                bid, kind = parent[bid]
                kinds.append(kind)
            enters = kinds.count(EdgeKind.CREATE_ENTER)
            assert enters == kinds.count(EdgeKind.CREATE_RETURN)
            creating += enters > 0
    assert creating >= 1


def test_criterion4_cross_function_reentry_chain(runs):
    report, _ = runs["known_cross_function"]
    contract = _main_contract(report, "known_cross_function")
    (pair,) = [p for p in contract.pairs if p.status is Status.VULNERABLE]
    graph = pair.scenarios.ecfg
    enter = {(s, d) for s, d, k in graph.edges if k is EdgeKind.CALL_ENTER}

    def contract_of(node):
        return graph.nodes[node].contract

    chains = [(u, v, w) for u, v in enter for v2, w in enter if v == v2
              and contract_of(u) == "c0" and contract_of(w) == "c0"
              and contract_of(v) != "c0"]
    assert chains, "no victim -> dummy -> victim call chain"
    # the dummy hands control back the same way it got it
    ret = {(s, d) for s, d, k in graph.edges if k is EdgeKind.CALL_RETURN}
    assert any(contract_of(s) == "c0" and contract_of(d) != "c0"
               for s, d in ret)
    assert any(contract_of(s) != "c0" and contract_of(d) == "c0"
               for s, d in ret)


# -- 5 and 6: differential corpus and property suites -------------------------

def _run_suite(*selectors: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *selectors],
        cwd=TESTS.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_criterion5_differential_corpus():
    out = _run_suite(str(TESTS / "test_differential.py"))
    (summary,) = [l for l in out.splitlines() if "passed" in l]
    passed = int(summary.split()[0])
    assert passed >= 20


def test_criterion6_property_suites():
    _run_suite(
        str(TESTS / "test_symdomain.py"),          # fork isolation
        str(TESTS / "test_verifier.py"),           # degenerates, determinism
        str(TESTS / "test_smt.py") + "::test_conjunction_grows_monotonically",
        str(TESTS / "test_smt.py") + "::test_equivalence_reflexive_and_symmetric",
        str(TESTS / "test_symvm.py") + "::test_callable_flag_inherited_past_the_call",
        str(TESTS / "test_symvm.py") + "::test_completed_blocks_have_balanced_call_stack",
    )


# -- 7: speed-up conformance --------------------------------------------------

def test_criterion7_call_success_is_concrete():
    # branching on an unknown call's success must not fork or constrain
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 PUSH1 0xbb PUSH1 0 CALL
        PUSHL ok JUMPI
        PUSH1 9 PUSH1 0 SSTORE STOP
        ok: JUMPDEST STOP
    """)), concrete())
    (block,) = res.completed
    assert block.path_condition is tm.TRUE
    assert block.world.accounts["c0"].storage == {}  # success branch taken


def test_criterion7_revert_blocks_have_no_descendants(runs):
    for name in EXPECTED_SPLIT:
        report, _ = runs[name]
        for pair in _main_contract(report, name).pairs:
            if pair.scenarios is None:
                continue
            graph = pair.scenarios.ecfg
            reverted = {bid for bid, n in graph.nodes.items()
                        if n.end_state is EndState.REVERT}
            assert not any(src in reverted for src, _, _ in graph.edges)


def _reads_balance(term: tm.Term, label: str | None = None) -> bool:
    return any(v.name.startswith(f"balance_{label or ''}")
               for v in BitBlaster().variables([term]))


def test_criterion7_balance_terms_only_at_end(runs):
    # mid-path exploration must carry no balance constraints at all: no
    # solvency term of the path's world (terms are interned, so compare by
    # identity) and nothing that reads a balance
    res = SymVM().run_entry(load_fixture("fund"),
                            AbiCalldata(selector_of("withdraw()"), "f"))
    for block in res.completed + res.sealed:
        solvency = [a.solvency_constraint()
                    for a in block.world.accounts.values()]
        for c in tm.conjuncts(block.path_condition):
            assert not any(c is s for s in solvency)
            assert not _reads_balance(c)

    # final I and C conditions do carry them: that is where double-pay shows
    report, _ = runs["fund"]
    (pair,) = _main_contract(report, "fund").pairs
    for conditions in (pair.scenarios.I, pair.scenarios.C):
        assert any(_reads_balance(c, "c0")
                   for cond in conditions for c in tm.conjuncts(cond))
