"""Pair verdicts: degenerate cases, witnesses, determinism, pair enumeration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from asm import assemble
from reentscan.evm_core import Bytecode, selector_of
from reentscan.smt import Solver, SolverStatus, SolverVerdict
from reentscan.smt.terms import evaluate
from reentscan.symvm import FunctionEntry, UndecidedDispatch, extract_function_ids
from reentscan.verifier import (
    AnalyzerConfig,
    Status,
    analyze,
    enumerate_pairs,
    verify_pair,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Bytecode:
    return Bytecode(bytes.fromhex((FIXTURES / name).read_text().strip()))


def entry_for(code: Bytecode, signature: str) -> FunctionEntry:
    sel = selector_of(signature)
    (entry,) = [e for e in extract_function_ids(code) if e.selector == sel]
    return entry


# -- degenerate cases ---------------------------------------------------------

def test_pair_without_external_call_is_benign():
    # transfer makes no external call, so the attacker never gets to
    # re-enter and both schedules coincide path for path
    code = load_fixture("known_cross_function.hex")
    f = FunctionEntry(selector=selector_of("transfer(address,uint256)"),
                      has_call=True)
    result = verify_pair(code, f, entry_for(code, "withdraw()"))
    assert result.status is Status.BENIGN
    assert result.paths_I > 0 and result.paths_I == result.paths_C


def test_always_reverting_function_has_empty_sets():
    # f makes a call but then reverts unconditionally: no path completes
    sel = selector_of("f()")
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        PUSH4 0x{sel.hex()[2:]} EQ PUSHL body JUMPI STOP
        body: JUMPDEST
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 CALLER GAS CALL POP
        PUSH1 0 PUSH1 0 REVERT
    """))
    # extraction only sees completing paths, so hand-build the entry
    f = FunctionEntry(selector=sel, has_call=True)
    result = verify_pair(code, f, f)
    assert result.status is Status.BENIGN
    assert result.paths_I == 0 and result.paths_C == 0
    assert result.note == "empty scenario set"


def test_path_explosion_is_inconclusive():
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify_pair(code, w, w, AnalyzerConfig(path_cap=1))
    assert result.status is Status.INCONCLUSIVE
    assert result.note and "path" in result.note.lower()


def fund_probe(before_read: str = "", after_payout: str = "") -> Bytecode:
    """fund, with extra code before the balance read or after the payout."""
    sel = selector_of("withdraw()")
    return Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {sel.hex()} EQ PUSHL withdraw JUMPI STOP
        withdraw: JUMPDEST POP
        {before_read}
        CALLER SLOAD
        DUP1 ISZERO PUSHL done JUMPI
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP5 CALLER GAS CALL POP
        {after_payout}
        POP
        PUSH1 0 CALLER SSTORE
        STOP
        done: JUMPDEST POP STOP
    """))


def staticcall_probe() -> Bytecode:
    """fund with a STATICCALL to itself just after the payout."""
    return fund_probe(
        after_payout="PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 ADDRESS GAS STATICCALL POP")


def loop_probe() -> Bytecode:
    """fund with a concrete five-pass loop before the balance read."""
    return fund_probe(before_read="""
        PUSH1 0 loop: JUMPDEST PUSH1 1 ADD DUP1 PUSH1 5 GT PUSHL loop JUMPI POP
    """)


def test_unsupported_opcode_makes_contract_inconclusive():
    # the paying path reaches STATICCALL; dropping it would leave withdraw
    # without a call, so no pairs and a benign contract
    report = analyze([("probe", staticcall_probe(), "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "STATICCALL" in contract.error
    assert report.status is Status.INCONCLUSIVE


def test_unsupported_opcode_makes_pair_inconclusive():
    code = staticcall_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify_pair(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "STATICCALL" in result.note


def test_loop_bound_makes_contract_inconclusive():
    # every withdraw path is cut at the default loop bound of 3; dropping
    # them would leave no withdraw function, no pairs and a benign contract
    report = analyze([("probe", loop_probe(), "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "loop bound" in contract.error
    assert report.status is Status.INCONCLUSIVE


def test_loop_bound_makes_pair_inconclusive():
    code = loop_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify_pair(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "loop bound" in result.note
    assert verify_pair(code, w, w, AnalyzerConfig(loop_bound=10)).status \
        is Status.VULNERABLE


def test_loop_passes_are_counted_per_call_frame():
    # the re-entered withdraw runs the five-pass loop again on the same
    # path; its frame counts its own passes, so a bound of 5 fits both runs
    code = loop_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify_pair(code, w, w, AnalyzerConfig(loop_bound=5))
    assert result.status is Status.VULNERABLE


def test_depth_bound_makes_pair_inconclusive():
    # at depth bound 2 the attacker cannot re-enter: the paying C path is cut
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify_pair(code, w, w, AnalyzerConfig(call_depth_bound=2))
    assert result.status is Status.INCONCLUSIVE
    assert "depth bound" in result.note


def test_empty_sequential_side_leaves_verdict_to_reentrant_side():
    # withdraw pays 0 to the caller, then sets slot 7; claim reverts once
    # slot 7 is set and otherwise pays 1 wei. After withdraw, claim always
    # reverts, so I is empty; re-entered mid-withdraw, claim pays.
    w, c = selector_of("withdraw()"), selector_of("claim()")
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {w.hex()} EQ PUSHL withdraw JUMPI
        DUP1 PUSH4 {c.hex()} EQ PUSHL claim JUMPI STOP
        withdraw: JUMPDEST POP
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 CALLER GAS CALL POP
        PUSH1 1 PUSH1 7 SSTORE STOP
        claim: JUMPDEST POP
        PUSH1 7 SLOAD PUSHL fail JUMPI
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 CALLER GAS CALL POP STOP
        fail: JUMPDEST PUSH1 0 PUSH1 0 REVERT
    """))
    result = verify_pair(code, entry_for(code, "withdraw()"),
                         entry_for(code, "claim()"))
    assert (result.paths_I, result.paths_C) == (0, 1)
    assert result.status is Status.VULNERABLE
    (cond,) = result.scenarios.C
    assert all(evaluate(t, result.witness) == 1 for t in cond.terms)


def test_dag_shaped_balance_slot_is_analyzed():
    # fund with balances[CALLER doubled 64 times]: the slot term is a DAG
    # of 65 nodes whose tree unfolding has 2^64 leaves
    sel = selector_of("withdraw()")
    slot = "CALLER " + "DUP1 ADD " * 64
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {sel.hex()} EQ PUSHL withdraw JUMPI STOP
        withdraw: JUMPDEST POP
        {slot} SLOAD
        DUP1 ISZERO PUSHL done JUMPI
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP5 CALLER GAS CALL POP
        POP
        PUSH1 0 {slot} SSTORE
        STOP
        done: JUMPDEST POP STOP
    """))
    report = analyze([("dag64", code, "test")])
    assert report.status is Status.VULNERABLE
    (contract,) = report.contracts
    assert [p.status for p in contract.pairs] == [Status.VULNERABLE]


# -- witnesses ----------------------------------------------------------------

def test_vulnerable_witness_satisfies_a_candidate_condition():
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify_pair(code, w, w)
    assert result.status is Status.VULNERABLE
    assert result.witness
    # the extracted model must satisfy some surviving re-entrant condition
    assert any(
        all(evaluate(t, result.witness) == 1 for t in c.terms)
        for c in result.scenarios.C)


# -- pair enumeration ---------------------------------------------------------

def _fn(selector, has_call):
    return FunctionEntry(selector=selector, has_call=has_call)


def test_enumerate_pairs_shape():
    funcs = [
        _fn(bytes([0, 0, 0, 1]), True),
        _fn(bytes([0, 0, 0, 2]), False),
        _fn(bytes([0, 0, 0, 3]), True),
        _fn(None, True),  # fallback: excluded from both roles
    ]
    pairs = enumerate_pairs(funcs)
    assert len(pairs) == 2 * 3
    assert all(f.has_call and f.selector is not None for f, _ in pairs)
    assert all(g.selector is not None for _, g in pairs)
    # self-pairs are included
    assert any(f is g for f, g in pairs)


def test_enumerate_pairs_without_callers_is_empty():
    funcs = [_fn(bytes([0, 0, 0, 1]), False), _fn(None, False)]
    assert enumerate_pairs(funcs) == []


# -- function discovery -------------------------------------------------------

class _UnknownSolver(Solver):
    """Answers every query that reaches the SAT engine with Unknown."""

    def _solve(self, flat, start):
        return SolverVerdict(SolverStatus.UNKNOWN, None)


def test_undecided_selector_uniqueness_raises():
    # no dispatcher: the one path is trivially reachable, but whether only
    # one function id reaches it goes to the SAT engine and stays Unknown
    code = Bytecode(assemble("PUSH1 1 PUSH1 0 SSTORE STOP"))
    with pytest.raises(UndecidedDispatch, match="only selector"):
        extract_function_ids(code, _UnknownSolver())


def test_undecided_dispatch_makes_contract_inconclusive():
    # with no time to solve, discovery cannot name fund's functions; the
    # contract must not come out benign with no pairs
    report = analyze([("fund", load_fixture("fund.hex"), "fixture")],
                     AnalyzerConfig(solver_timeout=0))
    (contract,) = report.contracts
    assert report.status is Status.INCONCLUSIVE
    assert contract.functions == [] and contract.pairs == []
    assert contract.error.startswith("undecided dispatch")
    assert "reachable" in contract.error


# -- whole-target analysis ----------------------------------------------------

def test_deployed_runtime_is_analyzed_once():
    # f() deploys a child whose runtime is the single byte 0x42, then calls
    # out: every scenario run of the pair deploys it again
    sel = selector_of("f()")
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        PUSH4 {sel.hex()} EQ PUSHL body JUMPI STOP
        body: JUMPDEST
        PUSH32 0x604260005360016000f300000000000000000000000000000000000000000000
        PUSH1 0 MSTORE                    ; init: MSTORE8(0, 0x42); RETURN(0, 1)
        PUSH1 10 PUSH1 0 PUSH1 0 CREATE POP
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 CALLER GAS CALL POP
        STOP
    """))
    report = analyze([("X", code, "test")])
    assert [c.label for c in report.contracts] == ["X", "X.created1"]
    assert report.contracts[1].source == "create"
    (pair,) = report.contracts[0].pairs
    deployed = pair.scenarios.created
    assert len(deployed) > 1 and {c.data for c in deployed} == {b"\x42"}


def test_shared_solver_memo_matches_fresh_solvers():
    # analyze answers repeats from one memo per contract; each pair alone must
    # come out the same with a solver of its own
    code = load_fixture("known_cross_function.hex")
    config = AnalyzerConfig()
    (contract,) = analyze([("known_cross_function", code, "fixture")],
                          config).contracts
    assert len(contract.pairs) == 2
    for shared in contract.pairs:
        fresh = verify_pair(code, shared.f, shared.g, config)
        assert fresh.status is shared.status
        assert fresh.witness == shared.witness
        assert (fresh.paths_I, fresh.paths_C) == (shared.paths_I, shared.paths_C)


def test_reports_do_not_depend_on_hash_seed():
    # str hashes, and with them set and dict orders, differ between processes;
    # token's twelve pairs put the most queries through the solver's memo,
    # status set and model ring
    src = str(FIXTURES.parent / "src")
    script = """
import json, sys
from pathlib import Path
from reentscan.evm_core import Bytecode
from reentscan.verifier import analyze
targets = [(Path(p).stem, Bytecode(bytes.fromhex(open(p).read().strip())),
            "fixture") for p in sys.argv[1:]]
print(json.dumps(analyze(targets).to_dict()))
"""
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(FIXTURES / "fund.hex"),
         str(FIXTURES / "token.hex")],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        for seed in ("1", "2")]

    def normalized(proc):
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0
        d = json.loads(out)
        d.pop("elapsed_ms")
        for c in d["contracts"]:
            for p in c["pairs"]:
                p.pop("elapsed_ms")
        return d

    first, second = (normalized(p) for p in procs)
    assert first == second
    assert [c["status"] for c in first["contracts"]] == [
        Status.VULNERABLE.value, Status.VULNERABLE.value]
    assert len(first["contracts"][1]["pairs"]) == 12
