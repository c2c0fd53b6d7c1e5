"""Pair verdicts: degenerate cases, witnesses, determinism, pair enumeration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from asm import assemble
from reentscan import verifier
from reentscan.evm_core import Bytecode, selector_of
from reentscan.smt import IndeterminateEquivalence, Solver, SolverStatus, SolverVerdict
from reentscan.smt.bitblast import BitBlaster
from reentscan.smt import terms as tm
from reentscan.smt.terms import evaluate
from reentscan.symdomain import ECFG, EdgeKind
from reentscan.symvm import (FunctionEntry, SymVM, UndecidedDispatch,
                             extract_function_ids)
from reentscan.verifier import (
    AnalyzerConfig,
    ScenarioSet,
    Status,
    analyze,
    collect_scenarios,
    verify_pair,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Bytecode:
    return Bytecode(bytes.fromhex((FIXTURES / name).read_text().strip()))


def entry_for(code: Bytecode, signature: str) -> FunctionEntry:
    sel = selector_of(signature)
    (entry,) = [e for e in extract_function_ids(code) if e.selector == sel]
    return entry


def verify(code: Bytecode, f: FunctionEntry, g: FunctionEntry,
           config: AnalyzerConfig | None = None,
           solver: Solver | None = None):
    """Decide (f, g) alone, from a walk of f in which g is the attacker's
    one choice."""
    config = config or AnalyzerConfig()
    solver = solver or Solver(config.solver_timeout)
    (scenarios,) = collect_scenarios(code, f, [g], config, solver)
    return verify_pair(scenarios, solver)


# -- degenerate cases ---------------------------------------------------------

def test_pair_without_external_call_is_benign():
    # transfer makes no external call, so the attacker never gets control:
    # g does not run after it and no end goes to either set
    code = load_fixture("known_cross_function.hex")
    f = FunctionEntry(selector=selector_of("transfer(address,uint256)"),
                      has_call=True)
    result = verify(code, f, entry_for(code, "withdraw()"))
    assert result.status is Status.BENIGN
    assert result.paths_I == result.paths_C == 0
    assert result.note == "empty scenario set"
    assert all(k is not EdgeKind.NEXT_TX
               for _, _, k in result.scenarios.ecfg.edges)


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
    result = verify(code, f, f)
    assert result.status is Status.BENIGN
    assert result.paths_I == 0 and result.paths_C == 0
    assert result.note == "empty scenario set"


def test_path_explosion_is_inconclusive():
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify(code, w, w, AnalyzerConfig(path_cap=1))
    assert result.status is Status.INCONCLUSIVE
    assert result.note and "path" in result.note.lower()


def fund_probe(before_read: str = "", after_payout: str = "",
               gas: str = "GAS", value: str = "DUP5") -> Bytecode:
    """fund, with extra code before the balance read or after the payout,
    and the payout's gas and value operands as given."""
    sel = selector_of("withdraw()")
    return Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {sel.hex()} EQ PUSHL withdraw JUMPI STOP
        withdraw: JUMPDEST POP
        {before_read}
        CALLER SLOAD
        DUP1 ISZERO PUSHL done JUMPI
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 {value} CALLER {gas} CALL POP
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


def concretize_probe() -> Bytecode:
    """fund with an MLOAD at a symbolic offset before the balance read, on
    a path whose symbolic*symbolic branch the solver leaves Unknown."""
    return fund_probe(before_read="""
        PUSH1 4 CALLDATALOAD PUSH1 36 CALLDATALOAD MUL PUSHL next JUMPI
        next: JUMPDEST PUSH1 4 CALLDATALOAD MLOAD POP
    """)


def jump_probe() -> Bytecode:
    """fund with a jump to a calldata word before the balance read; the
    attacker who passes the offset of ``pay`` runs fund's withdraw."""
    return fund_probe(before_read="PUSH1 4 CALLDATALOAD JUMP pay: JUMPDEST")


def mload_probe() -> Bytecode:
    """fund with a jump on the memory word at a calldata offset before the
    balance read; the attacker who passes 0x20 reads the 1 stored there."""
    return fund_probe(before_read="""
        PUSH1 1 PUSH1 0x20 MSTORE
        PUSH1 4 CALLDATALOAD MLOAD PUSHL cont JUMPI STOP cont: JUMPDEST
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
    result = verify(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "STATICCALL" in result.note


@pytest.mark.parametrize("op", ["PUSH0", "SELFBALANCE", "CHAINID", "BASEFEE"])
def test_post_istanbul_opcode_keeps_its_path(op):
    # an opcode missing from the table halted the paying path as INVALID:
    # withdraw lost its call and the contract came out benign
    (contract,) = analyze([("probe", fund_probe(before_read=f"{op} POP"),
                            "test")]).contracts
    assert contract.status is Status.VULNERABLE


def test_transient_storage_makes_contract_inconclusive():
    report = analyze([("probe", fund_probe(before_read="PUSH1 0 TLOAD POP"),
                       "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "unsupported opcode TLOAD" in contract.error


@pytest.mark.parametrize("log", ["PUSH1 4 CALLDATALOAD PUSH1 0 LOG0",
                                 "PUSH1 0 PUSH1 4 CALLDATALOAD LOG0"])
def test_symbolic_log_range_keeps_its_path(log):
    # an event with a dynamic argument logs a calldata-dependent range;
    # nothing reads it, so it is left unpinned and the verdict stands
    (contract,) = analyze([("probe", fund_probe(before_read=log),
                            "test")]).contracts
    assert contract.status is Status.VULNERABLE


def test_unconcretizable_operand_makes_contract_inconclusive():
    # the MLOAD offset has no model on any withdraw path; dropping those
    # paths would leave only the fallback, no pairs and a benign contract
    report = analyze([("probe", concretize_probe(), "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "cannot concretize mload offset" in contract.error
    assert report.status is Status.INCONCLUSIVE


def test_unconcretizable_operand_makes_pair_inconclusive():
    code = concretize_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "cannot concretize mload offset" in result.note


def test_symbolic_jump_target_makes_contract_inconclusive():
    # pinning the target to one model value would explore one destination
    # of many; the others, pay among them, would drop out
    report = analyze([("probe", jump_probe(), "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "symbolic jump target at c0@" in contract.error
    assert report.status is Status.INCONCLUSIVE


def test_symbolic_jump_target_makes_pair_inconclusive():
    code = jump_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "symbolic jump target at c0@" in result.note


def test_symbolic_memory_offset_makes_contract_inconclusive():
    # pinning the offset to one model value would read one word of memory;
    # the path through 0x20, to the payout, would drop out
    report = analyze([("probe", mload_probe(), "test")])
    (contract,) = report.contracts
    assert contract.status is Status.INCONCLUSIVE
    assert "symbolic mload offset at c0@" in contract.error
    assert report.status is Status.INCONCLUSIVE


def test_symbolic_memory_offset_makes_pair_inconclusive():
    code = mload_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "symbolic mload offset at c0@" in result.note


def test_single_valued_jump_target_decides():
    # the jump is reached only when the word is pay: the path condition
    # leaves the target one value, so pinning it drops nothing
    code = fund_probe(before_read="""
        PUSH1 4 CALLDATALOAD DUP1 PUSHL pay EQ PUSHL ok JUMPI STOP
        ok: JUMPDEST JUMP pay: JUMPDEST
    """)
    (contract,) = analyze([("probe", code, "test")]).contracts
    assert contract.status is Status.VULNERABLE
    w = entry_for(code, "withdraw()")
    assert verify(code, w, w).status is Status.VULNERABLE


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
    result = verify(code, w, w)
    assert result.status is Status.INCONCLUSIVE
    assert "loop bound" in result.note
    assert verify(code, w, w, AnalyzerConfig(loop_bound=10)).status \
        is Status.VULNERABLE


def test_loop_passes_are_counted_per_call_frame():
    # the re-entered withdraw runs the five-pass loop again on the same
    # path; its frame counts its own passes, so a bound of 5 fits both runs
    code = loop_probe()
    w = FunctionEntry(selector=selector_of("withdraw()"), has_call=True)
    result = verify(code, w, w, AnalyzerConfig(loop_bound=5))
    assert result.status is Status.VULNERABLE


def test_depth_bound_makes_pair_inconclusive():
    # at depth bound 2 the attacker cannot re-enter: the paying C path is cut
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify(code, w, w, AnalyzerConfig(call_depth_bound=2))
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
    result = verify(code, entry_for(code, "withdraw()"),
                         entry_for(code, "claim()"))
    assert (result.paths_I, result.paths_C) == (0, 1)
    assert result.status is Status.VULNERABLE
    (cond,) = result.scenarios.C
    assert evaluate(cond, result.witness) == 1


def test_attacker_may_re_enter_at_a_later_call_to_unknown_code():
    # withdraw first notifies the caller with an empty call, then pays:
    # the attacker lets the notification return and re-enters at the
    # payout, before the balance is zeroed
    notify = "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 CALLER GAS CALL POP"
    (contract,) = analyze([("probe", fund_probe(before_read=notify),
                            "test")]).contracts
    (pair,) = contract.pairs
    assert pair.status is Status.VULNERABLE
    assert (pair.paths_I, pair.paths_C) == (2, 3)


@pytest.mark.parametrize("gas, value, status, reentered", [
    ("GAS", "DUP5", Status.VULNERABLE, True),
    # the payout forwards the 2300 stipend alone
    ("PUSH1 0", "DUP5", Status.BENIGN, False),
    ("PUSH2 2300", "DUP5", Status.VULNERABLE, True),
    ("PUSH1 4 CALLDATALOAD", "DUP5", Status.VULNERABLE, True),
    # a call with no value gets no stipend: 2300 is the most that is harmless
    ("PUSH2 2300", "PUSH1 0", Status.BENIGN, False),
    ("PUSH2 2301", "PUSH1 0", Status.BENIGN, True),  # re-entered, pays 0
])
def test_a_call_that_forwards_only_the_stipend_is_no_re_entry_point(
        gas, value, status, reentered):
    # since Istanbul a callee left with 2300 gas or less can neither write
    # storage nor call with value, so the attacker cannot re-enter there;
    # the call still reaches unknown code, so withdraw keeps its pair
    (contract,) = analyze([("probe", fund_probe(gas=gas, value=value),
                            "test")]).contracts
    (pair,) = contract.pairs
    assert (pair.paths_C > 0) is reentered
    assert pair.status is status


@pytest.mark.parametrize("C, status", [
    ([], Status.BENIGN),
    ([tm.ult(tm.var("x"), tm.const(5))], Status.VULNERABLE),
])
def test_undecided_sequential_condition_does_not_block_a_verdict(C, status):
    # the solver cannot lower a symbolic product, so whether I's one
    # condition is feasible stays Unknown; it stays in I. An empty C is
    # benign whatever I holds, and a c that I's condition provably does not
    # match is a re-entrant run the sequential ones miss.
    x, y = tm.var("x"), tm.var("y")
    I = [tm.eq(tm.bv_mul(x, y), tm.const(6))]
    assert Solver().check_sat(I).status is SolverStatus.UNKNOWN
    f = g = FunctionEntry(bytes(4), True)
    result = verify_pair(ScenarioSet(f, g, ECFG(), [], I=list(I), C=list(C)),
                         Solver())
    assert result.status is status
    assert result.scenarios.I == I


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


def offset_payers(setters: int, payers: int) -> Bytecode:
    """``setters`` functions seti() that store 1 at slot i, and ``payers``
    fund-shaped functions payj() on the balance slot CALLER + j + 1."""
    names = ([f"set{i}" for i in range(setters)]
             + [f"pay{j}" for j in range(payers)])
    arms = "\n".join(f"DUP1 PUSH4 {selector_of(n + '()').hex()} EQ PUSHL {n} JUMPI"
                     for n in names)
    bodies = [f"set{i}: JUMPDEST POP PUSH1 1 PUSH1 {i} SSTORE STOP"
              for i in range(setters)]
    for j in range(payers):
        slot = f"CALLER PUSH1 {j + 1} ADD"
        bodies.append(f"""
            pay{j}: JUMPDEST POP
            {slot} SLOAD
            DUP1 ISZERO PUSHL done{j} JUMPI
            PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP5 CALLER GAS CALL POP
            POP
            PUSH1 0 {slot} SSTORE
            STOP
            done{j}: JUMPDEST POP STOP
        """)
    return Bytecode(assemble("PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR\n"
                             + arms + "\nSTOP\n" + "\n".join(bodies)))


def test_payers_at_different_offsets_are_decided():
    # the cross pairs of pay0 and pay2 read CALLER + 1 after a write to
    # CALLER + 3, an alias the search leaves undecided at this timeout, so
    # the terms must rule it out. Every payer pays only its own slot: each
    # self pair is vulnerable, every other pair benign.
    code = offset_payers(8, 4)
    (contract,) = analyze([("payers", code, "test")],
                          AnalyzerConfig(solver_timeout=5)).contracts
    assert len(contract.pairs) == 4 * 12
    for pair in contract.pairs:
        expected = Status.VULNERABLE if pair.f is pair.g else Status.BENIGN
        assert pair.status is expected, (pair.f, pair.g, pair.note)


# -- witnesses ----------------------------------------------------------------

def test_vulnerable_witness_satisfies_a_candidate_condition():
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify(code, w, w)
    assert result.status is Status.VULNERABLE
    assert result.witness
    # the extracted model must satisfy some surviving re-entrant condition
    assert any(evaluate(c, result.witness) == 1 for c in result.scenarios.C)
    assert result.note is None


class _UnminimizedSolver(Solver):
    """Runs out of time whenever it minimizes a model."""

    def _minimize(self, key):
        return None


def test_witness_out_of_time_to_minimize_stays_vulnerable():
    # a decided SAT keeps its search's model; it does not turn Unknown
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify(code, w, w, solver=_UnminimizedSolver())
    assert result.status is Status.VULNERABLE
    assert result.note == "witness not minimized: out of time"
    assert any(evaluate(c, result.witness) == 1 for c in result.scenarios.C)


def test_witness_the_solver_cannot_lower_stays_vulnerable():
    # pay() sets slot 1, pays f_arg0 * f_arg1 to the caller, then clears
    # slot 1; poke() reverts unless slot 1 is set, so it completes only
    # re-entered. The witness query holds the product, which the solver
    # cannot lower: check_sat's model is the witness, over the condition's
    # variables alone, and the note names the operation
    pay, poke = selector_of("pay(uint256,uint256)"), selector_of("poke()")
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {pay.hex()} EQ PUSHL pay JUMPI
        DUP1 PUSH4 {poke.hex()} EQ PUSHL poke JUMPI STOP
        pay: JUMPDEST POP
        PUSH1 1 PUSH1 1 SSTORE
        PUSH1 4 CALLDATALOAD PUSH1 0x24 CALLDATALOAD MUL
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP5 CALLER GAS CALL POP
        POP
        PUSH1 0 PUSH1 1 SSTORE STOP
        poke: JUMPDEST POP
        PUSH1 1 SLOAD PUSHL ok JUMPI PUSH1 0 PUSH1 0 REVERT
        ok: JUMPDEST STOP
    """))
    (contract,) = analyze([("product", code, "test")]).contracts
    (pair,) = [p for p in contract.pairs if p.g.selector == poke]
    assert pair.status is Status.VULNERABLE
    assert (pair.paths_I, pair.paths_C) == (0, 1)
    assert pair.note == "witness not minimized: symbolic*symbolic multiplication"
    (c,) = pair.scenarios.C
    assert set(pair.witness) == {v.name for v in BitBlaster().variables([c])}
    assert evaluate(c, pair.witness) == 1


class _UndecidedEquivalenceSolver(Solver):
    """Decides no equivalence."""

    def check_equivalence(self, left, right):
        raise IndeterminateEquivalence("left minus right undecided")


class _UndecidedWitnessSolver(Solver):
    """Finds no witness."""

    def least_model(self, constraints):
        return SolverVerdict(SolverStatus.UNKNOWN, None), None


@pytest.mark.parametrize("solver, note", [
    (_UndecidedEquivalenceSolver(), "solver-unknown: equivalence undecided"),
    (_UndecidedWitnessSolver(), "solver-unknown: witness undecided"),
])
def test_undecided_pair_names_the_query_left_unknown(solver, note):
    code = load_fixture("fund.hex")
    w = entry_for(code, "withdraw()")
    result = verify(code, w, w, solver=solver)
    assert result.status is Status.INCONCLUSIVE
    assert result.paths_I and result.paths_C
    assert result.note == note and result.witness is None


# -- pair enumeration ---------------------------------------------------------

CALL_OUT = "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 CALLER GAS CALL POP STOP"


def dispatcher(bodies: dict[str, str], fallback: str) -> Bytecode:
    """One arm per name() running its body; any other calldata runs
    ``fallback``."""
    arms = "\n".join(f"DUP1 PUSH4 {selector_of(n + '()').hex()} EQ PUSHL {n} JUMPI"
                     for n in bodies)
    code = "\n".join(f"{n}: JUMPDEST POP {body}" for n, body in bodies.items())
    return Bytecode(assemble("PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR\n"
                             f"{arms}\nPOP {fallback}\n{code}"))


def test_pairs_cross_each_calling_f_with_every_named_g():
    # a() and b() call out, c() does not; the fallback calls out too, but
    # no selector names it, so it is neither an f nor a g
    code = dispatcher({"a": CALL_OUT, "b": CALL_OUT,
                       "c": "PUSH1 1 PUSH1 0 SSTORE STOP"}, fallback=CALL_OUT)
    (contract,) = analyze([("probe", code, "test")]).contracts
    assert FunctionEntry(None, True) in contract.functions
    names = {selector_of(f"{n}()"): n for n in "abc"}
    pairs = [(names[p.f.selector], names[p.g.selector]) for p in contract.pairs]
    by_selector = sorted("abc", key=lambda n: selector_of(f"{n}()").value)
    callers = [n for n in by_selector if n != "c"]
    # self pairs included, in selector order
    assert pairs == [(f, g) for f in callers for g in by_selector]


def test_no_pairs_when_nothing_calls_out():
    code = dispatcher({"a": "PUSH1 1 PUSH1 0 SSTORE STOP", "c": "STOP"},
                      fallback="STOP")
    (contract,) = analyze([("probe", code, "test")]).contracts
    assert len(contract.functions) == 3
    assert contract.pairs == [] and contract.status is Status.BENIGN


def withdraw_and_spawn() -> Bytecode:
    """fund's withdraw(), and a spawn() that CREATEs init code that
    CREATEs again (``0x600060006000f000``)."""
    w, s = selector_of("withdraw()"), selector_of("spawn()")
    return Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        DUP1 PUSH4 {w.hex()} EQ PUSHL withdraw JUMPI
        DUP1 PUSH4 {s.hex()} EQ PUSHL spawn JUMPI STOP
        withdraw: JUMPDEST POP
        CALLER SLOAD
        DUP1 ISZERO PUSHL done JUMPI
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP5 CALLER GAS CALL POP
        POP PUSH1 0 CALLER SSTORE STOP
        done: JUMPDEST POP STOP
        spawn: JUMPDEST POP
        PUSH8 0x600060006000f000 PUSH1 0 MSTORE
        PUSH1 8 PUSH1 24 PUSH1 0 CREATE POP STOP
    """))


def test_a_stop_after_the_pick_fails_only_that_g():
    # re-entered, spawn's frame and the attacker's hop before it count as
    # two frames, so at bound 3 spawn's own CREATE stops;
    # run next, it does not. withdraw's one walk offers both g's: the stop
    # fails (withdraw, spawn) alone. At bound 4 the CREATE runs and the
    # created init code's CREATE stops: both sides of the bound
    code = withdraw_and_spawn()
    for bound, where in ((3, "c0@81"), (4, "c0.new0@6")):
        (contract,) = analyze([("probe", code, "test")],
                              AnalyzerConfig(call_depth_bound=bound)).contracts
        got = {p.g.selector: p for p in contract.pairs}
        assert got[selector_of("withdraw()")].status is Status.VULNERABLE
        spawn = got[selector_of("spawn()")]
        assert spawn.status is Status.INCONCLUSIVE
        assert spawn.note == f"depth bound reached at {where}"
        assert spawn.paths_I == spawn.paths_C == 0


def test_a_stop_before_the_pick_fails_every_g():
    # at depth bound 2 the attacker cannot re-enter at all: the stop comes
    # before it picks a g, so every pair of withdraw fails with it
    (contract,) = analyze([("token", load_fixture("token.hex"), "fixture")],
                          AnalyzerConfig(call_depth_bound=2)).contracts
    assert len(contract.pairs) == 12
    for pair in contract.pairs:
        assert pair.status is Status.INCONCLUSIVE
        assert pair.note.startswith("depth bound reached at c0@")


def test_one_walk_per_calling_function(monkeypatch):
    # token's twelve pairs share one f: discovery and withdraw's walk
    walks = []
    run_entry = SymVM.run_entry

    def counted(self, *args, **kwargs):
        walks.append(kwargs.get("reentry", ()))
        return run_entry(self, *args, **kwargs)

    monkeypatch.setattr(SymVM, "run_entry", counted)
    (contract,) = analyze([("token", load_fixture("token.hex"),
                            "fixture")]).contracts
    assert len(contract.pairs) == 12
    assert len(walks) == 2 and len(walks[1]) == 12


# -- function discovery -------------------------------------------------------

class _UnknownSolver(Solver):
    """Answers every query that reaches the SAT engine with Unknown, but the
    empty one, which a real solver always decides."""

    def _search(self, key, start):
        if key is tm.TRUE:
            return super()._search(key, start)
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


def _raise_bare(*args, **kwargs):
    raise AssertionError()


def test_internal_error_without_text_is_named_by_its_type(monkeypatch):
    target = [("fund", load_fixture("fund.hex"), "fixture")]
    monkeypatch.setattr(verifier, "verify_pair", _raise_bare)
    (contract,) = analyze(target).contracts
    assert contract.pairs
    for pair in contract.pairs:
        assert pair.status is Status.INCONCLUSIVE
        assert pair.note == "AssertionError"
    monkeypatch.setattr(verifier, "extract_function_ids", _raise_bare)
    (contract,) = analyze(target).contracts
    assert contract.status is Status.INCONCLUSIVE
    assert contract.error == "AssertionError"


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


@pytest.mark.parametrize("name, pairs", [("known_cross_function", 2),
                                         ("token", 12)])
def test_shared_solver_memo_matches_fresh_solvers(name, pairs):
    # analyze answers repeats from one memo per contract and walks each f
    # once for all its g's; each pair from a walk with its g alone, with a
    # solver of its own, must come out the same
    code = load_fixture(f"{name}.hex")
    config = AnalyzerConfig()
    (contract,) = analyze([(name, code, "fixture")], config).contracts
    assert len(contract.pairs) == pairs
    for shared in contract.pairs:
        fresh = verify(code, shared.f, shared.g, config)
        assert fresh.status is shared.status
        assert fresh.witness == shared.witness
        assert (fresh.paths_I, fresh.paths_C) == (shared.paths_I, shared.paths_C)
        assert fresh.note == shared.note


def test_reports_do_not_depend_on_hash_seed():
    # str hashes, and with them set and dict orders, differ between processes;
    # token's twelve pairs put the most queries through the solver's memo
    # and model ring
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
