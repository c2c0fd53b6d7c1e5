"""Interpreter behavior: dispatch, calls, creates, bounds, flag inheritance."""

import functools
from pathlib import Path

import pytest
from asm import assemble, concrete
from reentscan.cfg_manager import BoundReached, CannotConcretize, UnsupportedOpcode
from reentscan.evm_core import OPCODE_BY_NAME, OPCODES, Bytecode, selector_of
from reentscan.smt import Solver
from reentscan.smt import terms as tm
from reentscan.symdomain import EdgeKind, EndState
from reentscan.symvm import (
    AbiCalldata,
    AnalyzerConfig,
    FunctionEntry,
    SymVM,
    extract_function_ids,
)
from reentscan.verifier import Status, analyze, collect_scenarios

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Bytecode:
    return Bytecode(bytes.fromhex((FIXTURES / name).read_text().strip()))


# -- selector extraction ------------------------------------------------------

def test_extracts_all_token_selectors():
    entries = extract_function_ids(load_fixture("token.hex"))
    selectors = {e.selector.hex() for e in entries if e.selector}
    expected = {selector_of(sig).hex() for sig in [
        "withdraw()", "transfer(address,uint256)", "deposit()",
        "balanceOf(address)", "totalSupply()", "approve(address,uint256)",
        "allowance(address)", "setOwner(address)", "owner()",
        "pause()", "unpause()", "mint(uint256)"]}
    assert selectors == expected
    assert len(selectors) == 12
    callers = [e for e in entries if e.has_call]
    assert [c.selector.hex() for c in callers] == [selector_of("withdraw()").hex()]
    # the dispatcher's no-match arm shows up as the fallback pseudo-entry
    assert any(e.selector is None for e in entries)


def test_code_without_dispatcher_is_fallback_only():
    entries = extract_function_ids(Bytecode(assemble("PUSH1 1 PUSH1 0 SSTORE STOP")))
    assert [e.selector for e in entries] == [None]


def test_call_into_known_code_is_not_a_call_to_pair_on():
    # f's only CALL goes back into the victim itself, whose code the
    # analyzer holds: no attacker gets control, so f is not paired
    sel = selector_of("f()")
    code = Bytecode(assemble(f"""
        PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR
        PUSH4 {sel.hex()} EQ PUSHL body JUMPI STOP
        body: JUMPDEST
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 ADDRESS GAS CALL POP STOP
    """))
    entries = extract_function_ids(code)
    assert [(e.selector, e.has_call) for e in entries] == [(sel, False),
                                                          (None, False)]
    (contract,) = analyze([("selfcall", code, "test")]).contracts
    assert contract.pairs == []
    assert contract.status is Status.BENIGN


@pytest.mark.parametrize("load_selector", [
    "PUSH1 0 CALLDATALOAD PUSH1 0xe0 SHR",
    "PUSH29 0x0100000000000000000000000000000000000000000000000000000000"
    " PUSH1 0 CALLDATALOAD DIV PUSH4 0xffffffff AND",
])
def test_dispatch_on_a_concrete_selector_asks_no_query(load_selector):
    a, b, c = (selector_of(f"{name}()") for name in "abc")
    code = Bytecode(assemble(f"""
        {load_selector}
        DUP1 PUSH4 {a.hex()} EQ PUSHL fa JUMPI
        DUP1 PUSH4 {b.hex()} EQ PUSHL fb JUMPI
        DUP1 PUSH4 {c.hex()} EQ PUSHL fc JUMPI
        STOP
        fa: JUMPDEST PUSH1 1 PUSH1 0 SSTORE STOP
        fb: JUMPDEST PUSH1 2 PUSH1 0 SSTORE STOP
        fc: JUMPDEST PUSH1 3 PUSH1 0 SSTORE STOP
    """))
    solver = Solver()
    res = SymVM(solver).run_entry(code, AbiCalldata(b, "f"))
    (end,) = res.completed
    assert list(end.world.accounts["c0"].storage.values()) == [tm.const(2)]
    assert end.path_condition is tm.TRUE
    assert sum(solver.answers.values()) == 0


# -- flags and call stack -----------------------------------------------------

def test_callable_flag_inherited_past_the_call():
    code = load_fixture("fund.hex")
    vm = SymVM()
    res = vm.run_entry(code, AbiCalldata(selector_of("withdraw()"), "f"))
    paying = [b for b in res.completed if b.world.accounts["c0"].debits]
    skipping = [b for b in res.completed if not b.world.accounts["c0"].debits]
    assert len(paying) == 1 and len(skipping) == 1
    # survives to the end of the path
    assert paying[0].ext_call_target is tm.var("caller")
    assert skipping[0].ext_call_target is None


def test_completed_blocks_have_balanced_call_stack():
    for name in ("fund.hex", "bank.hex", "token.hex"):
        vm = SymVM()
        res = vm.run_entry(load_fixture(name), AbiCalldata(None, "f"))
        for block in res.completed:
            assert block.call_stack == []


# -- create handling ----------------------------------------------------------

def test_create_runs_init_code_and_returns_address():
    # init code in memory returns empty runtime; created address lands on stack
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH1 0x00 PUSH1 0 MSTORE8        ; init code: single STOP
        PUSH1 1 PUSH1 0 PUSH1 5 CREATE    ; CREATE(value=5, offset 0, len 1)
        PUSH1 0 SSTORE                    ; store created address at slot 0
        STOP
    """)), concrete())
    (block,) = res.completed
    kinds = [k for _, _, k in res.ecfg.edges]
    assert EdgeKind.CREATE_ENTER in kinds and EdgeKind.CREATE_RETURN in kinds
    created = [a for a in block.world.accounts.values() if a.label != "c0"
               and not a.label.startswith("ext_")]
    assert len(created) == 1
    acct = created[0]
    assert acct.code is not None and acct.code.data == b""
    assert block.world.accounts["c0"].read_storage(tm.const(0)) == acct.address
    # the endowment moved from creator to the new account
    assert acct.credits == [tm.const(5)]
    assert tm.const(5) in block.world.accounts["c0"].debits


def test_create_returned_runtime_code_is_collected():
    # init code writes one byte into its own memory and RETURNs it as runtime
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH32 0x604260005360016000f300000000000000000000000000000000000000000000
        PUSH1 0 MSTORE                    ; init: MSTORE8(0, 0x42); RETURN(0, 1)
        PUSH1 10 PUSH1 0 PUSH1 0 CREATE POP STOP
    """)), concrete())
    assert [c.data.hex() for c in res.created] == ["42"]


def test_create_leaves_no_return_data():
    # a deployed child returns 32 bytes to a CALL; a later successful CREATE
    # then empties the return data buffer (EIP-211)
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH14 0x6460206000f36000526005601bf3 PUSH1 0 MSTORE
        PUSH1 14 PUSH1 18 PUSH1 0 CREATE  ; child runtime: RETURN(0, 32)
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP6 GAS CALL POP
        RETURNDATASIZE PUSH1 1 SSTORE
        PUSH1 0 PUSH1 0 PUSH1 0 CREATE POP
        RETURNDATASIZE PUSH1 0 SSTORE STOP
    """)), concrete())
    (block,) = res.completed
    victim = block.world.accounts["c0"]
    assert victim.read_storage(tm.const(1)) == tm.const(32)
    assert victim.read_storage(tm.const(0)) == tm.const(0)


# calls that leave return data: to a CREATEd child whose runtime RETURNs
# 32 bytes, and to code the run does not know, which returns none
RETURNING_CALLS = {
    "child": """
        PUSH14 0x6460206000f36000526005601bf3 PUSH1 0 MSTORE
        PUSH1 14 PUSH1 18 PUSH1 0 CREATE
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 DUP6 GAS CALL POP
    """,
    "unknown": "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0xbb GAS CALL POP",
}


@pytest.mark.parametrize("call, src, size, completes", [
    ("child", 0, 32, True), ("child", 1, 32, False), ("child", 33, 0, False),
    ("unknown", 0, 0, True), ("unknown", 0, 32, False)])
def test_returndatacopy_past_the_return_data_halts(call, src, size, completes):
    # reading past the end of the return data is an exceptional halt
    # (EIP-211), even a read of no bytes
    res = SymVM().run_entry(Bytecode(assemble(f"""
        {RETURNING_CALLS[call]}
        PUSH1 {size} PUSH1 {src} PUSH1 0 RETURNDATACOPY
        PUSH1 1 PUSH1 0 SSTORE STOP
    """)), concrete())
    if completes:
        (end,) = res.completed
        assert end.world.accounts["c0"].read_storage(tm.const(0)) == tm.const(1)
    else:
        assert res.completed == []
        assert [b.end_state for b in res.sealed] == [EndState.INVALID]


@pytest.mark.parametrize("init", ["0xfe", "0x01"])  # INVALID; ADD, empty stack
def test_exceptional_halt_in_init_code_never_resumes_creator(init):
    res = SymVM().run_entry(Bytecode(assemble(f"""
        PUSH1 {init} PUSH1 0 MSTORE8
        PUSH1 1 PUSH1 0 PUSH1 0 CREATE    ; CREATE(value=0, offset 0, len 1)
        PUSH1 0 SSTORE                    ; store created address at slot 0
        STOP
    """)), concrete())
    for block in res.completed:
        assert block.world.accounts["c0"].read_storage(tm.const(0)) == tm.const(0)
    assert any(b.end_state is EndState.INVALID for b in res.sealed)


def test_symbolic_init_code_seals_with_diagnostic():
    # the model cannot run symbolic init code: the run stops, naming it
    with pytest.raises(CannotConcretize, match="symbolic init code at c0@"):
        SymVM().run_entry(Bytecode(assemble("""
            CALLVALUE PUSH1 0 MSTORE
            PUSH1 1 PUSH1 31 PUSH1 0 CREATE POP STOP
        """)), AbiCalldata(None, "f"))


# -- concretization -----------------------------------------------------------

@pytest.mark.parametrize("op", ["CALLDATACOPY", "CODECOPY", "RETURNDATACOPY"])
def test_unconcretizable_copy_operands_seal_once(op):
    # the symbolic*symbolic branch leaves the solver Unknown on the path, so
    # the first symbolic copy operand cannot be pinned; the run stops there,
    # naming the operand and the instruction
    with pytest.raises(CannotConcretize,
                       match=rf"cannot concretize {op.lower()} arg at c0@\d+$"):
        SymVM().run_entry(Bytecode(assemble(f"""
            PUSH1 4 CALLDATALOAD PUSH1 36 CALLDATALOAD MUL
            PUSHL next JUMPI next: JUMPDEST
            PUSH1 100 CALLDATALOAD PUSH1 68 CALLDATALOAD PUSH1 36 CALLDATALOAD
            {op} STOP
        """)), AbiCalldata(None, "f"))


# -- halting data -------------------------------------------------------------

def test_top_level_return_pins_no_bytes():
    # nothing reads the data of a transaction's own RETURN, so its symbolic
    # range stays unpinned and the completed path keeps no constraint
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH1 32 PUSH1 4 CALLDATALOAD RETURN
    """)), AbiCalldata(None, "f"))
    (end,) = res.completed
    assert end.end_state is EndState.RETURN
    assert end.path_condition is tm.TRUE


def test_revert_on_unknown_path_needs_no_model():
    # the branch leaves the path Unknown to the solver; a REVERT discards its
    # data, so its symbolic range needs no model and each side just reverts
    res = SymVM().run_entry(Bytecode(assemble("""
        PUSH1 4 CALLDATALOAD PUSH1 36 CALLDATALOAD MUL
        PUSHL next JUMPI next: JUMPDEST
        PUSH1 32 PUSH1 4 CALLDATALOAD REVERT
    """)), AbiCalldata(None, "f"))
    assert res.completed == []
    assert [b.end_state for b in res.sealed] == [EndState.REVERT] * 2


# -- memory ranges ------------------------------------------------------------

HUGE = "PUSH32 0x" + "80" + "00" * 31


@pytest.mark.parametrize("access, msize", [
    (f"PUSH1 1 {HUGE} LOG0", (1 << 255) + 32),                   # offset
    (f"{HUGE} PUSH1 0 LOG0", 1 << 255),                          # size
    (f"{HUGE} PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0xbb PUSH1 0 CALL POP",
     1 << 255),                                                  # output
    (f"PUSH1 0 PUSH1 0 {HUGE} PUSH1 0 PUSH1 0 PUSH1 0xbb PUSH1 0 CALL POP",
     1 << 255),                                                  # input
])
def test_huge_constant_range_finishes(access, msize):
    # a range nothing reads grows memory by its last byte, not byte by byte
    res = SymVM().run_entry(Bytecode(assemble(f"{access} MSIZE STOP")),
                            concrete())
    (end,) = res.completed
    assert end.machine.stack[-1].value == msize


# -- unsupported opcodes ------------------------------------------------------

@pytest.mark.parametrize("op", ["DELEGATECALL", "CALLCODE", "STATICCALL",
                                "CREATE2", "SELFDESTRUCT", "EXTCODECOPY",
                                "BLOBHASH", "BLOBBASEFEE", "TLOAD", "TSTORE",
                                "MCOPY"])
def test_unsupported_opcode_raises(op):
    # a path that reaches an unmodeled opcode must not vanish from the run
    pops = OPCODES[OPCODE_BY_NAME[op]][1]
    code = Bytecode(assemble("PUSH1 0 " * pops + f"{op} STOP"))
    with pytest.raises(UnsupportedOpcode, match=op):
        SymVM().run_entry(code, concrete())


# -- bounds -------------------------------------------------------------------

def test_call_depth_bound_halts_self_recursion():
    # the contract calls itself: recursion must stop at the depth bound
    src = """
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 ADDRESS GAS CALL
        POP STOP
    """
    vm = SymVM(config=AnalyzerConfig(call_depth_bound=4))
    with pytest.raises(BoundReached, match=r"^depth bound reached at c0@12$"):
        vm.run_entry(Bytecode(assemble(src)), concrete())


def test_loop_bound_seals_endless_loop():
    vm = SymVM(config=AnalyzerConfig(loop_bound=3))
    with pytest.raises(BoundReached, match=r"^loop bound reached at c0@4$"):
        vm.run_entry(Bytecode(assemble("""
            top: JUMPDEST PUSHL top JUMP
        """)), concrete())


# -- re-entrant scenario ------------------------------------------------------

def test_dummy_reenters_once_and_marks_path():
    code = load_fixture("fund.hex")
    w = selector_of("withdraw()")
    res = SymVM().run_entry(code, AbiCalldata(w, "f"),
                            reentry=(AbiCalldata(w, "g"),))
    reentered = [b for b in res.completed if b.reentered]
    assert len(reentered) == 1
    # victim account paid out twice along the re-entrant path: the inner
    # withdraw's own call to the attacker did not re-enter again
    victim = reentered[0].world.accounts["c0"]
    assert len(victim.debits) == 2


def _path_edges(ecfg, block_id):
    parent = {dst: (src, kind) for src, dst, kind in ecfg.edges}
    kinds = []
    while block_id in parent:
        block_id, kind = parent[block_id]
        kinds.append(kind)
    return kinds


def test_one_walk_forks_at_the_first_unknown_call():
    code = load_fixture("fund.hex")
    w = selector_of("withdraw()")
    res = SymVM().run_entry(code, AbiCalldata(w, "f"),
                            reentry=(AbiCalldata(w, "g"),))
    (reentered,) = [b for b in res.completed if b.reentered]
    (passed,) = [b for b in res.completed
                 if b.ext_call_target is not None and not b.reentered]
    assert EdgeKind.NEXT_TX not in _path_edges(res.ecfg, reentered.id)
    # on the passed path g ran after f, as the next transaction from the
    # account f paid
    assert EdgeKind.NEXT_TX in _path_edges(res.ecfg, passed.id)
    assert passed.machine.calldata.tag == "g"
    assert passed.machine.caller is passed.ext_call_target
    assert passed.pending_g == ()


def test_g_does_not_run_after_an_f_that_met_no_unknown_code():
    # on the zero-balance path withdraw pays nothing and makes no call: the
    # attacker never gets control, so g does not run after it, and its end
    # is in neither scenario set
    code = load_fixture("fund.hex")
    w = selector_of("withdraw()")
    res = SymVM().run_entry(code, AbiCalldata(w, "f"),
                            reentry=(AbiCalldata(w, "g"),))
    (skipping,) = [b for b in res.completed if b.ext_call_target is None]
    assert EdgeKind.NEXT_TX not in _path_edges(res.ecfg, skipping.id)
    assert skipping.machine.calldata.tag == "f"
    assert skipping.pending_g
    entry = FunctionEntry(w, has_call=True)
    (sets,) = collect_scenarios(code, entry, [entry], AnalyzerConfig(), Solver())
    assert len(sets.I) == len(sets.C) == 1
    c = skipping.world.with_solvency(skipping.path_condition)
    assert c not in sets.I + sets.C


def test_sequential_run_never_reenters():
    # without re-entry calldata the unknown callee just succeeds
    code = load_fixture("fund.hex")
    res = SymVM().run_entry(code, AbiCalldata(selector_of("withdraw()"), "f"))
    assert not any(b.reentered for b in res.completed)
    (paying,) = [b for b in res.completed if b.ext_call_target is not None]
    assert len(paying.world.accounts["c0"].debits) == 1
    assert not any(k is EdgeKind.CALL_ENTER for _, _, k in res.ecfg.edges)


def test_revert_kills_whole_reentrant_path():
    code = load_fixture("token.hex")
    w = selector_of("withdraw()")
    res = SymVM().run_entry(code, AbiCalldata(w, "f"),
                            reentry=(AbiCalldata(w, "g"),))
    # the lock makes every re-entering path revert; none complete, while
    # the path on which the attacker returns at once does
    assert res.completed
    assert all(b.ext_call_target is not None and not b.reentered
               for b in res.completed)
    assert any(b.reentered and b.end_state is EndState.REVERT
               for b in res.sealed)


def test_code_is_decoded_once_per_analysis(monkeypatch):
    # every walk of the contract, its discovery and one per calling
    # function, shares one decoding per distinct code, init code included
    from reentscan import evm_core

    decoded = []

    def counted(code, real=evm_core.disassemble):
        decoded.append(code.data)
        return real(code)

    def fresh_cache():
        # decodings from earlier tests would hide the count
        monkeypatch.setattr(evm_core, "_decode",
                            functools.cache(evm_core._decode.__wrapped__))
        decoded.clear()

    monkeypatch.setattr(evm_core, "disassemble", counted)
    fresh_cache()
    bank = load_fixture("bank.hex")
    (contract,) = analyze([("bank", bank, "fixture")]).contracts
    assert len(contract.pairs) == 3
    # bank's runtime and its settlement contract's 15-byte init code,
    # which every walk through withdraw's CREATE deploys afresh
    init = bytes.fromhex("60006000600060003460aa5af15000")
    assert sorted(decoded, key=len) == [init, bank.data]

    fresh_cache()
    code = load_fixture("token.hex")
    (contract,) = analyze([("token", code, "fixture")]).contracts
    assert len(contract.pairs) == 12
    assert decoded == [code.data]
    monkeypatch.undo()
    table, jumpdests = code.decoded
    assert table == {ins.offset: ins for ins in evm_core.disassemble(code)}
    assert jumpdests == {pc for pc, ins in table.items() if ins.name == "JUMPDEST"}
