"""Symbolic domain: storage, calldata, memory, block forking."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from reentscan.evm_core import Bytecode, selector_of
from reentscan.smt import terms as tm
from reentscan.smt.terms import evaluate
from reentscan.symdomain import (
    AbiCalldata,
    BasicBlock,
    CallStackEntry,
    ConcreteCalldata,
    EndState,
    LocalWorldState,
    MachineState,
    TermCalldata,
)


def _machine() -> MachineState:
    return MachineState(
        code=Bytecode(b"\x00"), account="c0",
        caller=tm.var("caller"), callvalue=tm.var("f_callvalue"),
        calldata=ConcreteCalldata(b""))


def _block(pc: tm.Term = tm.TRUE) -> BasicBlock:
    world = LocalWorldState()
    world.add_account("c0", tm.const(0xC0DE), code=Bytecode(b"\x00"))
    return BasicBlock(id=0, machine=_machine(), world=world,
                      path_condition=pc)


# -- storage ------------------------------------------------------------------

def test_storage_exact_write_read():
    block = _block()
    acct = block.world.accounts["c0"]
    slot = tm.var("caller")
    acct.write_storage(slot, tm.const(7))
    assert acct.read_storage(slot) == tm.const(7)


def test_storage_unwritten_read_is_memoized_symbol():
    block = _block()
    acct = block.world.accounts["c0"]
    first = acct.read_storage(tm.const(5))
    second = acct.read_storage(tm.const(5))
    assert first == second
    assert first.op == "var"


X = tm.var("x")


@pytest.mark.parametrize("writes, slot, expect", [
    # slot 1 twice; x may alias it: under x == 1 the read is 20
    ([(tm.const(1), 10), (tm.const(1), 20)], X, {1: 20}),
    # slot 0 := 5, then x := 7: slot 0 reads 7 when x aliases it, else 5
    ([(tm.const(0), 5), (X, 7)], tm.const(0), {0: 7, 9: 5}),
    # x := 7, then slot 0 := 5: slot x reads 5 when x aliases slot 0, else 7
    ([(X, 7), (tm.const(0), 5)], X, {0: 5, 9: 7}),
], ids=["overwrite", "later-symbolic-write", "later-exact-write"])
def test_storage_aliasing_prefers_most_recent_write(writes, slot, expect):
    acct = _block().world.accounts["c0"]
    for written, value in writes:
        acct.write_storage(written, tm.const(value))
    read = acct.read_storage(slot)
    for x, value in expect.items():
        assert evaluate(read, {"x": x}) == value


def test_write_at_another_offset_from_the_read_base_is_skipped():
    # balances at CALLER + 3 never alias the read of CALLER + 1: no ite
    acct = _block().world.accounts["c0"]
    caller = tm.var("caller")
    acct.write_storage(tm.bv_add(caller, tm.const(3)), tm.const(0))
    read = acct.read_storage(tm.bv_add(caller, tm.const(1)))
    assert read.op == "var"
    acct.write_storage(tm.const(3), tm.const(0))
    assert acct.read_storage(tm.bv_add(caller, tm.const(1))).op == "ite"


def test_exact_storage_write_reads_back_directly():
    acct = _block().world.accounts["c0"]
    acct.write_storage(tm.const(1), tm.const(10))
    acct.write_storage(tm.const(1), tm.const(20))
    assert acct.read_storage(tm.const(1)) == tm.const(20)


def test_concrete_storage_backs_base_reads():
    world = LocalWorldState()
    acct = world.add_account("c0", tm.const(1), concrete_storage={3: 99})
    assert acct.read_storage(tm.const(3)) == tm.const(99)
    assert acct.read_storage(tm.const(4)) == tm.const(0)


def test_solvency_constraint_semantics():
    acct = _block().world.accounts["c0"]
    acct.concrete_balance = 100
    acct.credits.append(tm.const(30))
    acct.debits.append(tm.var("d"))
    c = acct.solvency_constraint()
    assert evaluate(c, {"d": 130}) == 1
    assert evaluate(c, {"d": 131}) == 0


def test_sha3_concrete_vs_symbolic():
    world = LocalWorldState()
    concrete = world.sha3((tm.const(0x61),))
    from reentscan.keccak import keccak256
    assert concrete.value == int.from_bytes(keccak256(b"a"), "big")
    symbolic = world.sha3((tm.var("x"),))
    assert symbolic.op == "var"
    assert world.sha3((tm.var("x"),)) == symbolic  # memoized


# -- calldata -----------------------------------------------------------------

def test_concrete_calldata_zero_padding():
    cd = ConcreteCalldata(b"\x01\x02")
    assert cd.byte_at(0).value == 1
    assert cd.byte_at(9).value == 0
    assert cd.size().value == 2


@given(st.integers(0, (1 << 256) - 1))
def test_abi_calldata_word_layout(arg0):
    cd = AbiCalldata(selector_of("withdraw()"), "f")
    env = {"f_arg0": arg0}
    word0 = evaluate(cd.load_word(0), env)
    assert word0 >> 224 == 0x3CCFD60B
    assert evaluate(cd.load_word(4), env) == arg0
    # byte view agrees with word view
    rebuilt = 0
    for i in range(32):
        rebuilt = (rebuilt << 8) | evaluate(cd.byte_at(i), env)
    assert rebuilt == word0


def test_abi_calldata_symbolic_selector():
    cd = AbiCalldata(None, "f")
    word0 = cd.load_word(0)
    assert evaluate(word0, {"function_id": 0xAABBCCDD}) >> 224 == 0xAABBCCDD


def test_selector_word_folds_to_the_selector():
    # SHR 224, and the older DIV 2^224 then AND 0xffffffff, of the first
    # calldata word: the selector constant, or the symbolic selector term
    # itself when the selector is open
    def dispatch_forms(word):
        return (tm.shr(word, tm.const(224)),
                tm.bv_and(tm.udiv(word, tm.const(1 << 224)),
                          tm.const(0xFFFFFFFF)))

    sel = selector_of("withdraw()")
    concrete = AbiCalldata(sel, "g").load_word(0)
    assert dispatch_forms(concrete) == (tm.const(sel.value),) * 2
    fid_low = tm.bv_and(tm.var("function_id"), tm.const(0xFFFFFFFF))
    open_selector = AbiCalldata(None, "f")
    assert open_selector.selector_word() is fid_low
    assert all(t is fid_low for t in dispatch_forms(open_selector.load_word(0)))


def test_term_calldata():
    cd = TermCalldata((tm.const(1), tm.var("b")))
    assert cd.byte_at(0).value == 1
    assert cd.byte_at(1).op == "var"
    assert cd.byte_at(5).value == 0


# -- memory and forking -------------------------------------------------------

@given(st.integers(0, (1 << 256) - 1), st.integers(0, 64))
def test_memory_word_round_trip(value, offset):
    m = _machine()
    m.mstore_word(offset, tm.const(value))
    assert evaluate(m.mload_word(offset)) == value


def test_fork_isolation():
    first = tm.ult(tm.var("x"), tm.const(9))
    original = _block(first)
    original.machine.stack.append(tm.const(1))
    original.machine.memory[0] = tm.const(0xAB)
    original.world.accounts["c0"].write_storage(tm.const(0), tm.const(5))
    original.ext_call_target = tm.var("to")
    original.reentered = True
    frame = CallStackEntry(saved_machine=_machine())
    original.call_stack.append(frame)

    copy = original.copy_as(1)
    copy.machine.stack.append(tm.const(2))
    copy.machine.memory[0] = tm.const(0xCD)
    copy.world.accounts["c0"].write_storage(tm.const(0), tm.const(6))
    copy.world.accounts["c0"].credits.append(tm.const(4))
    copy.path_condition = tm.band((copy.path_condition,
                                   tm.eq(tm.var("y"), tm.const(1))))
    assert copy.call_stack.pop() is frame  # shared, not copied

    assert original.machine.stack == [tm.const(1)]
    assert original.machine.memory[0] == tm.const(0xAB)
    assert original.world.accounts["c0"].read_storage(tm.const(0)) == tm.const(5)
    assert original.world.accounts["c0"].credits == []
    assert original.call_stack == [frame]
    assert original.path_condition is first
    # the fork keeps inherited state
    assert copy.ext_call_target is tm.var("to")
    assert copy.reentered
    assert copy.end_state is EndState.OPEN
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.out_size = 1


def test_unwritten_reads_are_one_term_across_worlds():
    # no per-world memo: interning alone makes repeated symbols one object
    a, b = _block().world, _block().world
    slot = tm.bv_add(tm.var("caller"), tm.const(1))
    read_a = a.accounts["c0"].read_storage(slot)
    assert read_a.op == "var"
    assert read_a is b.accounts["c0"].read_storage(slot)
    assert read_a is a.clone().accounts["c0"].read_storage(slot)
    data = (tm.var("caller"), tm.const(0))
    assert a.sha3(data).op == "var"
    assert a.sha3(data) is b.sha3(tuple(data))
