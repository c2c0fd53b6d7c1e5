"""Decoding, jump-target discovery, and selector derivation."""

import pytest
from hypothesis import given, strategies as st

from reentscan.evm_core import (
    Bytecode,
    FunctionId,
    OPCODE_BY_NAME,
    disassemble,
    reassemble,
    selector_of,
)


def test_selector_vectors():
    # published 4-byte ABI selectors
    assert selector_of("withdraw()").hex() == "0x3ccfd60b"
    assert selector_of("transfer(address,uint256)").hex() == "0xa9059cbb"
    assert selector_of("balanceOf(address)").hex() == "0x70a08231"
    assert selector_of("deposit()").hex() == "0xd0e30db0"


def test_function_id_value():
    fid = FunctionId(bytes.fromhex("a9059cbb"))
    assert fid.value == 0xA9059CBB
    with pytest.raises(ValueError):
        FunctionId(b"\x01\x02")


def test_disassemble_simple():
    # PUSH1 0x60, PUSH2 0x1234, ADD, STOP
    code = Bytecode(bytes.fromhex("60606112340100"))
    instructions = disassemble(code)
    assert [i.name for i in instructions] == ["PUSH1", "PUSH2", "ADD", "STOP"]
    assert instructions[0].push_value == 0x60
    assert instructions[1].push_value == 0x1234
    assert [i.offset for i in instructions] == [0, 2, 5, 6]


def test_truncated_push_is_zero_padded():
    code = Bytecode(bytes.fromhex("62ff"))  # PUSH3 with only 1 byte left
    (ins,) = disassemble(code)
    assert ins.push_value == 0xFF0000


def test_unknown_opcode_is_invalid():
    (ins,) = disassemble(Bytecode(b"\x0c"))
    assert ins.name == "INVALID"


def test_jumpdest_inside_push_immediate_is_not_a_target():
    # PUSH2 0x5b5b, JUMPDEST: only offset 3 is a real JUMPDEST
    code = Bytecode(bytes.fromhex("615b5b5b"))
    assert {ins.offset for ins in disassemble(code) if ins.name == "JUMPDEST"} == {3}
    assert code.decoded[1] == {3}


def test_every_byte_decoded_once():
    code = Bytecode(bytes(range(256)))
    instructions = disassemble(code)
    covered = []
    for ins in instructions:
        covered.extend(range(ins.offset, ins.offset + ins.size))
    # non-truncated prefix must tile the code exactly
    assert covered[: len(code.data)] == list(range(len(code.data)))


@given(st.binary(max_size=300))
def test_reassemble_round_trip(data):
    instructions = disassemble(Bytecode(data))
    rebuilt = reassemble(instructions)
    # identical except that a truncated trailing PUSH gains zero padding
    assert rebuilt[: len(data)] == data
    assert all(b == 0 for b in rebuilt[len(data):])


@given(st.binary(max_size=300))
def test_offsets_monotone(data):
    instructions = disassemble(Bytecode(data))
    offsets = [i.offset for i in instructions]
    assert offsets == sorted(offsets)
    for prev, cur in zip(instructions, instructions[1:]):
        assert cur.offset == prev.offset + prev.size


def test_opcode_table_has_core_entries():
    for name in ("STOP", "ADD", "CALL", "CREATE", "SSTORE", "JUMPI",
                 "PUSH32", "DUP16", "SWAP16", "LOG4", "SHR", "REVERT"):
        assert name in OPCODE_BY_NAME
