"""Differential testing: the symbolic interpreter on fully concrete inputs
must agree with an independent concrete EVM interpreter.

Each program runs twice: through SymVM with a concrete world (const caller,
value, calldata, preset balances and storage) and through the oracle in
evm_oracle.py. Final storage and concrete balances must match account for
account, and CREATEd code must be identical.
"""

import pytest

from asm import assemble
from evm_oracle import OracleWorld, run_transaction
from reentscan.evm_core import Bytecode
from reentscan.smt import terms as tm
from reentscan.symdomain import ConcreteCalldata, LocalWorldState
from reentscan.symvm import AnalyzerConfig, SymVM

MASK = (1 << 256) - 1
C0_ADDR = 0xC0DE
CALLER_ADDR = 0xA77AC4E2
CALLER_FUNDS = 10**6


def _run_vm(code: bytes, calldata: bytes, value: int, storage: dict[int, int],
            balance: int):
    world = LocalWorldState()
    world.add_account("c0", tm.const(C0_ADDR), code=Bytecode(code),
                      concrete_storage=dict(storage), concrete_balance=balance)
    world.add_account("attacker", tm.const(CALLER_ADDR),
                      concrete_balance=CALLER_FUNDS)
    vm = SymVM(config=AnalyzerConfig(loop_bound=64))
    res = vm.run_entry(Bytecode(code), ConcreteCalldata(calldata),
                       world=world, caller=tm.const(CALLER_ADDR),
                       callvalue=tm.const(value))
    assert len(res.completed) == 1, \
        f"concrete program should have one path, got {len(res.completed)}"
    return res.completed[0]


def _run_oracle(code: bytes, calldata: bytes, value: int,
                storage: dict[int, int], balance: int) -> OracleWorld:
    world = OracleWorld()
    victim = world.account(C0_ADDR)
    victim.code = code
    victim.balance = balance
    victim.storage = dict(storage)
    world.account(CALLER_ADDR).balance = CALLER_FUNDS
    run_transaction(world, C0_ADDR, CALLER_ADDR, value, calldata)
    return world


def _vm_state(block):
    """Per-address (storage, balance, code) as plain ints, zeros stripped."""
    out = {}
    for acct in block.world.accounts.values():
        if not acct.address.is_const:
            continue
        merged = dict(acct.concrete_storage or {})
        for slot, val in acct.storage.items():
            assert slot.is_const and val.is_const, \
                f"symbolic storage in {acct.label}: {slot} -> {val}"
            merged[slot.value] = val.value
        balance_term = acct.balance_expr()
        balance = balance_term.value & MASK if balance_term.is_const else None
        code = acct.code.data if acct.code is not None else None
        out[acct.address.value] = (
            {k: v for k, v in merged.items() if v}, balance, code)
    return out


def _oracle_state(world: OracleWorld):
    out = {}
    for addr, acct in world.accounts.items():
        out[addr] = ({k: v for k, v in acct.storage.items() if v},
                     acct.balance & MASK, acct.code or None)
    return out


def check(source: str, calldata: bytes = b"", value: int = 0,
          storage: dict[int, int] | None = None, balance: int = 1000):
    code = assemble(source)
    storage = storage or {}
    block = _run_vm(code, calldata, value, storage, balance)
    oracle = _oracle_state(_run_oracle(code, calldata, value, storage, balance))
    vm = _vm_state(block)
    for addr, (o_storage, o_balance, o_code) in oracle.items():
        v_storage, v_balance, v_code = vm.get(addr, ({}, None, None))
        assert v_storage == o_storage, f"storage mismatch at 0x{addr:x}"
        if v_balance is not None:
            assert v_balance == o_balance, f"balance mismatch at 0x{addr:x}"
        if o_code is not None:
            assert v_code == o_code, f"code mismatch at 0x{addr:x}"


def _word(v: int) -> bytes:
    return v.to_bytes(32, "big")


# -- arithmetic and bitwise ---------------------------------------------------

def test_add_sub_mul_div():
    check("""
        PUSH1 7 PUSH1 5 ADD PUSH1 0 SSTORE
        PUSH1 3 PUSH1 10 SUB PUSH1 1 SSTORE
        PUSH1 6 PUSH1 7 MUL PUSH1 2 SSTORE
        PUSH1 4 PUSH1 29 DIV PUSH1 3 SSTORE
        PUSH1 0 PUSH1 29 DIV PUSH1 4 SSTORE
        STOP
    """)


def test_wrapping_overflow():
    check("""
        PUSH1 1 PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        ADD PUSH1 0 SSTORE
        PUSH1 1 PUSH1 0 SUB PUSH1 1 SSTORE
        STOP
    """)


def test_mod_addmod_mulmod_exp():
    check("""
        PUSH1 5 PUSH1 17 MOD PUSH1 0 SSTORE
        PUSH1 7 PUSH1 6 PUSH1 5 ADDMOD PUSH1 1 SSTORE
        PUSH1 7 PUSH1 6 PUSH1 5 MULMOD PUSH1 2 SSTORE
        PUSH1 10 PUSH1 3 EXP PUSH1 3 SSTORE
        PUSH2 0x1000 PUSH1 2 EXP PUSH1 4 SSTORE
        STOP
    """)


def test_signed_arithmetic():
    check("""
        PUSH1 3 PUSH1 0 PUSH1 7 SUB SDIV PUSH1 0 SSTORE       ; -7 sdiv 3
        PUSH1 3 PUSH1 0 PUSH1 7 SUB SMOD PUSH1 1 SSTORE       ; -7 smod 3
        PUSH1 2 PUSH1 0 PUSH1 1 SUB SLT PUSH1 2 SSTORE        ; -1 < 2 signed
        PUSH1 2 PUSH1 0 PUSH1 1 SUB SGT PUSH1 3 SSTORE
        PUSH1 0xf0 PUSH1 0 SIGNEXTEND PUSH1 4 SSTORE
        STOP
    """)


def test_comparisons_and_bitwise():
    check("""
        PUSH1 9 PUSH1 4 LT PUSH1 0 SSTORE
        PUSH1 9 PUSH1 4 GT PUSH1 1 SSTORE
        PUSH1 4 PUSH1 4 EQ PUSH1 2 SSTORE
        PUSH1 0 ISZERO PUSH1 3 SSTORE
        PUSH1 0x0f PUSH1 0x3c AND PUSH1 4 SSTORE
        PUSH1 0x0f PUSH1 0x30 OR PUSH1 5 SSTORE
        PUSH1 0xff PUSH1 0x0f XOR PUSH1 6 SSTORE
        PUSH1 0 NOT PUSH1 7 SSTORE
        STOP
    """)


def test_shifts_and_byte():
    check("""
        PUSH1 0x11 PUSH1 4 SHL PUSH1 0 SSTORE
        PUSH2 0x1100 PUSH1 4 SHR PUSH1 1 SSTORE
        PUSH1 1 PUSH2 0x0101 SHL PUSH1 2 SSTORE          ; shift >= 256
        PUSH1 0 PUSH1 2 SUB PUSH1 3 SAR PUSH1 3 SSTORE   ; arithmetic shift of -2
        PUSH2 0xaabb PUSH1 31 BYTE PUSH1 4 SSTORE
        PUSH2 0xaabb PUSH1 30 BYTE PUSH1 5 SSTORE
        STOP
    """)


def test_dup_swap_stack_discipline():
    check("""
        PUSH1 1 PUSH1 2 PUSH1 3 PUSH1 4
        DUP4 SWAP2 ADD MUL ADD ADD
        PUSH1 0 SSTORE
        STOP
    """)


# -- memory -------------------------------------------------------------------

def test_memory_round_trip():
    check("""
        PUSH2 0xbeef PUSH1 0x20 MSTORE
        PUSH1 0x20 MLOAD PUSH1 0 SSTORE
        PUSH1 0x30 MLOAD PUSH1 1 SSTORE          ; straddles the stored word
        STOP
    """)


def test_mstore8_packing():
    check("""
        PUSH1 0xaa PUSH1 0 MSTORE8
        PUSH1 0xbb PUSH1 1 MSTORE8
        PUSH1 0 MLOAD PUSH1 0 SSTORE
        STOP
    """)


def test_msize_tracks_touched_memory():
    check("""
        MSIZE PUSH1 0 SSTORE
        PUSH1 1 PUSH1 0x21 MSTORE8
        MSIZE PUSH1 1 SSTORE
        STOP
    """)


def test_msize_counts_memory_a_read_expands():
    check("""
        PUSH1 0x40 MLOAD POP
        MSIZE PUSH1 0 SSTORE                     ; 0x60, as on the EVM
        STOP
    """)


def test_zero_length_access_leaves_msize():
    check("""
        PUSH1 1 PUSH1 0 MSTORE8
        PUSH1 0 PUSH1 0x40 SHA3 POP              ; SHA3(0x40, 0)
        MSIZE PUSH1 0 SSTORE                     ; still 0x20
        STOP
    """)


def test_log_grows_memory_over_its_data():
    check("""
        PUSH1 0x20 PUSH1 0x40 LOG0               ; LOG0(0x40, 0x20)
        MSIZE PUSH1 0 SSTORE                     ; 0x60, as on the EVM
        STOP
    """)


def test_sha3_of_memory():
    check("""
        PUSH1 0x61 PUSH1 0 MSTORE8
        PUSH1 0x62 PUSH1 1 MSTORE8
        PUSH1 2 PUSH1 0 SHA3 PUSH1 0 SSTORE
        PUSH1 0 PUSH1 0 SHA3 PUSH1 1 SSTORE      ; hash of empty input
        STOP
    """)


# -- environment and data copies ----------------------------------------------

def test_calldata_reads():
    cd = _word(0x1234) + _word(0x99) + b"\xfe"
    check("""
        PUSH1 0 CALLDATALOAD PUSH1 0 SSTORE
        PUSH1 0x20 CALLDATALOAD PUSH1 1 SSTORE
        PUSH1 0x40 CALLDATALOAD PUSH1 2 SSTORE   ; zero padded tail
        CALLDATASIZE PUSH1 3 SSTORE
        STOP
    """, calldata=cd)


def test_calldatacopy():
    cd = bytes(range(1, 41))
    check("""
        PUSH1 16 PUSH1 4 PUSH1 8 CALLDATACOPY    ; mem[8..24] = cd[4..20]
        PUSH1 8 MLOAD PUSH1 0 SSTORE
        PUSH1 64 PUSH1 30 PUSH1 0x40 CALLDATACOPY  ; copy past the end
        PUSH1 0x40 MLOAD PUSH1 1 SSTORE
        STOP
    """, calldata=cd)


def test_codecopy_and_codesize():
    check("""
        CODESIZE PUSH1 0 SSTORE
        PUSH1 8 PUSH1 0 PUSH1 0 CODECOPY
        PUSH1 0 MLOAD PUSH1 1 SSTORE
        STOP
    """)


def test_env_values():
    check("""
        ADDRESS PUSH1 0 SSTORE
        CALLER PUSH1 1 SSTORE
        CALLVALUE PUSH1 2 SSTORE
        PC PUSH1 3 SSTORE
        STOP
    """, value=77)


def test_push0():
    check("""
        PUSH0 ISZERO PUSH1 0 SSTORE
        PUSH1 7 PUSH0 PUSH1 1 ADD SSTORE         ; slot 1 = 7
        STOP
    """)


def test_selfbalance_follows_transfers():
    check(f"""
        SELFBALANCE PUSH1 0 SSTORE
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0
        PUSH1 40 PUSH4 0x{CALLER_ADDR:08x} PUSH1 0 CALL POP
        SELFBALANCE PUSH1 1 SSTORE
        STOP
    """, value=50, balance=300)


@pytest.mark.parametrize("op", ["CHAINID", "BASEFEE"])
def test_block_env_reads_one_word(op):
    # the same word on every read: 0 in the oracle, a symbol in the VM
    check(f"""
        PUSH1 7 {op} {op} EQ PUSH1 0 SSTORE
        PUSH1 1 SSTORE                           ; 7: nothing else moved
        STOP
    """)


def test_balance_reads():
    check("""
        ADDRESS BALANCE PUSH1 0 SSTORE
        CALLER BALANCE PUSH1 1 SSTORE
        STOP
    """, value=50, balance=300)


# -- control flow -------------------------------------------------------------

def test_branch_taken_on_calldata():
    src = """
        PUSH1 0 CALLDATALOAD PUSHL big JUMPI
        PUSH1 1 PUSH1 0 SSTORE STOP
        big: JUMPDEST PUSH1 2 PUSH1 0 SSTORE STOP
    """
    check(src, calldata=_word(0))
    check(src, calldata=_word(5))


def test_bounded_loop_sums():
    # slot0 = sum of 1..10 by explicit countdown
    check("""
        PUSH1 10
        loop: JUMPDEST
        DUP1 PUSH1 0 SLOAD ADD PUSH1 0 SSTORE
        PUSH1 1 SWAP1 SUB
        DUP1 PUSHL loop JUMPI
        POP STOP
    """)


def test_storage_preset_and_aliasing():
    check("""
        PUSH1 3 SLOAD PUSH1 2 MUL PUSH1 4 SSTORE
        PUSH1 1 PUSH1 5 SSTORE
        PUSH1 9 PUSH1 5 SSTORE                   ; overwrite
        PUSH1 5 SLOAD PUSH1 6 SSTORE
        PUSH1 0 PUSH1 3 SSTORE                   ; clear a preset slot
        STOP
    """, storage={3: 21})


# -- calls and creates --------------------------------------------------------

def test_call_to_codeless_account_transfers_value():
    check(f"""
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0
        PUSH1 40 PUSH4 0x{CALLER_ADDR:08x} PUSH1 0 CALL
        PUSH1 0 SSTORE                            ; success flag
        STOP
    """, value=100)


def test_call_grows_memory_over_its_output_range():
    check("""
        PUSH1 0x20 PUSH1 0x40 PUSH1 0 PUSH1 0
        PUSH1 0 PUSH1 0xbb PUSH1 0 CALL POP      ; output (0x40, 0x20)
        MSIZE PUSH1 0 SSTORE                     ; 0x60, as on the EVM
        STOP
    """)


def test_call_grows_memory_over_its_input_range():
    check("""
        PUSH1 0 PUSH1 0 PUSH1 0x20 PUSH1 0x80
        PUSH1 0 PUSH1 0xbb PUSH1 0 CALL POP      ; input (0x80, 0x20)
        MSIZE PUSH1 0 SSTORE                     ; 0xa0, as on the EVM
        STOP
    """)


def test_self_call_runs_callee_and_returns_data():
    # outer (calldatasize > 0) calls itself with empty input; the inner run
    # writes slot 5 and RETURNs a word the outer stores from memory
    check("""
        CALLDATASIZE PUSHL outer JUMPI
        PUSH1 7 PUSH1 5 SSTORE
        PUSH2 0xfeed PUSH1 0 MSTORE
        PUSH1 0x20 PUSH1 0 RETURN
        outer: JUMPDEST
        PUSH1 0x20 PUSH1 0x40 PUSH1 0 PUSH1 0
        PUSH1 0 ADDRESS PUSH1 0 CALL
        PUSH1 0 SSTORE
        PUSH1 0x40 MLOAD PUSH1 1 SSTORE
        STOP
    """, calldata=b"\x01")


def test_create_deploys_runtime():
    # init: MSTORE8(0, 0x42); RETURN(0, 1) -> runtime is the byte 0x42
    check("""
        PUSH32 0x604260005360016000f300000000000000000000000000000000000000000000
        PUSH1 0 MSTORE
        PUSH1 10 PUSH1 0 PUSH1 3 CREATE
        PUSH1 0 SSTORE                            ; created address
        STOP
    """, balance=500)


def test_create_init_writes_creator_visible_state():
    # init stores CALLVALUE at its own slot 0 and returns empty runtime
    check("""
        PUSH32 0x3460005500000000000000000000000000000000000000000000000000000000
        PUSH1 0 MSTORE
        PUSH1 4 PUSH1 0 PUSH1 9 CREATE
        PUSH1 0 SSTORE
        STOP
    """, balance=500)


def test_two_creates_get_distinct_addresses():
    check("""
        PUSH32 0x604260005360016000f300000000000000000000000000000000000000000000
        PUSH1 0 MSTORE
        PUSH1 10 PUSH1 0 PUSH1 0 CREATE PUSH1 0 SSTORE
        PUSH1 10 PUSH1 0 PUSH1 0 CREATE PUSH1 1 SSTORE
        PUSH1 0 SLOAD PUSH1 1 SLOAD EQ PUSH1 2 SSTORE
        STOP
    """)


# -- mixed programs -----------------------------------------------------------

@pytest.mark.parametrize("a,b", [(0, 0), (1, 255), (170, 85), (2**255, 1)])
def test_parametrized_two_word_mixer(a, b):
    check("""
        PUSH1 0 CALLDATALOAD PUSH1 0x20 CALLDATALOAD
        DUP2 DUP2 ADD PUSH1 0 SSTORE
        DUP2 DUP2 XOR PUSH1 1 SSTORE
        DUP2 DUP2 AND PUSH1 2 SSTORE
        LT PUSH1 3 SSTORE
        STOP
    """, calldata=_word(a) + _word(b))


def test_hash_keyed_storage():
    # mapping-style write: slot = keccak(key . base)
    check("""
        PUSH1 7 PUSH1 0 MSTORE
        PUSH1 1 PUSH1 0x20 MSTORE
        PUSH1 0x40 PUSH1 0 SHA3
        PUSH1 99 SWAP1 SSTORE
        PUSH1 7 PUSH1 0 MSTORE
        PUSH1 1 PUSH1 0x20 MSTORE
        PUSH1 0x40 PUSH1 0 SHA3 SLOAD PUSH1 0 SSTORE
        STOP
    """)
