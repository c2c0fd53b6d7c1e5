"""EVM bytecode decoding: opcode table, disassembly, jump-target discovery, selectors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .keccak import keccak256


@dataclass(frozen=True)
class Bytecode:
    """Raw runtime (or init) code."""

    data: bytes

    @cached_property
    def decoded(self) -> tuple[dict[int, Instruction], frozenset[int]]:
        """The instructions by offset, and the offsets of the JUMPDESTs
        that are not inside a PUSH immediate (see :func:`_decode`)."""
        return _decode(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True)
class FunctionId:
    """A 4-byte dispatch selector, compared as an unsigned 32-bit value."""

    selector: bytes

    def __post_init__(self) -> None:
        if len(self.selector) != 4:
            raise ValueError(f"selector must be 4 bytes, got {len(self.selector)}")

    @property
    def value(self) -> int:
        return int.from_bytes(self.selector, "big")

    def hex(self) -> str:
        return "0x" + self.selector.hex()

    def __str__(self) -> str:
        return self.hex()


# name -> (opcode, pops, pushes). PUSH/DUP/SWAP/LOG are generated below.
_BASE_OPCODES: dict[int, tuple[str, int, int]] = {
    0x00: ("STOP", 0, 0),
    0x01: ("ADD", 2, 1),
    0x02: ("MUL", 2, 1),
    0x03: ("SUB", 2, 1),
    0x04: ("DIV", 2, 1),
    0x05: ("SDIV", 2, 1),
    0x06: ("MOD", 2, 1),
    0x07: ("SMOD", 2, 1),
    0x08: ("ADDMOD", 3, 1),
    0x09: ("MULMOD", 3, 1),
    0x0A: ("EXP", 2, 1),
    0x0B: ("SIGNEXTEND", 2, 1),
    0x10: ("LT", 2, 1),
    0x11: ("GT", 2, 1),
    0x12: ("SLT", 2, 1),
    0x13: ("SGT", 2, 1),
    0x14: ("EQ", 2, 1),
    0x15: ("ISZERO", 1, 1),
    0x16: ("AND", 2, 1),
    0x17: ("OR", 2, 1),
    0x18: ("XOR", 2, 1),
    0x19: ("NOT", 1, 1),
    0x1A: ("BYTE", 2, 1),
    0x1B: ("SHL", 2, 1),
    0x1C: ("SHR", 2, 1),
    0x1D: ("SAR", 2, 1),
    0x20: ("SHA3", 2, 1),
    0x30: ("ADDRESS", 0, 1),
    0x31: ("BALANCE", 1, 1),
    0x32: ("ORIGIN", 0, 1),
    0x33: ("CALLER", 0, 1),
    0x34: ("CALLVALUE", 0, 1),
    0x35: ("CALLDATALOAD", 1, 1),
    0x36: ("CALLDATASIZE", 0, 1),
    0x37: ("CALLDATACOPY", 3, 0),
    0x38: ("CODESIZE", 0, 1),
    0x39: ("CODECOPY", 3, 0),
    0x3A: ("GASPRICE", 0, 1),
    0x3B: ("EXTCODESIZE", 1, 1),
    0x3C: ("EXTCODECOPY", 4, 0),
    0x3D: ("RETURNDATASIZE", 0, 1),
    0x3E: ("RETURNDATACOPY", 3, 0),
    0x3F: ("EXTCODEHASH", 1, 1),
    0x40: ("BLOCKHASH", 1, 1),
    0x41: ("COINBASE", 0, 1),
    0x42: ("TIMESTAMP", 0, 1),
    0x43: ("NUMBER", 0, 1),
    0x44: ("DIFFICULTY", 0, 1),
    0x45: ("GASLIMIT", 0, 1),
    0x46: ("CHAINID", 0, 1),
    0x47: ("SELFBALANCE", 0, 1),
    0x48: ("BASEFEE", 0, 1),
    0x49: ("BLOBHASH", 1, 1),
    0x4A: ("BLOBBASEFEE", 0, 1),
    0x50: ("POP", 1, 0),
    0x51: ("MLOAD", 1, 1),
    0x52: ("MSTORE", 2, 0),
    0x53: ("MSTORE8", 2, 0),
    0x54: ("SLOAD", 1, 1),
    0x55: ("SSTORE", 2, 0),
    0x56: ("JUMP", 1, 0),
    0x57: ("JUMPI", 2, 0),
    0x58: ("PC", 0, 1),
    0x59: ("MSIZE", 0, 1),
    0x5A: ("GAS", 0, 1),
    0x5B: ("JUMPDEST", 0, 0),
    0x5C: ("TLOAD", 1, 1),
    0x5D: ("TSTORE", 2, 0),
    0x5E: ("MCOPY", 3, 0),
    0x5F: ("PUSH0", 0, 1),
    0xF0: ("CREATE", 3, 1),
    0xF1: ("CALL", 7, 1),
    0xF2: ("CALLCODE", 7, 1),
    0xF3: ("RETURN", 2, 0),
    0xF4: ("DELEGATECALL", 6, 1),
    0xF5: ("CREATE2", 4, 1),
    0xFA: ("STATICCALL", 6, 1),
    0xFD: ("REVERT", 2, 0),
    0xFE: ("INVALID", 0, 0),
    0xFF: ("SELFDESTRUCT", 1, 0),
}


def _build_table() -> dict[int, tuple[str, int, int]]:
    table = dict(_BASE_OPCODES)
    for n in range(1, 33):
        table[0x60 + n - 1] = (f"PUSH{n}", 0, 1)
    for n in range(1, 17):
        table[0x80 + n - 1] = (f"DUP{n}", n, n + 1)
        table[0x90 + n - 1] = (f"SWAP{n}", n + 1, n + 1)
    for n in range(5):
        table[0xA0 + n] = (f"LOG{n}", n + 2, 0)
    return table


OPCODES: dict[int, tuple[str, int, int]] = _build_table()
OPCODE_BY_NAME: dict[str, int] = {name: code for code, (name, _, _) in OPCODES.items()}

PUSH1, PUSH32 = 0x60, 0x7F
JUMPDEST = 0x5B


@dataclass(frozen=True)
class Instruction:
    offset: int
    opcode: int
    immediate: bytes | None = None

    @property
    def name(self) -> str:
        entry = OPCODES.get(self.opcode)
        return entry[0] if entry else "INVALID"

    @property
    def is_push(self) -> bool:
        return PUSH1 <= self.opcode <= PUSH32

    @property
    def push_value(self) -> int:
        assert self.immediate is not None
        return int.from_bytes(self.immediate, "big")

    @property
    def size(self) -> int:
        return 1 + (len(self.immediate) if self.immediate is not None else 0)

    def __str__(self) -> str:
        if self.immediate is not None:
            return f"{self.name} 0x{self.immediate.hex()}"
        return self.name


def disassemble(code: Bytecode) -> list[Instruction]:
    """Decode every byte exactly once.

    Unknown opcodes become INVALID instructions; a PUSH immediate running past
    the end of the code is zero-padded.
    """
    data = code.data
    out: list[Instruction] = []
    pc = 0
    while pc < len(data):
        op = data[pc]
        if PUSH1 <= op <= PUSH32:
            width = op - PUSH1 + 1
            raw = data[pc + 1:pc + 1 + width]
            out.append(Instruction(pc, op, raw.ljust(width, b"\x00")))
            pc += 1 + width
        else:
            out.append(Instruction(pc, op))
            pc += 1
    return out


@cache
def _decode(data: bytes) -> tuple[dict[int, Instruction], frozenset[int]]:
    """:attr:`Bytecode.decoded`, keyed by the code bytes: every code object
    with the same bytes, such as the init code of each CREATE on each walk,
    shares one decoding for the life of the process."""
    table = {ins.offset: ins for ins in disassemble(Bytecode(data))}
    return table, frozenset(pc for pc, ins in table.items()
                            if ins.opcode == JUMPDEST)


def selector_of(signature: str) -> FunctionId:
    """First 4 bytes of Keccak-256 of a canonical ABI signature string."""
    return FunctionId(keccak256(signature.encode("ascii"))[:4])


def reassemble(instructions: list[Instruction]) -> bytes:
    """Inverse of :func:`disassemble` (modulo trailing-PUSH zero padding)."""
    out = bytearray()
    for ins in instructions:
        out.append(ins.opcode)
        if ins.immediate is not None:
            out += ins.immediate
    return bytes(out)
