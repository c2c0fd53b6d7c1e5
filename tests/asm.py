"""A two-pass EVM assembler for building test bytecode by hand.

Source format: whitespace-separated mnemonics (several per line is fine),
``;`` comments to end of line, ``label:`` targets. ``PUSHL label`` assembles
to a PUSH2 of the label's byte offset. PUSHn immediates may be hex (0x...)
or decimal and are zero-padded on the left.
"""

from __future__ import annotations

from reentscan.evm_core import OPCODE_BY_NAME
from reentscan.smt import terms as tm
from reentscan.symdomain import TermCalldata


def _tokens(source: str) -> list[str]:
    out: list[str] = []
    for raw in source.splitlines():
        line = raw.split(";", 1)[0]
        out.extend(line.split())
    return out


def _immediate_width(name: str) -> int:
    return int(name[4:])


def assemble(source: str) -> bytes:
    tokens = _tokens(source)

    # first pass: label offsets
    labels: dict[str, int] = {}
    offset = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.endswith(":"):
            labels[tok[:-1]] = offset
            continue
        name = tok.upper()
        if name == "PUSHL":
            i += 1
            offset += 3  # PUSH2 + 2 bytes
        elif name.startswith("PUSH") and name != "PUSH0":
            i += 1
            offset += 1 + _immediate_width(name)
        else:
            offset += 1

    # second pass: bytes
    out = bytearray()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.endswith(":"):
            continue
        name = tok.upper()
        if name == "PUSHL":
            target = labels[tokens[i]]
            i += 1
            out.append(OPCODE_BY_NAME["PUSH2"])
            out += target.to_bytes(2, "big")
        elif name.startswith("PUSH") and name != "PUSH0":
            width = _immediate_width(name)
            value = int(tokens[i], 0)
            i += 1
            out.append(OPCODE_BY_NAME[name])
            out += value.to_bytes(width, "big")
        else:
            out.append(OPCODE_BY_NAME[name])
    return bytes(out)


def concrete(data: bytes = b"") -> TermCalldata:
    """Calldata of the constant bytes ``data``."""
    return TermCalldata(tuple(tm.const(b) for b in data))
