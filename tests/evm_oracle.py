"""An independent concrete EVM interpreter used as a differential oracle.

Deliberately written against raw bytes with its own decoding loop and its own
integer semantics; it shares nothing with the analyzer except the Keccak
primitive. Conventions chosen to match the analyzer's modeling assumptions:

* GAS, TIMESTAMP, NUMBER, CHAINID, BASEFEE and friends read as 0.
* A CALL to an address without code succeeds (pushes 1) after moving value.
* Created contract addresses are derived from keccak of a creator label and
  nonce, mirroring the analyzer's deterministic scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from reentscan.keccak import keccak256

MASK = (1 << 256) - 1
SIGN = 1 << 255


def _signed(v: int) -> int:
    return v - (1 << 256) if v & SIGN else v


@dataclass
class OAccount:
    balance: int = 0
    code: bytes = b""
    storage: dict[int, int] = field(default_factory=dict)


class OracleWorld:
    def __init__(self) -> None:
        self.accounts: dict[int, OAccount] = {}
        self.labels: dict[int, str] = {}
        self._create_nonce = 0

    def account(self, addr: int) -> OAccount:
        if addr not in self.accounts:
            self.accounts[addr] = OAccount()
        return self.accounts[addr]

    def create_address(self, creator_label: str, index: int) -> int:
        label = f"{creator_label}.new{index}"
        return int.from_bytes(keccak256(label.encode())[12:], "big")


class OracleRevert(Exception):
    pass


def run_transaction(world: OracleWorld, to: int, caller: int, value: int,
                    calldata: bytes, *, to_label: str = "c0") -> None:
    """Execute one transaction; mutates the world in place."""
    world.account(caller).balance -= value
    world.account(to).balance += value
    world.labels[to] = to_label
    _execute(world, world.account(to).code, to, caller, value, calldata, 0)


def _execute(world: OracleWorld, code: bytes, self_addr: int, caller: int,
             value: int, calldata: bytes, depth: int) -> bytes:
    if depth > 32:
        raise OracleRevert("depth")
    stack: list[int] = []
    memory = bytearray()
    pc = 0

    def grow(off: int, n: int) -> None:
        # a zero-length access leaves memory as it is (Yellow Paper, M)
        if n and len(memory) < off + n:
            memory.extend(b"\x00" * (off + n - len(memory)))

    def mload(off: int, n: int) -> bytes:
        grow(off, n)
        return bytes(memory[off:off + n])

    def mstore(off: int, data: bytes) -> None:
        grow(off, len(data))
        memory[off:off + len(data)] = data

    def cdload(off: int) -> int:
        chunk = calldata[off:off + 32]
        return int.from_bytes(chunk + b"\x00" * (32 - len(chunk)), "big")

    acct = world.account(self_addr)

    while pc < len(code):
        op = code[pc]
        pc += 1
        if op == 0x5F:  # PUSH0
            stack.append(0)
        elif 0x60 <= op <= 0x7F:  # PUSH1..PUSH32
            n = op - 0x5F
            chunk = code[pc:pc + n]
            stack.append(int.from_bytes(chunk + b"\x00" * (n - len(chunk)), "big"))
            pc += n
        elif 0x80 <= op <= 0x8F:  # DUP
            stack.append(stack[-(op - 0x7F)])
        elif 0x90 <= op <= 0x9F:  # SWAP
            n = op - 0x8F
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
        elif op == 0x00:  # STOP
            return b""
        elif op == 0x01:
            a, b = stack.pop(), stack.pop()
            stack.append((a + b) & MASK)
        elif op == 0x02:
            a, b = stack.pop(), stack.pop()
            stack.append((a * b) & MASK)
        elif op == 0x03:
            a, b = stack.pop(), stack.pop()
            stack.append((a - b) & MASK)
        elif op == 0x04:
            a, b = stack.pop(), stack.pop()
            stack.append(a // b if b else 0)
        elif op == 0x05:  # SDIV
            a, b = _signed(stack.pop()), _signed(stack.pop())
            if b == 0:
                stack.append(0)
            else:
                q = abs(a) // abs(b)
                stack.append((q if (a < 0) == (b < 0) else -q) & MASK)
        elif op == 0x06:
            a, b = stack.pop(), stack.pop()
            stack.append(a % b if b else 0)
        elif op == 0x07:  # SMOD
            a, b = _signed(stack.pop()), _signed(stack.pop())
            if b == 0:
                stack.append(0)
            else:
                r = abs(a) % abs(b)
                stack.append((r if a >= 0 else -r) & MASK)
        elif op == 0x08:  # ADDMOD
            a, b, n = stack.pop(), stack.pop(), stack.pop()
            stack.append((a + b) % n if n else 0)
        elif op == 0x09:  # MULMOD
            a, b, n = stack.pop(), stack.pop(), stack.pop()
            stack.append((a * b) % n if n else 0)
        elif op == 0x0A:  # EXP
            a, b = stack.pop(), stack.pop()
            stack.append(pow(a, b, 1 << 256))
        elif op == 0x0B:  # SIGNEXTEND
            b, x = stack.pop(), stack.pop()
            if b >= 31:
                stack.append(x)
            else:
                bits = 8 * (b + 1)
                v = x & ((1 << bits) - 1)
                if v >> (bits - 1):
                    v |= MASK ^ ((1 << bits) - 1)
                stack.append(v)
        elif op == 0x10:
            a, b = stack.pop(), stack.pop()
            stack.append(int(a < b))
        elif op == 0x11:
            a, b = stack.pop(), stack.pop()
            stack.append(int(a > b))
        elif op == 0x12:
            a, b = stack.pop(), stack.pop()
            stack.append(int(_signed(a) < _signed(b)))
        elif op == 0x13:
            a, b = stack.pop(), stack.pop()
            stack.append(int(_signed(a) > _signed(b)))
        elif op == 0x14:
            a, b = stack.pop(), stack.pop()
            stack.append(int(a == b))
        elif op == 0x15:
            stack.append(int(stack.pop() == 0))
        elif op == 0x16:
            a, b = stack.pop(), stack.pop()
            stack.append(a & b)
        elif op == 0x17:
            a, b = stack.pop(), stack.pop()
            stack.append(a | b)
        elif op == 0x18:
            a, b = stack.pop(), stack.pop()
            stack.append(a ^ b)
        elif op == 0x19:
            stack.append(~stack.pop() & MASK)
        elif op == 0x1A:  # BYTE
            i, x = stack.pop(), stack.pop()
            stack.append((x >> (8 * (31 - i))) & 0xFF if i < 32 else 0)
        elif op == 0x1B:  # SHL
            s, x = stack.pop(), stack.pop()
            stack.append((x << s) & MASK if s < 256 else 0)
        elif op == 0x1C:  # SHR
            s, x = stack.pop(), stack.pop()
            stack.append(x >> s if s < 256 else 0)
        elif op == 0x1D:  # SAR
            s, x = stack.pop(), stack.pop()
            stack.append((_signed(x) >> min(s, 256)) & MASK)
        elif op == 0x20:  # SHA3
            off, n = stack.pop(), stack.pop()
            stack.append(int.from_bytes(keccak256(mload(off, n)), "big"))
        elif op == 0x30:  # ADDRESS
            stack.append(self_addr)
        elif op == 0x31:  # BALANCE
            stack.append(world.account(stack.pop()).balance & MASK)
        elif op == 0x33:  # CALLER
            stack.append(caller)
        elif op == 0x34:  # CALLVALUE
            stack.append(value)
        elif op == 0x35:  # CALLDATALOAD
            stack.append(cdload(stack.pop()))
        elif op == 0x36:  # CALLDATASIZE
            stack.append(len(calldata))
        elif op == 0x37:  # CALLDATACOPY
            dst, src, n = stack.pop(), stack.pop(), stack.pop()
            chunk = calldata[src:src + n]
            mstore(dst, chunk + b"\x00" * (n - len(chunk)))
        elif op == 0x38:  # CODESIZE
            stack.append(len(code))
        elif op == 0x39:  # CODECOPY
            dst, src, n = stack.pop(), stack.pop(), stack.pop()
            chunk = code[src:src + n]
            mstore(dst, chunk + b"\x00" * (n - len(chunk)))
        elif op in (0x32, 0x3A, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x48,
                    0x5A):
            stack.append(0)  # ORIGIN/GASPRICE/block env/GAS: modeled as 0
        elif op == 0x47:  # SELFBALANCE
            stack.append(acct.balance & MASK)
        elif op == 0x50:
            stack.pop()
        elif op == 0x51:  # MLOAD
            stack.append(int.from_bytes(mload(stack.pop(), 32), "big"))
        elif op == 0x52:  # MSTORE
            off, v = stack.pop(), stack.pop()
            mstore(off, v.to_bytes(32, "big"))
        elif op == 0x53:  # MSTORE8
            off, v = stack.pop(), stack.pop()
            mstore(off, bytes([v & 0xFF]))
        elif op == 0x54:  # SLOAD
            stack.append(acct.storage.get(stack.pop(), 0))
        elif op == 0x55:  # SSTORE
            slot, v = stack.pop(), stack.pop()
            acct.storage[slot] = v
        elif op == 0x56:  # JUMP
            pc = stack.pop()
            assert code[pc] == 0x5B, "bad jump target"
        elif op == 0x57:  # JUMPI
            dst, cond = stack.pop(), stack.pop()
            if cond:
                pc = dst
                assert code[pc] == 0x5B, "bad jump target"
        elif op == 0x58:  # PC
            stack.append(pc - 1)
        elif op == 0x59:  # MSIZE
            stack.append((len(memory) + 31) // 32 * 32)
        elif op == 0x5B:  # JUMPDEST
            pass
        elif 0xA0 <= op <= 0xA4:  # LOGn
            off, n = stack.pop(), stack.pop()
            grow(off, n)
            for _ in range(op - 0xA0):
                stack.pop()
        elif op == 0xF0:  # CREATE
            cval, off, n = stack.pop(), stack.pop(), stack.pop()
            init = mload(off, n)
            creator_label = world.labels.get(self_addr, f"0x{self_addr:x}")
            new_addr = world.create_address(creator_label, world._create_nonce)
            world._create_nonce += 1
            world.labels[new_addr] = f"{creator_label}.new{world._create_nonce - 1}"
            acct.balance -= cval
            new_acct = world.account(new_addr)
            new_acct.balance += cval
            runtime = _execute(world, init, new_addr, self_addr, cval, b"",
                               depth + 1)
            new_acct.code = runtime
            stack.append(new_addr)
        elif op == 0xF1:  # CALL
            (_gas, to, cval, in_off, in_n, out_off, out_n) = (
                stack.pop(), stack.pop(), stack.pop(), stack.pop(),
                stack.pop(), stack.pop(), stack.pop())
            grow(in_off, in_n)
            grow(out_off, out_n)
            acct.balance -= cval
            callee = world.account(to)
            callee.balance += cval
            if callee.code:
                ret = _execute(world, callee.code, to, self_addr, cval,
                               mload(in_off, in_n), depth + 1)
                mstore(out_off, ret[:out_n])
            stack.append(1)
        elif op == 0xF3:  # RETURN
            off, n = stack.pop(), stack.pop()
            return mload(off, n)
        elif op == 0xFD:  # REVERT
            raise OracleRevert("revert")
        else:
            raise NotImplementedError(f"oracle opcode 0x{op:02x}")
    return b""
