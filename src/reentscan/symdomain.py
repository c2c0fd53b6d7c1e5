"""Symbolic machine domain: words, calldata, storage, world state, basic blocks.

Every value flowing through the emulated machine is a 256-bit
:class:`~reentscan.smt.terms.Term`; concrete values are constant terms, so
constant folding doubles as a concrete interpreter. A path condition is one
interned boolean term, the conjunction :func:`~reentscan.smt.terms.band`
builds, so equal conditions are one object. Fresh symbols are named
deterministically from their role (never from global counters), which keeps
independently-collected path conditions over one scenario pair in a shared
symbol environment and makes runs reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .evm_core import Bytecode, FunctionId
from .keccak import keccak256
from .smt import terms as tm
from .smt.terms import Term

# -- calldata -----------------------------------------------------------------

class Calldata:
    """Byte-addressable transaction input."""

    def byte_at(self, i: int) -> Term:
        raise NotImplementedError

    def size(self) -> Term:
        raise NotImplementedError

    def load_word(self, offset: int) -> Term:
        word = tm.const(0)
        for i in range(32):
            word = tm.bv_or(word, tm.shl(self.byte_at(offset + i),
                                         tm.const(8 * (31 - i))))
        return word


class ConcreteCalldata(Calldata):
    def __init__(self, data: bytes):
        self.data = data

    def byte_at(self, i: int) -> Term:
        return tm.const(self.data[i] if i < len(self.data) else 0)

    def size(self) -> Term:
        return tm.const(len(self.data))


class AbiCalldata(Calldata):
    """A 4-byte selector followed by symbolic 32-byte argument words.

    ``selector=None`` leaves the dispatch selector itself symbolic (the low 32
    bits of the ``function_id`` word).
    """

    def __init__(self, selector: FunctionId | None, tag: str):
        self.selector = selector
        self.tag = tag
        self.function_id = tm.var("function_id")

    def selector_word(self) -> Term:
        """The 256-bit word whose low 32 bits are the selector: what an ABI
        dispatcher's ``calldata[0] >> 224`` folds to (see ``terms``)."""
        if self.selector is not None:
            return tm.const(self.selector.value)
        return tm.bv_and(self.function_id, tm.const(0xFFFFFFFF))

    def arg(self, k: int) -> Term:
        return tm.var(f"{self.tag}_arg{k}")

    def byte_at(self, i: int) -> Term:
        if i < 4:
            sel = self.selector_word()
            return tm.bv_and(tm.shr(sel, tm.const(8 * (3 - i))), tm.const(0xFF))
        k, off = divmod(i - 4, 32)
        return tm.bv_and(tm.shr(self.arg(k), tm.const(8 * (31 - off))),
                         tm.const(0xFF))

    def size(self) -> Term:
        return tm.var(f"{self.tag}_calldatasize")

    def load_word(self, offset: int) -> Term:
        if offset == 0:
            return tm.bv_or(tm.shl(self.selector_word(), tm.const(224)),
                            tm.shr(self.arg(0), tm.const(32)))
        if offset >= 4 and (offset - 4) % 32 == 0:
            return self.arg((offset - 4) // 32)
        return super().load_word(offset)


class TermCalldata(Calldata):
    """Calldata carved out of caller memory: a fixed tuple of byte terms."""

    def __init__(self, data: tuple[Term, ...]):
        self.data = data

    def byte_at(self, i: int) -> Term:
        return self.data[i] if i < len(self.data) else tm.const(0)

    def size(self) -> Term:
        return tm.const(len(self.data))


# -- accounts and world state -------------------------------------------------

@dataclass
class Account:
    """Per-path localized view of one blockchain account."""

    label: str
    address: Term
    code: Bytecode | None = None
    storage: dict[Term, Term] = field(default_factory=dict)  # writes, in order
    credits: list[Term] = field(default_factory=list)
    debits: list[Term] = field(default_factory=list)
    concrete_storage: dict[int, int] | None = None
    concrete_balance: int | None = None

    def clone(self) -> "Account":
        return Account(
            label=self.label,
            address=self.address,
            code=self.code,
            storage=dict(self.storage),
            credits=list(self.credits),
            debits=list(self.debits),
            concrete_storage=self.concrete_storage,
            concrete_balance=self.concrete_balance,
        )

    # storage ----------------------------------------------------------------

    def _base_read(self, slot: Term) -> Term:
        """The slot's value before any write; a symbolic read is named by
        the slot's digest, so every read of one slot is one interned term."""
        if self.concrete_storage is not None and slot.is_const:
            return tm.const(self.concrete_storage.get(slot.value, 0))
        return tm.var(f"sload_{self.label}_{slot.digest()}")

    def read_storage(self, slot: Term) -> Term:
        """The most recent write that may alias ``slot`` wins. Writes are
        walked newest first; a write to this very slot shadows every older
        write and the value before any write."""
        newer: list[tuple[Term, Term]] = []
        for written_slot, written_value in reversed(self.storage.items()):
            if written_slot is slot:  # terms are interned
                value = written_value
                break
            newer.append((tm.eq(slot, written_slot), written_value))
        else:
            value = self._base_read(slot)
        for cond, written_value in reversed(newer):
            value = tm.ite(cond, written_value, value)
        return value

    def write_storage(self, slot: Term, value: Term) -> None:
        # re-insert to refresh recency for the aliasing chain
        self.storage.pop(slot, None)
        self.storage[slot] = value

    # balance ----------------------------------------------------------------

    def initial_balance(self) -> Term:
        if self.concrete_balance is not None:
            return tm.const(self.concrete_balance)
        return tm.var(f"balance_{self.label}")

    def _inflow(self) -> Term:
        total = self.initial_balance()
        for c in self.credits:
            total = tm.bv_add(total, c)
        return total

    def balance_expr(self) -> Term:
        total = self._inflow()
        for d in self.debits:
            total = tm.bv_sub(total, d)
        return total

    @property
    def touched(self) -> bool:
        return bool(self.credits or self.debits)

    def solvency_constraint(self) -> Term:
        """No-underflow condition: initial balance plus inflow covers outflow."""
        outflow = tm.const(0)
        for d in self.debits:
            outflow = tm.bv_add(outflow, d)
        return tm.uge(self._inflow(), outflow)


class LocalWorldState:
    """Per-block copy of global chain data; mutations stay on this path."""

    def __init__(self) -> None:
        self.accounts: dict[str, Account] = {}
        self.addr_index: dict[Term, str] = {}
        self.next_fresh_account = 0

    def clone(self) -> "LocalWorldState":
        out = LocalWorldState()
        out.accounts = {k: v.clone() for k, v in self.accounts.items()}
        out.addr_index = dict(self.addr_index)
        out.next_fresh_account = self.next_fresh_account
        return out

    def add_account(self, label: str, address: Term,
                    code: Bytecode | None = None, **kwargs) -> Account:
        acct = Account(label=label, address=address, code=code, **kwargs)
        self.accounts[label] = acct
        self.addr_index[address] = label
        return acct

    def account_at(self, address: Term) -> Account | None:
        label = self.addr_index.get(address)
        return self.accounts[label] if label is not None else None

    def external_account(self, address: Term) -> Account:
        """The (possibly fresh) code-less account behind an arbitrary address."""
        existing = self.account_at(address)
        if existing is not None:
            return existing
        return self.add_account(f"ext_{address.digest()}", address, code=None)

    def fresh_account_label(self, creator: str) -> str:
        label = f"{creator}.new{self.next_fresh_account}"
        self.next_fresh_account += 1
        return label

    def sha3(self, data: tuple[Term, ...]) -> Term:
        """Keccak over memory bytes: real hash when concrete, else a symbol
        named by the digest of the input expression, so equal inputs give
        the same interned term on every path."""
        if all(b.is_const for b in data):
            raw = bytes(b.value & 0xFF for b in data)
            return tm.const(int.from_bytes(keccak256(raw), "big"))
        joined = tm.const(0)
        for b in data:
            joined = tm.bv_add(tm.bv_mul(joined, tm.const(257)), b)
        return tm.var(f"sha3_{joined.digest()}")

    def with_solvency(self, pc: Term) -> Term:
        """``pc`` with the solvency condition of every touched account appended."""
        return tm.band([pc, *(acct.solvency_constraint()
                              for acct in self.accounts.values()
                              if acct.touched)])


# -- machine state and call stack ---------------------------------------------

MAX_STACK = 1024


@dataclass
class MachineState:
    code: Bytecode
    account: str
    caller: Term
    callvalue: Term
    calldata: Calldata
    stack: list[Term] = field(default_factory=list)
    memory: dict[int, Term] = field(default_factory=dict)  # byte address -> byte value
    pc: int = 0
    returndata: list[Term] = field(default_factory=list)
    # JUMP/JUMPI offset -> passes in this frame; a new frame starts from 0
    visit_counts: dict[int, int] = field(default_factory=dict)

    def clone(self) -> "MachineState":
        return MachineState(
            code=self.code,
            account=self.account,
            caller=self.caller,
            callvalue=self.callvalue,
            calldata=self.calldata,
            stack=list(self.stack),
            memory=dict(self.memory),
            pc=self.pc,
            returndata=list(self.returndata),
            visit_counts=dict(self.visit_counts),
        )

    # memory -----------------------------------------------------------------

    def mstore_word(self, offset: int, value: Term) -> None:
        for i in range(32):
            self.memory[offset + i] = tm.bv_and(
                tm.shr(value, tm.const(8 * (31 - i))), tm.const(0xFF))

    # a read records the zero bytes it expands memory by, so MSIZE counts them
    def mload_word(self, offset: int) -> Term:
        word = tm.const(0)
        for i in range(32):
            byte = self.memory.setdefault(offset + i, tm.const(0))
            word = tm.bv_or(word, tm.shl(byte, tm.const(8 * (31 - i))))
        return word

    def mbytes(self, offset: int, length: int) -> tuple[Term, ...]:
        return tuple(self.memory.setdefault(offset + i, tm.const(0))
                     for i in range(length))

    def grow(self, offset: int, length: int) -> None:
        """Expand memory over a range nothing reads: MSIZE counts only the
        highest byte, and an absent byte reads as 0."""
        if length:
            self.memory.setdefault(offset + length - 1, tm.const(0))


@dataclass(frozen=True)
class CallStackEntry:
    """A suspended caller; never mutated, so forks share it. ``created``
    names the account a CREATE frame deploys, ``attacker`` the code-less
    account a re-entry hops through on its way in and out."""

    saved_machine: MachineState   # resumes at the instruction after the call
    out_offset: int = 0
    out_size: int = 0
    created: str | None = None
    attacker: str | None = None


# -- basic blocks and the extended CFG ----------------------------------------

class EndState(enum.Enum):
    OPEN = "open"
    STOP = "stop"
    RETURN = "return"
    REVERT = "revert"
    INVALID = "invalid"
    BRANCHED = "branched"      # continued into forked successors
    TRANSITED = "transited"    # continued across a contract boundary

HALTED = {EndState.STOP, EndState.RETURN, EndState.REVERT, EndState.INVALID}
COMPLETED = {EndState.STOP, EndState.RETURN}


@dataclass
class BasicBlock:
    id: int
    machine: MachineState
    world: LocalWorldState
    path_condition: Term  # the interned conjunction, grown by tm.band
    call_stack: list[CallStackEntry] = field(default_factory=list)
    end_state: EndState = EndState.OPEN
    ext_call_target: Term | None = None  # target of the first call to unknown code
    # the attacker's choices of g (calldata each) until it picks one, to run
    # re-entered or as the next transaction; none after
    pending_g: tuple[Calldata, ...] = ()
    g: Calldata | None = None  # the g the attacker picked on this path
    reentered: bool = False  # g ran inside f, through the attacker

    def copy_as(self, new_id: int,
                machine: MachineState | None = None) -> "BasicBlock":
        """Independent copy with a fresh id (path state only), running
        ``machine`` if given; the frozen call-stack entries are shared,
        only the list is copied."""
        return BasicBlock(
            id=new_id,
            machine=machine if machine is not None else self.machine.clone(),
            world=self.world.clone(),
            path_condition=self.path_condition,
            call_stack=list(self.call_stack),
            end_state=EndState.OPEN,
            ext_call_target=self.ext_call_target,
            pending_g=self.pending_g,
            g=self.g,
            reentered=self.reentered,
        )


class EdgeKind(enum.Enum):
    FALLTHROUGH = "fallthrough"
    JUMP = "jump"
    CREATE_ENTER = "create_enter"
    CREATE_RETURN = "create_return"
    CALL_ENTER = "call_enter"
    CALL_RETURN = "call_return"
    NEXT_TX = "next_tx"  # f completed; g starts as the next transaction


@dataclass
class NodeInfo:
    block_id: int
    contract: str
    start_pc: int
    end_state: EndState = EndState.OPEN


class ECFG:
    """Control-flow graph whose edges may cross contract boundaries."""

    def __init__(self) -> None:
        self.nodes: dict[int, NodeInfo] = {}
        self.edges: list[tuple[int, int, EdgeKind]] = []

    def add_node(self, info: NodeInfo) -> None:
        self.nodes[info.block_id] = info

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append((src, dst, kind))
