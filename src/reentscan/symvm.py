"""Symbolic EVM interpreter over local world states.

One :class:`SymVM` explores every feasible path of a transaction, forking at
conditional jumps and crossing contract boundaries at CREATE and CALL. Given
the calldata of every g the attacker may pick, one walk of f covers both
schedules of every pair (f, g): the first external call to unknown code on a
path forks it, and an attacker dummy either returns success at once or first
calls back into the victim with a g of its choice, one successor per g. A
path whose f completes after the dummy returned at once forks again over g,
which runs as the next transaction, on the same block; a path whose f
reached no call to unknown code ends with f. Later calls, and every call
with no g to pick, just succeed. The dummy is behavioral, it has no
bytecode of its own. The VM adds no solvency terms; the verifier appends
them to final conditions.

A path the model cannot finish never vanishes: an unsupported opcode, a
loop or call-depth bound, or an operand with no model value or more than
one feasible value stops the run where it happens
(:class:`~reentscan.cfg_manager.CannotFinish`), or, past the attacker's pick
of g, that g's part of it. Operands are pinned only where a number is
needed, so a REVERT, and the RETURN that ends the transaction, leave their
discarded data range free.

Symbol names are fixed by role (``caller``, ``f_callvalue``, ``g_arg0``,
storage reads keyed by account and slot digest) so that the path conditions
of both schedules, and of every run over the same contract, share one symbol
environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cfg_manager import (BoundReached, CannotConcretize, CannotFinish,
                          Explorer, PathExplosion, UnsupportedOpcode, where)
from .evm_core import (
    Bytecode,
    FunctionId,
    OPCODES,
)
from .keccak import keccak256
from .smt import Solver, SolverStatus
from .smt import terms as tm
from .smt.terms import Term
from .symdomain import (
    AbiCalldata,
    Account,
    BasicBlock,
    Calldata,
    CallStackEntry,
    COMPLETED,
    ECFG,
    EdgeKind,
    EndState,
    LocalWorldState,
    MachineState,
    MAX_STACK,
    TermCalldata,
)

WORD = (1 << 256) - 1
VICTIM = "c0"  # account label of the contract under analysis


@dataclass
class AnalyzerConfig:
    call_depth_bound: int = 8
    loop_bound: int = 3
    path_cap: int = 10_000
    solver_timeout: float = 60.0


@dataclass
class RunResult:
    # top-level Stop/Return blocks; with g's to pick, the ends where a g
    # re-entered, where a g ran next, and where f met no call to unknown code
    completed: list[BasicBlock]
    sealed: list[BasicBlock]      # every halted block, Revert and Invalid included
    ecfg: ECFG
    created: list[Bytecode]       # non-empty runtime code returned by each CREATE
    # each g whose paths the run could not finish, with what stopped them
    failed: dict[Calldata, CannotFinish]


@dataclass(frozen=True)
class FunctionEntry:
    selector: FunctionId | None   # None marks the fallback pseudo-entry
    has_call: bool

    def describe(self) -> str:
        return self.selector.hex() if self.selector else "fallback"


def _signed(v: int) -> int:
    return v - (1 << 256) if v >> 255 else v


class SymVM:
    def __init__(self, solver: Solver | None = None,
                 config: AnalyzerConfig | None = None):
        self.config = config or AnalyzerConfig()
        self.solver = solver or Solver(self.config.solver_timeout)

    # -- entry points ---------------------------------------------------------

    def run_entry(self, code: Bytecode | None, calldata: Calldata, *,
                  world: LocalWorldState | None = None,
                  caller: Term | None = None,
                  callvalue: Term | None = None,
                  reentry: tuple[Calldata, ...] = ()) -> RunResult:
        """Explore one transaction against the victim contract in one
        depth-first walk.

        With ``reentry``, the calldata of each g the attacker may pick, the
        walk covers both schedules of every pair (f, g): a path forks at its
        first call to unknown code, where the attacker dummy either
        re-enters the victim with one of the g's or returns at once, and a
        path whose f completes after the dummy returned goes on with one of
        them as the next transaction (see :meth:`_pick_g`).

        A :class:`~reentscan.cfg_manager.CannotFinish` raised on a path
        after the pick fails that g alone: it is recorded in
        ``RunResult.failed``, the g's remaining paths are dropped and the
        walk goes on. One raised before the pick, or a
        :class:`~reentscan.cfg_manager.PathExplosion`, ends the walk; with
        ``reentry`` it is recorded for every g not failed yet, without it
        is raised.
        """
        if world is None:
            world = LocalWorldState()
        if VICTIM not in world.accounts:
            if code is None:
                raise ValueError("fresh world needs the victim bytecode")
            world.add_account(VICTIM, tm.var(f"address_{VICTIM}"), code=code)
        machine = self._transaction(
            world, caller if caller is not None else tm.var("caller"),
            callvalue if callvalue is not None else tm.var("f_callvalue"),
            calldata)
        ex = Explorer(self.solver, self.config.path_cap)
        ex.push(ex.adopt(BasicBlock(id=0, machine=machine, world=world,
                                    path_condition=tm.TRUE,
                                    pending_g=reentry)))
        failed: dict[Calldata, CannotFinish] = {}
        while ex.dfs_stack:
            cur: BasicBlock | None = ex.dfs_stack.pop()
            if cur.g in failed:
                continue
            try:
                while cur is not None and cur.end_state is EndState.OPEN:
                    cur = self._step(cur, ex)
            except CannotFinish as exc:
                if cur.g is not None and not isinstance(exc, PathExplosion):
                    failed[cur.g] = exc
                    continue
                if not reentry:
                    raise
                for g in reentry:
                    failed.setdefault(g, exc)
                break
        completed = [b for b in ex.sealed
                     if b.end_state in COMPLETED and not b.call_stack]
        return RunResult(completed, ex.sealed, ex.ecfg, ex.created, failed)

    def _transaction(self, world: LocalWorldState, caller: Term,
                     callvalue: Term, calldata: Calldata) -> MachineState:
        """The victim's top-level frame of a transaction from ``caller``,
        with ``callvalue`` transferred to the victim."""
        victim = world.accounts[VICTIM]
        self._transfer(world.external_account(caller), victim, callvalue)
        return MachineState(code=victim.code, account=VICTIM, caller=caller,
                            callvalue=callvalue, calldata=calldata)

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _transfer(src: Account, dst: Account, value: Term) -> None:
        if value.is_const and value.value == 0:
            return
        src.debits.append(value)
        dst.credits.append(value)

    @staticmethod
    def _concretize(block: BasicBlock, ex: Explorer, terms: list[Term],
                    what: str) -> list[int]:
        """Pin each word in turn to its one value, recorded on the path."""
        return [ex.concretize(block, term, what) for term in terms]

    @staticmethod
    def _memo_word(name: str, *parts: Term) -> Term:
        """Deterministic opaque result for ops outside the solver fragment."""
        tag = "_".join(p.digest() for p in parts)
        return tm.var(f"{name}_{tag}")

    # -- entering and leaving a frame ----------------------------------------

    def _enter(self, block: BasicBlock, ex: Explorer, next_pc: int,
               callee: MachineState, *, out: tuple[int, int] = (0, 0),
               created: str | None = None,
               attacker: str | None = None) -> BasicBlock:
        """Suspend the caller, to resume at ``next_pc``, and run ``callee``
        in a new frame whose return data lands at ``out`` (offset, size).
        A CREATE frame deploys ``created``; a re-entry first hops through
        ``attacker``, which counts as a frame of its own, here and in every
        check below it."""
        saved = block.machine.clone()
        saved.pc = next_pc
        frames = sum(1 + (e.attacker is not None) for e in block.call_stack)
        if frames + 1 + (attacker is not None) >= self.config.call_depth_bound:
            raise BoundReached(f"depth bound reached at {where(block)}")
        if attacker is not None:
            block = ex.transition(block, EdgeKind.CALL_ENTER, hop=attacker)
        kind = EdgeKind.CALL_ENTER if created is None else EdgeKind.CREATE_ENTER
        nxt = ex.transition(block, kind, callee)
        nxt.call_stack.append(CallStackEntry(saved, *out, created, attacker))
        return nxt

    def _pick_g(self, block: BasicBlock, ex: Explorer, caller: Term,
                start: Callable[[BasicBlock, MachineState], BasicBlock]) -> None:
        """Fork ``block`` over the attacker's choice among its pending g's:
        each runs as a transaction from ``caller`` in the victim frame that
        ``start(block, frame)`` enters. The successors are pushed last
        first, so the walk takes the g's in the order given. Each g's ends
        come in the order of a walk with that g alone, since the g's do not
        touch each other's paths."""
        choices, block.pending_g = block.pending_g, ()
        frame = self._transaction(block.world, caller, tm.var("g_callvalue"),
                                  choices[0])
        starts = []
        for g in choices:
            callee = frame.clone()
            callee.calldata = g
            nxt = start(block, callee)
            nxt.g = g
            starts.append(nxt)
        for nxt in reversed(starts):
            ex.push(nxt)

    def _halt(self, block: BasicBlock, ex: Explorer, end: EndState,
              span: list[Term] | None = None) -> BasicBlock | None:
        """Halt the current frame; ``span`` is a RETURN's (offset, size),
        pinned only when a caller frame reads the data. A revert or an
        exceptional halt anywhere abandons the whole path; a STOP or RETURN
        in a callee resumes its caller with the result the entry calls for:
        the created address, or 1 for a call. A transaction whose f reached
        a call to unknown code and completes with g's to pick goes on with
        each of them as the next transaction, from the account f called; an
        f that reached none is sealed, no g runs after it."""
        if end not in COMPLETED or not block.call_stack:
            if (end in COMPLETED and block.pending_g
                    and block.ext_call_target is not None):
                self._pick_g(block, ex, block.ext_call_target,
                             lambda b, frame: ex.transition(
                                 b, EdgeKind.NEXT_TX, frame))
                return None
            ex.seal(block, end)
            return None
        data = () if span is None else block.machine.mbytes(
            *self._concretize(block, ex, span, "return range"))

        entry = block.call_stack.pop()
        result = tm.const(1)
        if entry.created is not None:
            runtime = self._require_concrete_bytes(block, data, "init return")
            acct = block.world.accounts[entry.created]
            acct.code = Bytecode(runtime)
            if runtime:
                ex.created.append(acct.code)
            result, data = acct.address, ()  # no return data (EIP-211)
        if entry.attacker is not None:
            block = ex.transition(block, EdgeKind.CALL_RETURN,
                                  hop=entry.attacker)
        kind = (EdgeKind.CALL_RETURN if entry.created is None
                else EdgeKind.CREATE_RETURN)
        cont = ex.transition(block, kind, entry.saved_machine.clone())
        machine = cont.machine
        machine.returndata = list(data)
        for i in range(min(entry.out_size, len(data))):
            machine.memory[entry.out_offset + i] = data[i]
        machine.stack.append(result)
        return cont

    @staticmethod
    def _require_concrete_bytes(block: BasicBlock, data: tuple[Term, ...],
                                what: str) -> bytes:
        if not all(b.is_const for b in data):
            raise CannotConcretize(f"symbolic {what} at {where(block)}")
        return bytes(b.value & 0xFF for b in data)

    # -- call and create ------------------------------------------------------

    def _do_call(self, block: BasicBlock, ex: Explorer,
                 next_pc: int) -> BasicBlock | None:
        m = block.machine
        _gas = m.stack.pop()
        to = m.stack.pop()
        value = m.stack.pop()
        in_off = m.stack.pop()
        in_size = m.stack.pop()
        out_off = m.stack.pop()
        out_size = m.stack.pop()

        world = block.world
        caller_acct = world.accounts[m.account]
        target = world.external_account(to)
        self._transfer(caller_acct, target, value)

        in_off_v, in_size_v, out_off_v, out_size_v = self._concretize(
            block, ex, [in_off, in_size, out_off, out_size], "call memory range")
        out = (out_off_v, out_size_v)
        m.grow(*out)  # whatever the callee returns

        if target.code is not None and target.code.data:
            return self._enter(block, ex, next_pc, MachineState(
                code=target.code, account=target.label,
                caller=caller_acct.address, callvalue=value,
                calldata=TermCalldata(m.mbytes(in_off_v, in_size_v))), out=out)
        m.grow(in_off_v, in_size_v)
        fork = False
        if target.code is None:
            if block.ext_call_target is None:
                block.ext_call_target = to  # g's caller at NEXT_TX
            # with g's to pick and no re-entry yet, the attacker dummy
            # returns at once on one side of a fork and calls back into the
            # victim with a g of its choice on the others
            fork = bool(block.pending_g) and not block.reentered
        # empty deployed code, or unknown code that returns at once:
        # succeeds without running anything
        resumed = m.clone() if fork else m
        resumed.stack.append(tm.const(1))
        resumed.returndata = []
        resumed.pc = next_pc
        if not fork:
            return block
        ex.push(ex.fork(block, resumed, EdgeKind.FALLTHROUGH))
        block.reentered = True
        self._pick_g(block, ex, target.address, lambda b, frame: self._enter(
            b, ex, next_pc, frame, out=out, attacker=target.label))
        return None

    def _do_create(self, block: BasicBlock, ex: Explorer,
                   next_pc: int) -> BasicBlock:
        m = block.machine
        value = m.stack.pop()
        offset = m.stack.pop()
        length = m.stack.pop()
        span = self._concretize(block, ex, [offset, length], "create range")
        init = self._require_concrete_bytes(block, m.mbytes(*span), "init code")

        world = block.world
        creator = world.accounts[m.account]
        label = world.fresh_account_label(m.account)
        address = tm.const(int.from_bytes(keccak256(label.encode())[12:], "big"))
        acct = world.add_account(label, address, code=None)
        self._transfer(creator, acct, value)
        return self._enter(block, ex, next_pc, MachineState(
            code=Bytecode(init), account=label, caller=creator.address,
            callvalue=value, calldata=TermCalldata(())), created=label)

    # -- single instruction ---------------------------------------------------

    def _step(self, block: BasicBlock, ex: Explorer) -> BasicBlock | None:
        m = block.machine
        table, jumpdests = m.code.decoded
        ins = table.get(m.pc)
        if ins is None:
            # fell off the end of the code: implicit stop
            return self._halt(block, ex, EndState.STOP)
        name = ins.name
        entry = OPCODES.get(ins.opcode)
        if entry is None or name == "INVALID" or len(m.stack) < entry[1]:
            # invalid opcode or stack underflow: an exceptional halt
            return self._halt(block, ex, EndState.INVALID)
        next_pc = ins.offset + ins.size
        stack = m.stack
        world = block.world

        if ins.is_push:
            stack.append(tm.const(ins.push_value))
        elif name == "PUSH0":
            stack.append(tm.const(0))
        elif name.startswith("DUP"):
            stack.append(stack[-int(name[3:])])
        elif name.startswith("SWAP"):
            n = int(name[4:])
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
        elif name == "POP":
            stack.pop()
        elif name in _BINOPS:
            a, b = stack.pop(), stack.pop()
            stack.append(_BINOPS[name](a, b))
        elif name in _FOLDS:
            fold = _FOLDS[name]
            args = [stack.pop() for _ in range(entry[1])]
            if fold is not None and all(a.is_const for a in args):
                stack.append(tm.const(fold(*(a.value for a in args))))
            else:
                stack.append(self._memo_word(name.lower(), *args))
        elif name == "BYTE":
            i, x = stack.pop(), stack.pop()
            if i.is_const:
                if i.value > 31:
                    stack.append(tm.const(0))
                else:
                    stack.append(tm.bv_and(
                        tm.shr(x, tm.const(8 * (31 - i.value))), tm.const(0xFF)))
            else:
                stack.append(self._memo_word("byte", i, x))
        elif name == "NOT":
            stack.append(tm.bv_not(stack.pop()))
        elif name == "ISZERO":
            stack.append(tm.bool_to_word(tm.eq(stack.pop(), tm.const(0))))
        elif name == "SHA3":
            span = self._concretize(block, ex, [stack.pop(), stack.pop()],
                                    "sha3 range")
            stack.append(world.sha3(m.mbytes(*span)))
        elif name == "ADDRESS":
            stack.append(world.accounts[m.account].address)
        elif name == "BALANCE":
            stack.append(world.external_account(stack.pop()).balance_expr())
        elif name == "SELFBALANCE":
            stack.append(world.accounts[m.account].balance_expr())
        elif name == "CALLER":
            stack.append(m.caller)
        elif name == "CALLVALUE":
            stack.append(m.callvalue)
        elif name == "CALLDATALOAD":
            off = self._concretize(block, ex, [stack.pop()], "calldata offset")
            stack.append(m.calldata.load_word(*off))
        elif name == "CALLDATASIZE":
            stack.append(m.calldata.size())
        elif name in _COPY_SOURCES:
            dst, src, size = self._concretize(
                block, ex, [stack.pop() for _ in range(3)], f"{name.lower()} arg")
            if name == "RETURNDATACOPY" and src + size > len(m.returndata):
                # reading past the return data halts (EIP-211)
                return self._halt(block, ex, EndState.INVALID)
            source = _COPY_SOURCES[name]
            for i in range(size):
                m.memory[dst + i] = source(m, src + i)
        elif name == "CODESIZE":
            stack.append(tm.const(len(m.code.data)))
        elif name == "EXTCODESIZE":
            addr = stack.pop()
            acct = world.account_at(addr)
            if acct is not None and acct.code is not None:
                stack.append(tm.const(len(acct.code.data)))
            else:
                stack.append(self._memo_word("extcodesize", addr))
        elif name == "RETURNDATASIZE":
            stack.append(tm.const(len(m.returndata)))
        elif name in ("ORIGIN", "COINBASE", "TIMESTAMP", "NUMBER",
                      "DIFFICULTY", "GASLIMIT", "GASPRICE", "GAS",
                      "CHAINID", "BASEFEE"):
            stack.append(tm.var(name.lower()))
        elif name == "PC":
            stack.append(tm.const(ins.offset))
        elif name == "MSIZE":
            top = max(m.memory, default=-1) + 1
            stack.append(tm.const((top + 31) // 32 * 32))
        elif name == "MLOAD":
            off = self._concretize(block, ex, [stack.pop()], "mload offset")
            stack.append(m.mload_word(*off))
        elif name == "MSTORE":
            off = self._concretize(block, ex, [stack.pop()], "mstore offset")
            m.mstore_word(*off, stack.pop())
        elif name == "MSTORE8":
            off = self._concretize(block, ex, [stack.pop()], "mstore8 offset")
            m.memory[off[0]] = tm.bv_and(stack.pop(), tm.const(0xFF))
        elif name == "SLOAD":
            stack.append(world.accounts[m.account].read_storage(stack.pop()))
        elif name == "SSTORE":
            slot, value = stack.pop(), stack.pop()
            world.accounts[m.account].write_storage(slot, value)
        elif name == "JUMPDEST":
            pass
        elif name in ("JUMP", "JUMPI"):
            count = m.visit_counts.get(ins.offset, 0) + 1
            m.visit_counts[ins.offset] = count
            if count > self.config.loop_bound:
                raise BoundReached(f"loop bound reached at {where(block)}")
            if name == "JUMP":
                return ex.jump(block, stack.pop(), jumpdests)
            target, cond_word = stack.pop(), stack.pop()
            cond = tm.truthy(cond_word)
            return ex.branch_on_jumpi(block, target, cond, jumpdests, next_pc)
        elif name.startswith("LOG"):
            # nothing reads the data, so a symbolic range is not pinned
            off, size = stack[-1], stack[-2]
            if off.is_const and size.is_const:
                m.grow(off.value, size.value)
            for _ in range(entry[1]):
                stack.pop()
        elif name == "STOP":
            return self._halt(block, ex, EndState.STOP)
        elif name in ("RETURN", "REVERT"):
            end = EndState.RETURN if name == "RETURN" else EndState.REVERT
            return self._halt(block, ex, end, [stack.pop(), stack.pop()])
        elif name == "CALL":
            return self._do_call(block, ex, next_pc)
        elif name == "CREATE":
            return self._do_create(block, ex, next_pc)
        else:
            # DELEGATECALL, CALLCODE, STATICCALL, CREATE2, SELFDESTRUCT,
            # EXTCODECOPY, BLOBHASH, BLOBBASEFEE, TLOAD, TSTORE, MCOPY:
            # outside the modeled fragment
            raise UnsupportedOpcode(
                f"unsupported opcode {name} at {where(block)}")

        if len(stack) > MAX_STACK:  # stack overflow
            return self._halt(block, ex, EndState.INVALID)
        m.pc = next_pc
        return block


def _sdiv(a: int, b: int) -> int:
    x, y = _signed(a), _signed(b)
    if y == 0:
        return 0
    return abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)


def _smod(a: int, b: int) -> int:
    x, y = _signed(a), _signed(b)
    if y == 0:
        return 0
    return abs(x) % abs(y) * (1 if x >= 0 else -1)


def _signextend(b: int, x: int) -> int:
    if b >= 31:
        return x
    bits = 8 * (b + 1)
    v = x & ((1 << bits) - 1)
    return v | (WORD ^ ((1 << bits) - 1)) if v >> (bits - 1) else v


# Ops outside the solver fragment: folded on constant operands, otherwise an
# opaque word named after the op (None: never folded).
_FOLDS = {
    "SDIV": _sdiv,
    "SMOD": _smod,
    "EXP": lambda a, b: pow(a, b, 1 << 256),
    "ADDMOD": lambda a, b, n: (a + b) % n if n else 0,
    "MULMOD": lambda a, b, n: a * b % n if n else 0,
    "SIGNEXTEND": _signextend,
    "SAR": lambda shift, x: _signed(x) >> min(shift, 256),
    "EXTCODEHASH": None,
    "BLOCKHASH": None,
}

# Byte sources of the copy opcodes, read at one index; past the end of the
# code they read zero, and a RETURNDATACOPY past the end of the return data
# halts before it reads.
_COPY_SOURCES = {
    "CALLDATACOPY": lambda m, j: m.calldata.byte_at(j),
    "CODECOPY": lambda m, j: tm.const(
        m.code.data[j] if j < len(m.code.data) else 0),
    "RETURNDATACOPY": lambda m, j: m.returndata[j],
}

_BINOPS = {
    "ADD": tm.bv_add,
    "MUL": tm.bv_mul,
    "SUB": tm.bv_sub,
    "DIV": tm.udiv,
    "MOD": tm.urem,
    "AND": tm.bv_and,
    "OR": tm.bv_or,
    "XOR": tm.bv_xor,
    "LT": lambda a, b: tm.bool_to_word(tm.ult(a, b)),
    "GT": lambda a, b: tm.bool_to_word(tm.ugt(a, b)),
    "SLT": lambda a, b: tm.bool_to_word(tm.slt(a, b)),
    "SGT": lambda a, b: tm.bool_to_word(tm.sgt(a, b)),
    "EQ": lambda a, b: tm.bool_to_word(tm.eq(a, b)),
    # EVM shift operands: top of stack is the shift amount
    "SHL": lambda shift, x: tm.shl(x, shift),
    "SHR": lambda shift, x: tm.shr(x, shift),
}


# -- function discovery -------------------------------------------------------

class UndecidedDispatch(Exception):
    """The solver could not decide which selectors reach a dispatch arm."""


def extract_function_ids(code: Bytecode, solver: Solver | None = None,
                         config: AnalyzerConfig | None = None) -> list[FunctionEntry]:
    """Recover dispatchable selectors by solving each completed path for the
    symbolic function id; paths open to several ids collapse into a fallback
    entry. Raises :class:`UndecidedDispatch` when either query is Unknown,
    since a skipped or collapsed arm would hide its pairs; a path the model
    cannot finish raises from the run itself (see the module docstring)."""
    vm = SymVM(solver, config)
    calldata = AbiCalldata(None, "f")
    result = vm.run_entry(code, calldata)

    fid_low = calldata.selector_word()
    by_selector: dict[int, bool] = {}
    fallback: bool | None = None
    for block in result.completed:
        pc = block.path_condition
        verdict = vm.solver.check_sat([pc])
        has_call = block.ext_call_target is not None
        if verdict.status is SolverStatus.UNKNOWN:
            raise UndecidedDispatch(
                f"undecided dispatch: cannot tell whether path {block.id} "
                "is reachable")
        if verdict.status is SolverStatus.UNSAT:
            continue  # unreachable dispatch arm
        value = tm.evaluate(fid_low, verdict.model)
        unique = vm.solver.check_sat(
            [pc, tm.bnot(tm.eq(fid_low, tm.const(value)))]).status
        if unique is SolverStatus.UNKNOWN:
            raise UndecidedDispatch(
                "undecided dispatch: cannot tell whether a model's selector "
                f"is the only selector that reaches path {block.id}")
        if unique is SolverStatus.UNSAT:
            by_selector[value] = by_selector.get(value, False) or has_call
        else:
            fallback = (fallback or False) or has_call

    out = [FunctionEntry(FunctionId(v.to_bytes(4, "big")), hc)
           for v, hc in sorted(by_selector.items())]
    if fallback is not None:
        out.append(FunctionEntry(None, fallback))
    return out
