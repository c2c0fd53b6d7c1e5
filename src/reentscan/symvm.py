"""Symbolic EVM interpreter over local world states.

One :class:`SymVM` explores every feasible path of a transaction, forking at
conditional jumps and crossing contract boundaries at CREATE and CALL. Given
re-entry calldata, the first external call to unknown code on a path is
answered by an attacker dummy that immediately calls back into the victim
with that calldata before reporting success; later calls, and every call
without re-entry calldata, just succeed. The dummy is behavioral, it has no
bytecode of its own. The VM adds no solvency terms; the verifier appends
them to final conditions.

Symbol names are fixed by role (``caller``, ``f_callvalue``, ``g_arg0``,
storage reads keyed by account and slot digest) so that path conditions from
independently explored scenarios over the same function pair share one symbol
environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg_manager import BoundReached, Explorer, UnsupportedOpcode
from .evm_core import (
    Bytecode,
    FunctionId,
    Instruction,
    OPCODES,
    disassemble,
    valid_jump_targets,
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
    CallKind,
    CallStackEntry,
    COMPLETED,
    ECFG,
    EdgeKind,
    EndState,
    LocalWorldState,
    MachineState,
    MAX_STACK,
    PathCondition,
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
    completed: list[BasicBlock]   # top-level Stop/Return blocks
    sealed: list[BasicBlock]      # every halted block, Revert and Invalid included
    ecfg: ECFG
    created: list[Bytecode]       # non-empty runtime code returned by each CREATE

    def check_bounds(self) -> "RunResult":
        """Raise :class:`BoundReached` if a path was cut at a bound."""
        for b in self.sealed:
            if b.end_state in (EndState.LOOP_BOUND, EndState.DEPTH_BOUND):
                bound = b.end_state.value.replace("_", " ")
                raise BoundReached(
                    f"{bound} reached at {b.machine.account}@{b.machine.pc}")
        return self


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
        self._code_cache: dict[bytes, tuple[dict[int, Instruction], set[int]]] = {}

    # -- entry points ---------------------------------------------------------

    def run_entry(self, code: Bytecode | None, calldata: Calldata, *,
                  world: LocalWorldState | None = None,
                  caller: Term | None = None,
                  callvalue: Term | None = None,
                  path_condition: PathCondition | None = None,
                  reentry: Calldata | None = None) -> RunResult:
        """Explore one transaction against the victim contract.

        With ``reentry``, the attacker dummy re-enters the victim with that
        calldata at the first external call to unknown code, once per path.
        """
        if world is None:
            world = LocalWorldState()
        if VICTIM not in world.accounts:
            if code is None:
                raise ValueError("fresh world needs the victim bytecode")
            world.add_account(VICTIM, tm.var(f"address_{VICTIM}"), code=code)
        victim = world.accounts[VICTIM]
        caller = caller if caller is not None else tm.var("caller")
        callvalue = callvalue if callvalue is not None else tm.var("f_callvalue")
        sender = world.external_account(caller)
        self._transfer(sender, victim, callvalue)
        machine = MachineState(
            code=victim.code,
            account=VICTIM,
            caller=caller,
            callvalue=callvalue,
            calldata=calldata,
        )
        root = BasicBlock(
            id=0,
            machine=machine,
            world=world,
            path_condition=path_condition or PathCondition(),
        )
        return self.explore(root, reentry)

    def explore(self, root: BasicBlock, reentry: Calldata | None) -> RunResult:
        ex = Explorer(self.solver, self.config.path_cap)
        self._created: list[Bytecode] = []
        ex.push(ex.adopt(root))
        while ex.dfs_stack:
            block = ex.dfs_stack.pop()
            cur: BasicBlock | None = block
            while cur is not None and cur.end_state is EndState.OPEN:
                cur = self._step(cur, ex, reentry)
        completed = [b for b in ex.sealed
                     if b.end_state in COMPLETED and not b.call_stack]
        return RunResult(completed, ex.sealed, ex.ecfg, self._created)

    # -- helpers --------------------------------------------------------------

    def _decoded(self, code: Bytecode) -> tuple[dict[int, Instruction], set[int]]:
        cached = self._code_cache.get(code.data)
        if cached is None:
            table = {ins.offset: ins for ins in disassemble(code)}
            cached = (table, valid_jump_targets(code))
            self._code_cache[code.data] = cached
        return cached

    @staticmethod
    def _transfer(src: Account | None, dst: Account | None, value: Term) -> None:
        if value.is_const and value.value == 0:
            return
        if src is not None:
            src.debits.append(value)
        if dst is not None:
            dst.credits.append(value)

    @staticmethod
    def _concretize(block: BasicBlock, ex: Explorer, terms: list[Term],
                    what: str) -> list[int] | None:
        """Pin each word in turn to a model value, recorded on the path; the
        first that cannot be pinned seals the path and stops the rest."""
        values = []
        for term in terms:
            value = ex.concretize(block, term)
            if value is None:
                ex.seal(block, EndState.INVALID, f"cannot concretize {what}")
                return None
            values.append(value)
        return values

    @staticmethod
    def _memo_word(name: str, *parts: Term) -> Term:
        """Deterministic opaque result for ops outside the solver fragment."""
        tag = "_".join(p.digest() for p in parts)
        return tm.var(f"{name}_{tag}")

    # -- halting --------------------------------------------------------------

    def _halt(self, block: BasicBlock, ex: Explorer, end: EndState,
              data: tuple[Term, ...] = ()) -> BasicBlock | None:
        if end is EndState.REVERT:
            # a revert anywhere abandons the whole path
            ex.seal(block, EndState.REVERT)
            return None
        if not block.call_stack:
            ex.seal(block, end)
            return None

        entry = block.call_stack.pop()
        if entry.kind is CallKind.CREATE:
            runtime = self._require_concrete_bytes(block, ex, data, "init return")
            if runtime is None:
                return None
            acct = block.world.accounts[entry.created_label]
            acct.code = Bytecode(runtime)
            if runtime:
                self._created.append(acct.code)
            cont = ex.transition(block, EdgeKind.CREATE_RETURN,
                                 contract=entry.saved_machine.account)
            cont.machine = entry.saved_machine.clone()
            cont.machine.stack.append(acct.address)
            return cont

        if entry.kind is CallKind.DUMMY_REENTRY:
            # hop back through the attacker node before resuming f
            attacker = ex.ecfg.nodes[entry.dummy_node].contract
            block = ex.transition(block, EdgeKind.CALL_RETURN, contract=attacker)
        cont = ex.transition(block, EdgeKind.CALL_RETURN,
                             contract=entry.saved_machine.account)
        machine = cont.machine = entry.saved_machine.clone()
        machine.returndata = list(data)
        for i in range(min(entry.out_size, len(data))):
            machine.memory[entry.out_offset + i] = data[i]
        machine.stack.append(tm.const(1))
        return cont

    def _require_concrete_bytes(self, block: BasicBlock, ex: Explorer,
                                data: tuple[Term, ...],
                                what: str) -> bytes | None:
        if not all(b.is_const for b in data):
            ex.seal(block, EndState.INVALID, f"symbolic {what}")
            return None
        return bytes(b.value & 0xFF for b in data)

    # -- call and create ------------------------------------------------------

    def _do_call(self, block: BasicBlock, ex: Explorer,
                 reentry: Calldata | None, next_pc: int) -> BasicBlock | None:
        m = block.machine
        _gas = m.stack.pop()
        to = m.stack.pop()
        value = m.stack.pop()
        in_off = m.stack.pop()
        in_size = m.stack.pop()
        out_off = m.stack.pop()
        out_size = m.stack.pop()
        block.has_call = True

        world = block.world
        caller_acct = world.accounts[m.account]
        target = world.external_account(to)
        self._transfer(caller_acct, target, value)

        sizes = self._concretize(block, ex, [in_off, in_size, out_off, out_size],
                                 "call memory range")
        if sizes is None:
            return None
        in_off_v, in_size_v, out_off_v, out_size_v = sizes

        if target.code is not None:
            if not target.code.data:
                # deployed empty contract: succeeds without running anything
                m.stack.append(tm.const(1))
                m.returndata = []
                m.pc = next_pc
                return block
            if len(block.call_stack) + 1 >= self.config.call_depth_bound:
                ex.seal(block, EndState.DEPTH_BOUND)
                return None
            saved = m.clone()
            saved.pc = next_pc
            entry = CallStackEntry(
                kind=CallKind.CALL, saved_machine=saved,
                out_offset=out_off_v, out_size=out_size_v)
            nxt = ex.transition(block, EdgeKind.CALL_ENTER, contract=target.label)
            nxt.call_stack.append(entry)
            nxt.machine = MachineState(
                code=target.code, account=target.label,
                caller=caller_acct.address, callvalue=value,
                calldata=TermCalldata(m.mbytes(in_off_v, in_size_v)))
            return nxt

        # unknown code behind the target address
        if block.ext_call_target is None:
            block.ext_call_target = to
        if reentry is not None and not block.reentered:
            return self._reenter(block, ex, reentry, target,
                                 next_pc, out_off_v, out_size_v)
        m.stack.append(tm.const(1))
        m.returndata = []
        m.pc = next_pc
        return block

    def _reenter(self, block: BasicBlock, ex: Explorer, reentry: Calldata,
                 attacker: Account, next_pc: int,
                 out_off: int, out_size: int) -> BasicBlock | None:
        if len(block.call_stack) + 2 >= self.config.call_depth_bound:
            ex.seal(block, EndState.DEPTH_BOUND)
            return None
        block.reentered = True
        victim = block.world.accounts[VICTIM]
        g_value = tm.var("g_callvalue")
        self._transfer(attacker, victim, g_value)

        saved = block.machine.clone()
        saved.pc = next_pc
        dummy = ex.transition(block, EdgeKind.CALL_ENTER, contract=attacker.label)
        entry_block = ex.transition(dummy, EdgeKind.CALL_ENTER,
                                    contract=victim.label)
        entry_block.call_stack.append(CallStackEntry(
            kind=CallKind.DUMMY_REENTRY, saved_machine=saved,
            out_offset=out_off, out_size=out_size, dummy_node=dummy.id))
        entry_block.machine = MachineState(
            code=victim.code, account=victim.label,
            caller=attacker.address, callvalue=g_value,
            calldata=reentry)
        return entry_block

    def _do_create(self, block: BasicBlock, ex: Explorer,
                   next_pc: int) -> BasicBlock | None:
        m = block.machine
        value = m.stack.pop()
        offset = m.stack.pop()
        length = m.stack.pop()
        span = self._concretize(block, ex, [offset, length], "create range")
        if span is None:
            return None
        init = self._require_concrete_bytes(block, ex, m.mbytes(*span),
                                            "init code")
        if init is None:
            return None
        if len(block.call_stack) + 1 >= self.config.call_depth_bound:
            ex.seal(block, EndState.DEPTH_BOUND)
            return None

        world = block.world
        creator = world.accounts[m.account]
        label = world.fresh_account_label(m.account)
        address = tm.const(int.from_bytes(keccak256(label.encode())[12:], "big"))
        acct = world.add_account(label, address, code=None)
        self._transfer(creator, acct, value)

        saved = m.clone()
        saved.pc = next_pc
        entry = CallStackEntry(kind=CallKind.CREATE, saved_machine=saved,
                               created_label=label)
        nxt = ex.transition(block, EdgeKind.CREATE_ENTER, contract=label)
        nxt.call_stack.append(entry)
        nxt.machine = MachineState(
            code=Bytecode(init),
            account=label, caller=creator.address, callvalue=value,
            calldata=TermCalldata(()))
        return nxt

    # -- single instruction ---------------------------------------------------

    def _step(self, block: BasicBlock, ex: Explorer,
              reentry: Calldata | None) -> BasicBlock | None:
        m = block.machine
        table, jumpdests = self._decoded(m.code)
        ins = table.get(m.pc)
        if ins is None:
            # fell off the end of the code: implicit stop
            return self._halt(block, ex, EndState.STOP)
        name = ins.name
        entry = OPCODES.get(ins.opcode)
        if entry is None or name == "INVALID":
            ex.seal(block, EndState.INVALID, f"invalid opcode 0x{ins.opcode:02x}")
            return None
        if len(m.stack) < entry[1]:
            ex.seal(block, EndState.INVALID, "stack underflow")
            return None
        next_pc = ins.offset + ins.size
        stack = m.stack
        world = block.world

        if ins.is_push:
            stack.append(tm.const(ins.push_value))
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
            if span is None:
                return None
            stack.append(world.sha3(m.mbytes(*span)))
        elif name == "ADDRESS":
            stack.append(world.accounts[m.account].address)
        elif name == "BALANCE":
            stack.append(world.external_account(stack.pop()).balance_expr())
        elif name == "CALLER":
            stack.append(m.caller)
        elif name == "CALLVALUE":
            stack.append(m.callvalue)
        elif name == "CALLDATALOAD":
            off = self._concretize(block, ex, [stack.pop()], "calldata offset")
            if off is None:
                return None
            stack.append(m.calldata.load_word(*off))
        elif name == "CALLDATASIZE":
            stack.append(m.calldata.size())
        elif name == "CALLDATACOPY":
            args = self._concretize(block, ex, [stack.pop() for _ in range(3)],
                                    "calldatacopy arg")
            if args is None:
                return None
            dst, src, size = args
            for i in range(size):
                m.memory[dst + i] = m.calldata.byte_at(src + i)
        elif name == "CODESIZE":
            stack.append(tm.const(len(m.code.data)))
        elif name == "CODECOPY":
            args = self._concretize(block, ex, [stack.pop() for _ in range(3)],
                                    "codecopy arg")
            if args is None:
                return None
            dst, src, size = args
            data = m.code.data
            for i in range(size):
                byte = data[src + i] if src + i < len(data) else 0
                m.memory[dst + i] = tm.const(byte)
        elif name == "EXTCODESIZE":
            addr = stack.pop()
            acct = world.account_at(addr)
            if acct is not None and acct.code is not None:
                stack.append(tm.const(len(acct.code.data)))
            else:
                stack.append(self._memo_word("extcodesize", addr))
        elif name == "RETURNDATASIZE":
            stack.append(tm.const(len(m.returndata)))
        elif name == "RETURNDATACOPY":
            args = self._concretize(block, ex, [stack.pop() for _ in range(3)],
                                    "returndatacopy arg")
            if args is None:
                return None
            dst, src, size = args
            for i in range(size):
                j = src + i
                m.memory[dst + i] = (m.returndata[j] if j < len(m.returndata)
                                     else tm.const(0))
        elif name in ("ORIGIN", "COINBASE", "TIMESTAMP", "NUMBER",
                      "DIFFICULTY", "GASLIMIT", "GASPRICE", "GAS"):
            stack.append(tm.var(name.lower()))
        elif name == "PC":
            stack.append(tm.const(ins.offset))
        elif name == "MSIZE":
            top = max(m.memory, default=-1) + 1
            stack.append(tm.const((top + 31) // 32 * 32))
        elif name == "MLOAD":
            off = self._concretize(block, ex, [stack.pop()], "mload offset")
            if off is None:
                return None
            stack.append(m.mload_word(*off))
        elif name == "MSTORE":
            off = self._concretize(block, ex, [stack.pop()], "mstore offset")
            if off is None:
                return None
            m.mstore_word(*off, stack.pop())
        elif name == "MSTORE8":
            off = self._concretize(block, ex, [stack.pop()], "mstore8 offset")
            if off is None:
                return None
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
                ex.seal(block, EndState.LOOP_BOUND)
                return None
            if name == "JUMP":
                return ex.jump(block, stack.pop(), jumpdests)
            target, cond_word = stack.pop(), stack.pop()
            cond = tm.truthy(cond_word)
            return ex.branch_on_jumpi(block, target, cond, jumpdests, next_pc)
        elif name.startswith("LOG"):
            for _ in range(entry[1]):
                stack.pop()
        elif name == "STOP":
            return self._halt(block, ex, EndState.STOP)
        elif name in ("RETURN", "REVERT"):
            span = self._concretize(block, ex, [stack.pop(), stack.pop()],
                                    "return range")
            if span is None:
                return None
            end = EndState.RETURN if name == "RETURN" else EndState.REVERT
            return self._halt(block, ex, end, m.mbytes(*span))
        elif name == "CALL":
            return self._do_call(block, ex, reentry, next_pc)
        elif name == "CREATE":
            return self._do_create(block, ex, next_pc)
        else:
            # DELEGATECALL, CALLCODE, STATICCALL, CREATE2, SELFDESTRUCT,
            # EXTCODECOPY: outside the modeled fragment
            raise UnsupportedOpcode(
                f"unsupported opcode {name} at {m.account}@{ins.offset}")

        if len(stack) > MAX_STACK:
            ex.seal(block, EndState.INVALID, "stack overflow")
            return None
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
    and :class:`BoundReached` when a path was cut at a bound, since a
    skipped or collapsed arm would hide its pairs."""
    vm = SymVM(solver, config)
    result = vm.run_entry(code, AbiCalldata(None, "f")).check_bounds()

    fid_low = tm.bv_and(tm.var("function_id"), tm.const(0xFFFFFFFF))
    by_selector: dict[int, bool] = {}
    fallback: bool | None = None
    for block in result.completed:
        terms = block.path_condition.terms
        verdict = vm.solver.check_sat(terms)
        has_call = block.has_call
        if verdict.status is SolverStatus.UNKNOWN:
            raise UndecidedDispatch(
                f"undecided dispatch: cannot tell whether path {block.id} "
                "is reachable")
        if verdict.status is SolverStatus.UNSAT:
            continue  # unreachable dispatch arm
        value = verdict.model.get("function_id", 0) & 0xFFFFFFFF
        unique = vm.solver.status(
            terms + [tm.bnot(tm.eq(fid_low, tm.const(value)))])
        if unique is SolverStatus.UNKNOWN:
            raise UndecidedDispatch(
                f"undecided dispatch: cannot tell whether only selector "
                f"{value:#010x} reaches path {block.id}")
        if unique is SolverStatus.UNSAT:
            by_selector[value] = by_selector.get(value, False) or has_call
        else:
            fallback = (fallback or False) or has_call

    out = [FunctionEntry(FunctionId(v.to_bytes(4, "big")), hc)
           for v, hc in sorted(by_selector.items())]
    if fallback is not None:
        out.append(FunctionEntry(None, fallback))
    return out
