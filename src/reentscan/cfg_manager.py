"""Path bookkeeping: the depth-first worklist, block sealing, branching, DOT export.

The :class:`Explorer` owns one run: the extended CFG under construction, the
``dfs_stack`` of pending blocks, the sealed blocks and the code each CREATE
returned. Branches follow the fall-through side first and push the jump
side; single-feasible branches continue in place without forking a new node.
A block is sealed only where the EVM halts the path; where the model cannot
finish one, the run raises a :class:`CannotFinish` at that point.
"""

from __future__ import annotations

from .evm_core import Bytecode
from .smt import Solver, SolverStatus
from .smt import terms as tm
from .smt.terms import Term
from .symdomain import (
    HALTED,
    BasicBlock,
    ECFG,
    EdgeKind,
    EndState,
    MachineState,
    NodeInfo,
)


class DoubleSealError(Exception):
    """A block was sealed twice; exploration bookkeeping is corrupt."""


class CannotFinish(Exception):
    """The run stopped before its paths halted; dropping a path would let
    the verdict skip what the rest of it does. The text names the reason
    and, for a path, ``<account>@<pc>``."""


class PathExplosion(CannotFinish):
    """The number of explored paths exceeded the configured cap."""


class UnsupportedOpcode(CannotFinish):
    """A path reached an opcode outside the modeled fragment."""


class BoundReached(CannotFinish):
    """A path was cut at the loop or call-depth bound."""


class CannotConcretize(CannotFinish):
    """An operand the model needs as a number has no model value, or the
    solver cannot tell whether it has only one (``cannot concretize``); it
    has more than one feasible value (``symbolic``); or init code or the
    code a CREATE returns is symbolic."""


def where(block: BasicBlock) -> str:
    """``<account>@<pc>`` of the instruction ``block`` is at."""
    return f"{block.machine.account}@{block.machine.pc}"


class Explorer:
    def __init__(self, solver: Solver, path_cap: int = 10_000):
        self.solver = solver
        self.path_cap = path_cap
        self.ecfg = ECFG()
        self.dfs_stack: list[BasicBlock] = []
        self.sealed: list[BasicBlock] = []
        self.created: list[Bytecode] = []  # non-empty runtime code per CREATE
        self._next_id = 0

    # -- block lifecycle ------------------------------------------------------

    def _register(self, block: BasicBlock) -> None:
        self.ecfg.add_node(NodeInfo(
            block_id=block.id,
            contract=block.machine.account,
            start_pc=block.machine.pc,
        ))

    def adopt(self, block: BasicBlock) -> BasicBlock:
        """Take ownership of an externally built root block."""
        block.id = self._next_id
        self._next_id += 1
        self._register(block)
        return block

    def fork(self, block: BasicBlock, machine: MachineState | None = None,
             edge: EdgeKind | None = None) -> BasicBlock:
        """A successor of ``block`` that runs ``machine`` if given, linked
        to it by an ``edge`` of that kind if given."""
        out = block.copy_as(self._next_id, machine)
        self._next_id += 1
        self._register(out)
        if edge is not None:
            self.ecfg.add_edge(block.id, out.id, edge)
        return out

    def push(self, block: BasicBlock) -> None:
        self.dfs_stack.append(block)

    def _close(self, block: BasicBlock, end_state: EndState) -> None:
        block.end_state = end_state
        self.ecfg.nodes[block.id].end_state = end_state

    def seal(self, block: BasicBlock, end_state: EndState) -> None:
        if block.end_state is not EndState.OPEN:
            raise DoubleSealError(
                f"block {block.id} already sealed as {block.end_state}")
        if end_state not in HALTED:
            raise ValueError(f"{end_state} is not a halting end state")
        self._close(block, end_state)
        self.sealed.append(block)
        if len(self.sealed) > self.path_cap:
            raise PathExplosion(f"more than {self.path_cap} paths")

    def transition(self, block: BasicBlock, kind: EdgeKind,
                   machine: MachineState | None = None,
                   hop: str | None = None) -> BasicBlock:
        """End ``block`` at a contract boundary and continue in a successor
        that runs ``machine``. A hop through the code-less account ``hop``
        (the attacker dummy) runs nothing: it keeps ``block``'s machine,
        and its node reads ``<hop>@0``."""
        self._close(block, EndState.TRANSITED)
        out = self.fork(block, machine, kind)
        if hop is not None:
            info = self.ecfg.nodes[out.id]
            info.contract, info.start_pc = hop, 0
        return out

    # -- branching ------------------------------------------------------------

    def _feasible(self, pc: Term) -> bool:
        # an undecided branch is still explored; its condition rides along
        return self.solver.check_sat([pc]).status is not SolverStatus.UNSAT

    def concretize(self, block: BasicBlock, term: Term, what: str) -> int:
        """Pin a word to its one value under the path condition, recorded on
        the path. Raises :class:`CannotConcretize` when the path condition
        has no model or the solver cannot tell whether the word has another
        value (``cannot concretize``), or when it has one (``symbolic``):
        pinning one of several would drop the paths to the others."""
        if term.is_const:
            return term.value
        pc = block.path_condition
        verdict = self.solver.check_sat([pc])
        if not verdict.is_sat:
            raise CannotConcretize(f"cannot concretize {what} at {where(block)}")
        value = tm.evaluate(term, verdict.model)
        pinned = tm.eq(term, tm.const(value))
        other = self.solver.check_sat([pc, tm.bnot(pinned)]).status
        if other is SolverStatus.UNKNOWN:
            raise CannotConcretize(f"cannot concretize {what} at {where(block)}")
        if other is SolverStatus.SAT:
            raise CannotConcretize(f"symbolic {what} at {where(block)}")
        block.path_condition = tm.band((pc, pinned))
        return value

    def _goto(self, block: BasicBlock, target: Term, jumpdests: frozenset[int]) -> bool:
        """Move ``block`` to the jump target, or seal it if that is no
        JUMPDEST (an exceptional halt)."""
        value = self.concretize(block, target, "jump target")
        if value not in jumpdests:
            self.seal(block, EndState.INVALID)
            return False
        block.machine.pc = value
        return True

    def jump(self, block: BasicBlock, target: Term,
             jumpdests: frozenset[int]) -> BasicBlock | None:
        return block if self._goto(block, target, jumpdests) else None

    def branch_on_jumpi(self, block: BasicBlock, target: Term, cond: Term,
                        jumpdests: frozenset[int], fall_pc: int) -> BasicBlock | None:
        """Split (or continue) at a conditional jump; returns the block to keep
        executing, with any second successor pushed onto the worklist."""
        if cond.is_const:
            if cond.value:
                return self.jump(block, target, jumpdests)
            block.machine.pc = fall_pc
            return block

        fall_cond = tm.band((block.path_condition, tm.bnot(cond)))
        jump_cond = tm.band((block.path_condition, cond))
        fall_ok = self._feasible(fall_cond)
        jump_ok = self._feasible(jump_cond)

        if fall_ok and jump_ok:
            self._close(block, EndState.BRANCHED)
            fall = self.fork(block, edge=EdgeKind.FALLTHROUGH)
            fall.path_condition = fall_cond
            fall.machine.pc = fall_pc
            jump = self.fork(block, edge=EdgeKind.JUMP)
            jump.path_condition = jump_cond
            if self._goto(jump, target, jumpdests):
                self.push(jump)
            return fall
        if jump_ok:
            block.path_condition = jump_cond
            return self.jump(block, target, jumpdests)
        if fall_ok:
            block.path_condition = fall_cond
            block.machine.pc = fall_pc
            return block
        self.seal(block, EndState.INVALID)  # contradictory branch
        return None


# -- DOT export ---------------------------------------------------------------

_ENTER_KINDS = {EdgeKind.CREATE_ENTER, EdgeKind.CALL_ENTER}
_RETURN_KINDS = {EdgeKind.CREATE_RETURN, EdgeKind.CALL_RETURN}


def export_dot(ecfg: ECFG, title: str = "ecfg") -> str:
    """Render the extended CFG; call/create entry nodes red, return nodes green."""
    entered = {dst for _, dst, kind in ecfg.edges if kind in _ENTER_KINDS}
    returned = {dst for _, dst, kind in ecfg.edges if kind in _RETURN_KINDS}
    lines = [f"digraph {title} {{", "  node [shape=box fontname=monospace];"]
    for bid in sorted(ecfg.nodes):
        info = ecfg.nodes[bid]
        label = f"{info.contract}@{info.start_pc}\\n{info.end_state.value}"
        attrs = [f'label="{label}"']
        if bid in entered:
            attrs.append('style=filled fillcolor=salmon')
        elif bid in returned:
            attrs.append('style=filled fillcolor=palegreen')
        lines.append(f"  n{bid} [{' '.join(attrs)}];")
    for src, dst, kind in ecfg.edges:
        lines.append(f'  n{src} -> n{dst} [label="{kind.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
