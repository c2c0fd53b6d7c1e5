"""Branching, sealing, worklist behavior, and DOT export."""

import pytest

from asm import assemble, concrete
from reentscan.cfg_manager import (
    CannotConcretize,
    DoubleSealError,
    Explorer,
    PathExplosion,
    export_dot,
)
from reentscan.evm_core import Bytecode
from reentscan.smt import Solver, SolverStatus, SolverVerdict
from reentscan.smt import terms as tm
from reentscan.symdomain import EdgeKind, EndState
from reentscan.symvm import AbiCalldata, AnalyzerConfig, SymVM


def _run(source: str, calldata=b"", **vm_kwargs):
    vm = SymVM(**vm_kwargs)
    return vm.run_entry(Bytecode(assemble(source)), concrete(calldata))


def test_concrete_true_jumpi_single_path():
    res = _run("""
        PUSH1 1 PUSHL target JUMPI
        PUSH1 0 PUSH1 0 SSTORE STOP
        target: JUMPDEST PUSH1 7 PUSH1 0 SSTORE STOP
    """)
    assert len(res.completed) == 1
    (block,) = res.completed
    assert block.world.accounts["c0"].read_storage(tm.const(0)) == tm.const(7)
    # no fork happened: no branch edges in the graph
    assert not any(k in (EdgeKind.FALLTHROUGH, EdgeKind.JUMP)
                   for _, _, k in res.ecfg.edges)


def test_concrete_false_jumpi_single_path():
    res = _run("""
        PUSH1 0 PUSHL target JUMPI
        PUSH1 3 PUSH1 0 SSTORE STOP
        target: JUMPDEST STOP
    """)
    assert len(res.completed) == 1
    assert res.completed[0].world.accounts["c0"].read_storage(tm.const(0)) \
        == tm.const(3)


def test_symbolic_jumpi_forks_both_sides():
    res = _run("""
        CALLVALUE PUSHL target JUMPI
        PUSH1 1 PUSH1 0 SSTORE STOP
        target: JUMPDEST PUSH1 2 PUSH1 0 SSTORE STOP
    """, calldata=b"")
    assert len(res.completed) == 2
    kinds = {k for _, _, k in res.ecfg.edges}
    assert EdgeKind.FALLTHROUGH in kinds and EdgeKind.JUMP in kinds
    conditions = {tm.conjuncts(b.path_condition)[0] for b in res.completed}
    assert len(conditions) == 2  # one side negated, one not


def test_contradictory_branch_seals_invalid():
    # CALLVALUE both jumps and, within the same path, must not jump
    res = _run("""
        CALLVALUE ISZERO PUSHL a JUMPI      ; reaches here only if value != 0
        CALLVALUE ISZERO PUSHL b JUMPI      ; now always false: only fallthrough
        STOP
        a: JUMPDEST STOP
        b: JUMPDEST STOP
    """)
    # the 'b' arm is infeasible: 3 feasible end states would be 4 otherwise
    assert len(res.completed) == 2


def test_invalid_jump_target_seals_block():
    res = _run("PUSH1 3 JUMP STOP STOP")
    assert res.completed == []
    assert any(b.end_state is EndState.INVALID for b in res.sealed)


def test_undecided_jump_target_raises():
    # the symbolic*symbolic branch leaves the path Unknown to the solver, so
    # a symbolic jump target has no model value: the run stops there rather
    # than sealing the path as a bad jump
    vm = SymVM()
    with pytest.raises(CannotConcretize,
                       match=r"^cannot concretize jump target at c0@\d+$"):
        vm.run_entry(Bytecode(assemble("""
            PUSH1 4 CALLDATALOAD PUSH1 36 CALLDATALOAD MUL
            PUSHL next JUMPI next: JUMPDEST
            PUSH1 4 CALLDATALOAD JUMP
        """)), AbiCalldata(None, "f"))


class _UndecidedOtherValueSolver(Solver):
    """Answers a path condition SAT with the empty model, and whether a word
    has another value Unknown."""

    def check_sat(self, constraints):
        if len(list(constraints)) == 1:
            return SolverVerdict(SolverStatus.SAT, {})
        return SolverVerdict(SolverStatus.UNKNOWN, None)


def test_undecided_other_value_cannot_concretize():
    # the path condition has a model, but nothing showed the target a second
    # value: the note says it cannot be pinned, not that it is symbolic
    vm = SymVM(_UndecidedOtherValueSolver())
    with pytest.raises(CannotConcretize,
                       match=r"^cannot concretize jump target at c0@\d+$"):
        vm.run_entry(Bytecode(assemble("PUSH1 4 CALLDATALOAD JUMP")),
                     AbiCalldata(None, "f"))


def test_double_seal_raises():
    ex = Explorer(Solver())
    vm = SymVM()
    res = vm.run_entry(Bytecode(b"\x00"), concrete())
    block = res.completed[0]
    with pytest.raises(DoubleSealError):
        Explorer(Solver()).seal(block, EndState.STOP)


def test_path_cap_raises_path_explosion():
    # 4 independent symbolic branches: 16 paths, cap at 5
    source = "\n".join(
        f"PUSH1 {4 + i} CALLDATALOAD PUSHL l{i} JUMPI l{i}: JUMPDEST"
        for i in range(4)) + "\nSTOP"
    vm = SymVM(config=AnalyzerConfig(path_cap=5))
    with pytest.raises(PathExplosion):
        vm.run_entry(Bytecode(assemble(source)), AbiCalldata(None, "f"))


def test_export_dot_structure():
    res = _run("""
        CALLVALUE PUSHL target JUMPI
        STOP
        target: JUMPDEST STOP
    """)
    dot = export_dot(res.ecfg)
    assert dot.startswith("digraph")
    assert 'label="jump"' in dot and 'label="fallthrough"' in dot
    assert dot.rstrip().endswith("}")


def test_export_dot_colors_call_boundaries():
    res = _run("""
        PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 PUSH1 0xbb GAS CALL
        POP STOP
    """)
    # no re-entry calldata: unknown callee is summarized, no boundary nodes
    assert "salmon" not in export_dot(res.ecfg)

    vm = SymVM()
    ree = vm.run_entry(
        Bytecode(assemble("""
            PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 PUSH1 0xbb GAS CALL
            POP STOP
        """)),
        concrete(), reentry=(AbiCalldata(None, "g"),))
    dot = export_dot(ree.ecfg)
    assert "salmon" in dot and "palegreen" in dot


def test_frame_boundary_nodes_start_where_their_frame_runs():
    # CALL at pc 13 re-enters; the re-entered victim starts at pc 0, the
    # attacker hops read pc 0, and the caller resumes at the POP (pc 14)
    ree = SymVM().run_entry(
        Bytecode(assemble("""
            PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 1 PUSH1 0xbb GAS CALL
            POP STOP
        """)),
        concrete(), reentry=(AbiCalldata(None, "g"),))
    nodes = ree.ecfg.nodes
    entered = [nodes[dst] for _, dst, k in ree.ecfg.edges
               if k is EdgeKind.CALL_ENTER]
    returned = [nodes[dst] for _, dst, k in ree.ecfg.edges
                if k is EdgeKind.CALL_RETURN]
    hop = f"ext_{tm.const(0xbb).digest()}"
    assert [(n.contract, n.start_pc) for n in entered] == [(hop, 0), ("c0", 0)]
    assert [(n.contract, n.start_pc) for n in returned] == [(hop, 0), ("c0", 14)]
    dot = export_dot(ree.ecfg)
    assert f'n{returned[-1].block_id} [label="c0@14' in dot
    assert f'n{entered[-1].block_id} [label="c0@0' in dot
