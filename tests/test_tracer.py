"""The benchmark's tracer still patches the analyzer's entry points.

``bench/tracer.py`` wraps functions by name from outside the program; a
rename there would only show as a failing ``--trace 1`` run.
"""

from pathlib import Path

from reentscan import verifier
from reentscan.evm_core import Bytecode
from reentscan.smt import Solver
from reentscan.verifier import Status, analyze

ROOT = Path(__file__).resolve().parent.parent


def _fund() -> Bytecode:
    return Bytecode(bytes.fromhex((ROOT / "fixtures" / "fund.hex").read_text().strip()))


def test_tracer_patches_resolve_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    code = _fund()
    tracer = Tracer()
    with tracer:  # every name it patches must resolve
        patches = list(tracer._patches)
        assert patches
        for target, attr, original in patches:
            assert getattr(target, attr).__wrapped__ is original
        report = analyze([("fund", code, "fixture")])
    for target, attr, original in patches:
        assert getattr(target, attr) is original
    assert report.status is Status.VULNERABLE
    summary = tracer.summary()
    for name in ("sat.solve.calls", "bitblast.calls", "bitblast.cnf_vars",
                 "bitblast.cnf_clauses", "solver.queries"):
        assert summary[name] > 0, name
    # one walk for function discovery and one for withdraw, the one f
    assert summary["symvm.run_entry.calls"] == 2


def test_tracer_counts_every_solver_query(monkeypatch):
    # the tracer counts at Solver.check_sat, the one way a query is asked
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    solvers = []

    def recording(*args, **kwargs):
        solvers.append(Solver(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(verifier, "Solver", recording)
    tracer = Tracer()
    with tracer:
        analyze([("fund", _fund(), "fixture")])
    (solver,) = solvers
    assert tracer.summary()["solver.queries"] == sum(solver.answers.values()) > 0
