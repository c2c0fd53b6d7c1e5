"""The benchmark's tracer still patches the analyzer's entry points.

``bench/tracer.py`` wraps functions by name from outside the program; a
rename there would only show as a failing ``--trace 1`` run.
"""

from pathlib import Path

from reentscan.evm_core import Bytecode
from reentscan.verifier import Status, analyze

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_patches_resolve_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    hex_code = (ROOT / "fixtures" / "fund.hex").read_text().strip()
    code = Bytecode(bytes.fromhex(hex_code))
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
