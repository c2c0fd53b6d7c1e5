"""Re-entrancy verdicts by path-condition equivalence.

For a function pair (f, g) one walk of f with g pending (see
:meth:`~reentscan.symvm.SymVM.run_entry`) forks each path at f's first
external call to unknown code, and the completed ends of the paths that
reached one form two scenario sets over one symbol environment:

* I: f runs to completion, then g runs as a fresh transaction from the
  account f called (sequential baseline): the ends where the attacker
  returned at once.
* C: g is injected through the attacker dummy while f is still executing
  (re-entrant candidate): the ends where the attacker re-entered.

An end whose f met no call to unknown code is in neither set: the attacker
never gets control on it, and g does not run after it.

The pair is vulnerable when some feasible re-entrant condition is equivalent
to no sequential condition: the attack reaches a final state the sequential
schedule cannot. Account solvency terms, appended here and never by the VM,
are part of every final condition, which is what exposes double-pay effects
to the equivalence check.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from .cfg_manager import CannotFinish
from .evm_core import Bytecode
from .smt import IndeterminateEquivalence, Solver, SolverStatus
from .smt.terms import Term
from .symdomain import ECFG
from .symvm import (
    AbiCalldata,
    AnalyzerConfig,
    FunctionEntry,
    SymVM,
    extract_function_ids,
)


class Status(enum.Enum):
    VULNERABLE = "vulnerable"
    BENIGN = "benign"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ScenarioSet:
    """All end-path conditions for one pair, plus the graph of the walk
    that gave both schedules."""

    f: FunctionEntry
    g: FunctionEntry
    ecfg: ECFG
    created: list[Bytecode]
    I: list[Term] = field(default_factory=list)
    C: list[Term] = field(default_factory=list)


@dataclass
class PairResult:
    f: FunctionEntry
    g: FunctionEntry
    status: Status
    witness: dict[str, int] | None = None
    paths_I: int = 0
    paths_C: int = 0
    elapsed_ms: int = 0
    note: str | None = None
    scenarios: ScenarioSet | None = None  # kept for inspection, not serialized

    def to_dict(self) -> dict:
        return {
            "f": self.f.describe(),
            "g": self.g.describe(),
            "status": self.status.value,
            "witness-model": (None if self.witness is None else
                              {k: hex(v) for k, v in sorted(self.witness.items())}),
            "paths_I": self.paths_I,
            "paths_C": self.paths_C,
            "elapsed_ms": self.elapsed_ms,
            **({"note": self.note} if self.note else {}),
        }


@dataclass
class ContractReport:
    label: str
    source: str
    status: Status
    functions: list[FunctionEntry] = field(default_factory=list)
    pairs: list[PairResult] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "contract": self.label,
            "source": self.source,
            "status": self.status.value,
            "functions": [{"selector": f.describe(), "has_call": f.has_call}
                          for f in self.functions],
            "pairs": [p.to_dict() for p in self.pairs],
            **({"error": self.error} if self.error else {}),
        }


@dataclass
class AnalysisReport:
    contracts: list[ContractReport]
    elapsed_ms: int

    @property
    def status(self) -> Status:
        return _aggregate(c.status for c in self.contracts)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "elapsed_ms": self.elapsed_ms,
            "contracts": [c.to_dict() for c in self.contracts],
        }


def _aggregate(statuses) -> Status:
    out = Status.BENIGN
    for s in statuses:
        if s is Status.VULNERABLE:
            return Status.VULNERABLE
        if s is Status.INCONCLUSIVE:
            out = Status.INCONCLUSIVE
    return out


# -- scenario collection ------------------------------------------------------

def collect_scenarios(code: Bytecode, f: FunctionEntry, g: FunctionEntry,
                      config: AnalyzerConfig, solver: Solver) -> ScenarioSet:
    """Sort the ends of one walk of f with g pending (see
    :meth:`~reentscan.symvm.SymVM.run_entry`): a re-entered end goes to C,
    an end where the attacker returned at once to I, and an end whose f
    met no call to unknown code to neither."""
    run = SymVM(solver, config).run_entry(
        code, AbiCalldata(f.selector, "f"), reentry=AbiCalldata(g.selector, "g"))
    out = ScenarioSet(f=f, g=g, ecfg=run.ecfg, created=run.created)
    for end in run.completed:
        if end.ext_call_target is None:
            continue
        c = end.world.with_solvency(end.path_condition)
        (out.C if end.reentered else out.I).append(c)
    return out


# -- verdicts -----------------------------------------------------------------

def _feasible_only(conditions: list[Term], solver: Solver) -> list[Term]:
    """Drop provably-unsatisfiable conditions; undecided ones stay."""
    return [c for c in conditions
            if solver.check_sat([c]).status is not SolverStatus.UNSAT]


def verify_pair(code: Bytecode, f: FunctionEntry, g: FunctionEntry,
                config: AnalyzerConfig | None = None,
                solver: Solver | None = None) -> PairResult:
    """Decide one (f, g) pair.

    ``solver`` is the contract's shared solver (see :func:`_analyze_one`), so
    queries already answered for discovery or an earlier pair come from its
    memo; without one the pair gets a fresh solver and memo of its own.
    A run that raises :class:`~reentscan.cfg_manager.CannotFinish` makes
    the pair inconclusive, with the exception's text as its note. The
    witness of a vulnerable pair is the least model of its unmatched
    condition (see :meth:`~reentscan.smt.Solver.least_model`); if
    minimizing it runs out of time, the search's model is the witness and
    the note says so. A pair left inconclusive by an Unknown answer names
    the query that got it: an equivalence or a witness.
    """
    config = config or AnalyzerConfig()
    solver = solver or Solver(config.solver_timeout)
    start = time.monotonic()

    def done(status: Status, scenarios: ScenarioSet | None = None,
             witness: dict[str, int] | None = None,
             note: str | None = None) -> PairResult:
        return PairResult(
            f=f, g=g, status=status, witness=witness,
            paths_I=len(scenarios.I) if scenarios else 0,
            paths_C=len(scenarios.C) if scenarios else 0,
            elapsed_ms=int((time.monotonic() - start) * 1000),
            note=note, scenarios=scenarios)

    try:
        scenarios = collect_scenarios(code, f, g, config, solver)
    except CannotFinish as exc:
        return done(Status.INCONCLUSIVE, note=str(exc))

    I = _feasible_only(scenarios.I, solver)
    C = _feasible_only(scenarios.C, solver)
    scenarios.I, scenarios.C = I, C
    # only an empty C is settled here: an empty I leaves every c unmatched
    if not C:
        return done(Status.BENIGN, scenarios,
                    note=None if I else "empty scenario set")

    unknown = None  # why the first undecided c stays undecided
    for c in C:
        matched = False
        undecided = False
        for i in I:
            try:
                if solver.check_equivalence([c], [i]):
                    matched = True
                    break
            except IndeterminateEquivalence:
                undecided = True
        if matched:
            continue
        if undecided:
            unknown = unknown or "solver-unknown: equivalence undecided"
            continue
        sat, least = solver.least_model([c])
        if sat.status is SolverStatus.SAT:
            return done(Status.VULNERABLE, scenarios, witness=sat.model,
                        note=None if least else "witness not minimized: out of time")
        unknown = unknown or "solver-unknown: witness undecided"
    if unknown:
        return done(Status.INCONCLUSIVE, scenarios, note=unknown)
    return done(Status.BENIGN, scenarios)


def enumerate_pairs(functions: list[FunctionEntry]) -> list[tuple[FunctionEntry, FunctionEntry]]:
    """Functions f that reach a call to unknown code, crossed with every
    dispatchable g (f = g included).

    The fallback pseudo-entry has no selector an attacker can dispatch by
    name, so it participates in neither role.
    """
    dispatchable = [fn for fn in functions if fn.selector is not None]
    return [(f, g) for f in dispatchable if f.has_call for g in dispatchable]


# -- whole-target analysis ----------------------------------------------------

def analyze(targets: list[tuple[str, Bytecode, str]],
            config: AnalyzerConfig | None = None) -> AnalysisReport:
    """Analyze each (label, code, source) target, following contracts the
    code deploys at run time. Pairs are verified one after another in
    enumeration order.
    """
    config = config or AnalyzerConfig()
    start = time.monotonic()
    reports: list[ContractReport] = []
    for label, code, source in targets:
        queue: list[tuple[str, Bytecode, str]] = [(label, code, source)]
        seen = {code.data}
        while queue:
            qlabel, qcode, qsource = queue.pop(0)
            report = _analyze_one(qlabel, qcode, qsource, config)
            reports.append(report)
            for pair in report.pairs:
                if pair.scenarios is None:
                    continue
                for created in pair.scenarios.created:
                    if created.data not in seen:
                        seen.add(created.data)
                        queue.append((f"{qlabel}.created{len(seen) - 1}",
                                      created, "create"))
    return AnalysisReport(reports, int((time.monotonic() - start) * 1000))


def _analyze_one(label: str, code: Bytecode, source: str,
                 config: AnalyzerConfig) -> ContractReport:
    """Discover the functions of one contract and verify all its pairs.

    One solver, and so one query memo, serves the discovery and every pair:
    the pairs of a contract share their f-side paths and repeat many queries.
    """
    solver = Solver(config.solver_timeout)
    try:
        functions = extract_function_ids(code, solver, config)
        pairs = enumerate_pairs(functions)
    except Exception as exc:  # noqa: BLE001 - one bad contract must not stop the run
        return ContractReport(label, source, Status.INCONCLUSIVE,
                              error=str(exc) or type(exc).__name__)

    results: list[PairResult] = []
    for f, g in pairs:
        try:
            results.append(verify_pair(code, f, g, config, solver))
        except Exception as exc:  # noqa: BLE001
            results.append(PairResult(f=f, g=g, status=Status.INCONCLUSIVE,
                                      note=str(exc) or type(exc).__name__))
    return ContractReport(
        label=label, source=source,
        status=_aggregate(r.status for r in results),
        functions=functions, pairs=results)
