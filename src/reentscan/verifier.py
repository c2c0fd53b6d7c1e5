"""Re-entrancy verdicts by path-condition equivalence.

For each function f that reaches a call to unknown code, one walk of f with
every dispatchable g as the attacker's choice (see
:meth:`~reentscan.symvm.SymVM.run_entry`) forks each path at every external
call to unknown code that may forward more than the 2300 gas stipend, until
the attacker has re-entered on it, and again over g. The completed ends of
the paths on which the attacker picked g form the two scenario sets of the
pair (f, g), over one symbol environment:

* I: f runs to completion, then g runs as a fresh transaction from the
  account f called (sequential baseline): the ends where the attacker
  returned at once.
* C: g is injected through the attacker dummy while f is still executing
  (re-entrant candidate): the ends where the attacker re-entered.

An end whose f met no call to unknown code is in no pair's sets: the
attacker never gets control on it, and no g runs after it. The fallback
pseudo-entry has no selector an attacker can dispatch by name, so it is
neither an f nor a g.

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
    """All end-path conditions for one pair, plus the graph of f's walk,
    which holds both schedules of every g. ``failure`` names what stopped
    the walk on the pair's paths; the sets are then empty."""

    f: FunctionEntry
    g: FunctionEntry
    ecfg: ECFG
    created: list[Bytecode]  # what the walk's CREATEs returned
    I: list[Term] = field(default_factory=list)
    C: list[Term] = field(default_factory=list)
    failure: str | None = None


@dataclass
class PairResult:
    """One pair's verdict. ``elapsed_ms``, set by :func:`analyze`, is the
    pair's verdict time plus an equal share of its f's walk (the walk time
    over the number of g's), so a contract's pair times add up to its
    analysis time after discovery. The verdict alone reads 0 ms on most of
    ``token``'s pairs: as a pair time it would pass for a speed-up. It is
    kept to the microsecond: most pairs take one to two milliseconds, and
    whole milliseconds would read each as 1 or 2."""

    f: FunctionEntry
    g: FunctionEntry
    status: Status
    witness: dict[str, int] | None = None
    paths_I: int = 0
    paths_C: int = 0
    elapsed_ms: float = 0.0
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
    elapsed_ms: float

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

def collect_scenarios(code: Bytecode, f: FunctionEntry,
                      gs: list[FunctionEntry], config: AnalyzerConfig,
                      solver: Solver) -> list[ScenarioSet]:
    """Walk f once with each of ``gs`` as the attacker's choice (see
    :meth:`~reentscan.symvm.SymVM.run_entry`) and sort the walk's ends into
    one scenario set per g, in the order of ``gs``: an end where g
    re-entered goes to C, an end where the attacker returned at once and g
    ran next to I, and an end whose f met no call to unknown code to none.
    A g whose paths the walk could not finish gets empty sets and the
    failure."""
    picks = [AbiCalldata(g.selector, "g") for g in gs]
    run = SymVM(solver, config).run_entry(
        code, AbiCalldata(f.selector, "f"), reentry=tuple(picks))
    sets = {}
    for pick, g in zip(picks, gs):
        failure = run.failed.get(pick)
        sets[pick] = ScenarioSet(
            f=f, g=g, ecfg=run.ecfg, created=[] if failure else run.created,
            failure=None if failure is None else str(failure))
    for end in run.completed:
        out = sets.get(end.g)
        if out is None or out.failure is not None:
            continue
        c = end.world.with_solvency(end.path_condition)
        (out.C if end.reentered else out.I).append(c)
    return list(sets.values())


# -- verdicts -----------------------------------------------------------------

def _feasible_only(conditions: list[Term], solver: Solver) -> list[Term]:
    """Drop provably-unsatisfiable conditions; undecided ones stay."""
    return [c for c in conditions
            if solver.check_sat([c]).status is not SolverStatus.UNSAT]


def verify_pair(scenarios: ScenarioSet, solver: Solver) -> PairResult:
    """Decide one (f, g) pair from its scenario sets.

    ``solver`` is the one that ran the walk, the contract's shared solver
    (see :func:`_analyze_one`), so queries already answered for discovery
    or an earlier pair come from its memo. A pair whose walk could not
    finish its paths is inconclusive, with the failure as its note. The
    witness of a vulnerable pair is the least model of its unmatched
    condition (see :meth:`~reentscan.smt.Solver.least_model`); if
    minimizing it runs out of time or meets an operation the solver cannot
    lower, the model ``check_sat`` gave is the witness and the note says
    why. A pair left inconclusive by an Unknown answer names
    the query that got it: an equivalence or a witness.
    """
    def done(status: Status, witness: dict[str, int] | None = None,
             note: str | None = None) -> PairResult:
        return PairResult(
            f=scenarios.f, g=scenarios.g, status=status, witness=witness,
            paths_I=len(scenarios.I), paths_C=len(scenarios.C),
            note=note, scenarios=scenarios)

    if scenarios.failure is not None:
        return done(Status.INCONCLUSIVE, note=scenarios.failure)
    I = _feasible_only(scenarios.I, solver)
    C = _feasible_only(scenarios.C, solver)
    scenarios.I, scenarios.C = I, C
    # only an empty C is settled here: an empty I leaves every c unmatched
    if not C:
        return done(Status.BENIGN, note=None if I else "empty scenario set")

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
        sat, why = solver.least_model([c])
        if sat.status is SolverStatus.SAT:
            note = None if why is None else f"witness not minimized: {why}"
            return done(Status.VULNERABLE, witness=sat.model, note=note)
        unknown = unknown or "solver-unknown: witness undecided"
    if unknown:
        return done(Status.INCONCLUSIVE, note=unknown)
    return done(Status.BENIGN)


# -- whole-target analysis ----------------------------------------------------

def analyze(targets: list[tuple[str, Bytecode, str]],
            config: AnalyzerConfig | None = None) -> AnalysisReport:
    """Analyze each (label, code, source) target, following contracts the
    code deploys at run time. Each calling f is walked once and its pairs
    verified in turn, f = g included, in selector order.
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
    return AnalysisReport(reports, round((time.monotonic() - start) * 1000, 3))


def _analyze_one(label: str, code: Bytecode, source: str,
                 config: AnalyzerConfig) -> ContractReport:
    """Discover the functions of one contract and verify all its pairs.

    One solver, and so one query memo, serves the discovery, the walks and
    every pair: the pairs of a contract repeat many queries.
    """
    solver = Solver(config.solver_timeout)
    try:
        functions = extract_function_ids(code, solver, config)
    except Exception as exc:  # noqa: BLE001 - one bad contract must not stop the run
        return ContractReport(label, source, Status.INCONCLUSIVE,
                              error=str(exc) or type(exc).__name__)

    # the fallback has no selector an attacker dispatches by name
    gs = [fn for fn in functions if fn.selector is not None]
    results: list[PairResult] = []
    for f in gs:
        if not f.has_call:
            continue
        start = time.monotonic()
        try:
            sets = collect_scenarios(code, f, gs, config, solver)
        except Exception as exc:  # noqa: BLE001 - fails the pairs of this f
            note = str(exc) or type(exc).__name__
            sets = [ScenarioSet(f, g, ECFG(), [], failure=note) for g in gs]
        share = (time.monotonic() - start) / len(gs)
        for scenarios in sets:
            start = time.monotonic()
            try:
                pair = verify_pair(scenarios, solver)
            except Exception as exc:  # noqa: BLE001
                pair = PairResult(f=f, g=scenarios.g, status=Status.INCONCLUSIVE,
                                  note=str(exc) or type(exc).__name__)
            pair.elapsed_ms = round((time.monotonic() - start + share) * 1000, 3)
            results.append(pair)
    return ContractReport(
        label=label, source=source,
        status=_aggregate(r.status for r in results),
        functions=functions, pairs=results)
