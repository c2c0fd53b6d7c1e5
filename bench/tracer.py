"""In-memory spans around the public entry points of each analyzer layer.

The tracer wraps functions from outside the program: it patches class and
module attributes while installed and restores them on exit. Each call of a
wrapped entry point records a span (name, start, end, parent); counters are
taken at the same boundaries. A span's self time is its duration minus the
durations of its direct children and the tracer's own time around them, so
the self times of all spans plus the tracer's time add up to the duration of
the root spans (the ``analyze`` calls) and their wrappers.

The tracer's time counted here is a lower bound on its cost: part of that
cost falls inside the spans, for instance the attribute caches of ``Term``
that each outermost ``Term.__eq__`` call invalidates by swapping the class
attribute. The traced minus the untraced pass time gives the whole cost.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("verifier", "symvm", "solver", "bitblast", "sat", "terms")

# the caller a query is attributed to -> purpose
PURPOSES = {
    "cfg.branch": "branch",
    "cfg.jump": "jump",
    "verifier.extract": "discover",
    "solver.check_equivalence": "equivalence",
    "verifier.verify_pair": "verdict",
    "symvm.run_entry": "explore",  # SymVM._concretize: offsets, call targets
}

# counters every traced pass reports, also when they stay 0
COUNTERS = (
    "sat.learnt", "bitblast.cnf_vars", "bitblast.cnf_clauses",
    "solver.queries", "solver.sat", "solver.unsat", "solver.unknown",
    *(f"solver.queries.{p}"
      for p in sorted({*PURPOSES.values(), "other"})),
    "symvm.completed", "symvm.sealed", "symvm.ecfg_nodes", "cfg.forks",
    "verifier.paths_I", "verifier.paths_C",
)


def _query_key(constraints) -> frozenset:
    """The flattened constraint set of a query, by structural term hash.

    Hashes rather than terms, so building the key never walks a term.
    """
    out = set()
    for c in constraints:
        for p in (c.args if c.op == "band" else (c,)):
            if not (p.op == "const" and p.width == 0 and p.value == 1):
                out.add(p._hash)
    return frozenset(out)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # tracer time spent in a span's wrapper outside the span itself
        self.cost = array("d")
        self.stack: list[int] = []  # open span indices, innermost last
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.query_keys: set[frozenset] = set()
        self.repeat_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def current(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def _span(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.cost.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def _wrap(self, owner, attr: str, name: str, layer: str,
              before=None, after=None, nested: bool = True) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` may return replacement arguments and a context
        value; ``after(context, args, result, span)`` reads counters off the
        result. With ``nested=False``, the original is restored for the length
        of each call, so recursion through it runs at full speed, unrecorded.
        """
        targets = owner if isinstance(owner, tuple) else (owner,)
        fn = getattr(targets[0], attr)
        nid = self._name(name, layer)
        span = self._span

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            i = len(self.start)  # the index the span is about to take
            if nested:
                result = span(nid, fn, args, kwargs)
            else:
                for target in targets:
                    setattr(target, attr, fn)
                try:
                    result = span(nid, fn, args, kwargs)
                finally:
                    for target in targets:
                        setattr(target, attr, wrapper)
            if after is not None:
                after(ctx, args, result, i)
            self.cost[i] = (perf_counter() - entered
                            - (self.end[i] - self.start[i]))
            return result

        wrapper.__wrapped__ = fn
        for target in targets:
            self._patches.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    # -- counters taken at the boundaries -------------------------------------

    def _before_check_sat(self, args, kwargs):
        args = (args[0], list(args[1]), *args[2:])
        key = _query_key(args[1])
        repeat = key in self.query_keys
        self.query_keys.add(key)
        purpose = PURPOSES.get(self.current(), "other")
        return args, kwargs, (repeat, purpose)

    def _after_check_sat(self, ctx, args, verdict, i) -> None:
        repeat, purpose = ctx
        c = self.counts
        c["solver.queries"] += 1
        c[f"solver.queries.{purpose}"] += 1
        c[f"solver.{verdict.status.value}"] += 1
        if repeat:
            self.repeat_s += self.end[i] - self.start[i]

    def _before_solve(self, args, kwargs):
        sat = args[0]
        self.counts["bitblast.cnf_vars"] += sat.num_vars
        self.counts["bitblast.cnf_clauses"] += len(sat.clauses)
        return args, kwargs, len(sat.clauses)

    def _after_solve(self, clauses_before, args, result, i) -> None:
        self.counts["sat.learnt"] += len(args[0].clauses) - clauses_before

    def _after_run_entry(self, ctx, args, res, i) -> None:
        self.counts["symvm.completed"] += len(res.completed)
        self.counts["symvm.sealed"] += len(res.sealed)
        self.counts["symvm.ecfg_nodes"] += len(res.ecfg.nodes)

    def _after_branch(self, ctx, args, result, i) -> None:
        from reentscan.symdomain import EndState

        if args[1].end_state is EndState.BRANCHED:
            self.counts["cfg.forks"] += 1

    def _after_verify_pair(self, ctx, args, pair, i) -> None:
        self.counts["verifier.paths_I"] += pair.paths_I
        self.counts["verifier.paths_C"] += pair.paths_C

    # -- install --------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mod = importlib.import_module
        verifier = mod("reentscan.verifier")
        symvm = mod("reentscan.symvm")
        cfg = mod("reentscan.cfg_manager")
        solver = mod("reentscan.smt.solver")
        bitblast = mod("reentscan.smt.bitblast")
        sat = mod("reentscan.smt.sat")
        terms = mod("reentscan.smt.terms")
        smt = mod("reentscan.smt")

        w = self._wrap
        w(verifier, "analyze", "verifier.analyze", "verifier")
        w(verifier, "verify_pair", "verifier.verify_pair", "verifier",
          after=self._after_verify_pair)
        w(verifier, "collect_scenarios", "verifier.collect", "verifier")
        w(verifier, "extract_function_ids", "verifier.extract", "verifier")
        w(symvm.SymVM, "run_entry", "symvm.run_entry", "symvm",
          after=self._after_run_entry)
        w(cfg.Explorer, "branch_on_jumpi", "cfg.branch", "symvm",
          after=self._after_branch)
        w(cfg.Explorer, "jump", "cfg.jump", "symvm")
        w(solver.Solver, "check_sat", "solver.check_sat", "solver",
          before=self._before_check_sat, after=self._after_check_sat)
        w(solver.Solver, "check_equivalence", "solver.check_equivalence",
          "solver")
        w(bitblast.BitBlaster, "assert_true", "bitblast.assert_true",
          "bitblast")
        w(sat.SatSolver, "solve", "sat.solve", "sat",
          before=self._before_solve, after=self._after_solve)
        w(terms.Term, "digest", "terms.digest", "terms")
        w((terms, solver, smt), "evaluate", "terms.evaluate", "terms")
        w(terms.Term, "__eq__", "terms.eq", "terms", nested=False)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer and per-entry-point metrics of everything recorded."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        # layers on each span's chain of ancestors, as a bit mask
        above = [0] * n
        layer_self = [0.0] * len(LAYERS)
        layer_incl = [0.0] * len(LAYERS)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            layer = self.layer_of[nid]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i] + self.cost[i]
                above[i] = above[p] | (1 << self.layer_of[self.name_id[p]])
            if not above[i] >> layer & 1:
                layer_incl[layer] += dur[i]
            calls[nid] += 1
            total[nid] += dur[i]
        for i in range(n):
            layer_self[self.layer_of[self.name_id[i]]] += dur[i] - child[i]

        by_name = {name: (calls[k], total[k]) for k, name in enumerate(self.names)}

        def s(name: str) -> float:
            return by_name[name][1]

        def k(name: str) -> int:
            return by_name[name][0]

        c = self.counts
        queries = c["solver.queries"]
        out = {
            "sat.solve.calls": k("sat.solve"),
            "sat.solve.s": s("sat.solve"),
            "bitblast.calls": k("bitblast.assert_true"),
            "bitblast.s": s("bitblast.assert_true"),
            "solver.s": layer_incl[LAYERS.index("solver")],
            "solver.distinct": len(self.query_keys),
            "solver.repeat_share": (queries - len(self.query_keys)) / queries
            if queries else 0.0,
            "solver.repeat_s": self.repeat_s,
            "symvm.run_entry.calls": k("symvm.run_entry"),
            "symvm.run_entry.s": s("symvm.run_entry"),
            "cfg.branch.calls": k("cfg.branch"),
            "terms.digest.calls": k("terms.digest"),
            "terms.digest.s": s("terms.digest"),
            "terms.evaluate.calls": k("terms.evaluate"),
            "terms.evaluate.s": s("terms.evaluate"),
            "terms.eq.calls": k("terms.eq"),
            "terms.eq.s": s("terms.eq"),
            "verifier.extract.s": s("verifier.extract"),
            "verifier.pair.s": s("verifier.verify_pair"),
            "verifier.collect.s": s("verifier.collect"),
            "verifier.verdict.s": s("verifier.verify_pair") - s("verifier.collect"),
            "verifier.equivalence.calls": k("solver.check_equivalence"),
            "verifier.equivalence.s": s("solver.check_equivalence"),
            "trace.spans": n,
            "trace.self_sum_s": sum(layer_self),
            "trace.overhead_s": sum(self.cost),
        }
        for layer, value in zip(LAYERS, layer_self):
            out[f"{layer}.self_s"] = value
        out.update(c)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}\n")
