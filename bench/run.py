"""Time-to-verdict benchmark for reentscan.

Run from the repository root:

    python3 bench/run.py --workload token --seed 1 --seconds 60 --trace 0

One client, closed loop: each contract of a workload is handed to
``reentscan.verifier.analyze`` after the previous verdict came back, and
every pair verdict is checked against its known answer (see workloads.py).
A pass is one round over the workload's contracts, made serially in one
fresh interpreter; the run repeats passes, one at a time, while another one
fits in ``--seconds``, and always makes at least one.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
Their times are scaled to a reference host speed, sampled while they are
measured (see speed.py), because the shared host's own speed moves by more
than the bounds; the raw pass times are printed above the result line.
With ``--trace 1`` every pass is traced and the last line reports per-layer
metrics (see tracer.py), together with the traced pass time and the tracer's
own time within it. The spans of the first traced pass are written to
``bench/traces/``.

The last line is one JSON object: correct, attempted, failed, metrics. A
wrong, missing or raised verdict makes the run exit with code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/reentscan/verifier.py", "tests/asm.py",
            "tests/test_acceptance.py", "fixtures/make_fixtures.py")
SETUP_REPS = 9
PATHS = [str(HERE), str(ROOT / "src"), str(ROOT / "tests"),
         str(ROOT / "fixtures")]

sys.path[:0] = PATHS

from speed import TABLE_MB, Kernel, SpeedSampler  # noqa: E402
from workloads import WORKLOADS, load  # noqa: E402

# One set-up in a fresh interpreter, so that every module the analyzer
# imports is imported cold; the clock starts once the interpreter is up.
# The host's speed is sampled right after, and the set-up time is scaled by
# the mean kernel time (see speed.py).
SETUP_PROBE = """
from time import perf_counter
start = perf_counter()
import sys
sys.path[:0] = {paths!r}
import reentscan.verifier, reentscan.ingest, workloads
workloads.load({workload!r}, {seed})
seconds = perf_counter() - start
import speed
sampler = speed.SpeedSampler(speed.Kernel())
for _ in range({samples}):
    sampler.sample()
print(seconds * sampler.scale())
"""
SETUP_SAMPLES = 20

# One pass in a fresh interpreter; its figures are the last line it prints.
PASS_PROBE = """
import json, sys
sys.path[:0] = {paths!r}
import run
print(json.dumps(run.one_pass({workload!r}, {seed}, {traced}, {path!r})))
"""


def setup_seconds(workload: str, seed: int) -> float:
    """Median of SETUP_REPS set-ups, each in its own fresh interpreter, one
    at a time: importing the analyzer, then reading and decoding (or
    generating) the inputs. Each is scaled to the reference host speed."""
    code = SETUP_PROBE.format(paths=PATHS, workload=workload, seed=seed,
                              samples=SETUP_SAMPLES)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(SETUP_REPS))


def serial_config():
    """One process, no pool threads, whether or not the config has workers."""
    from reentscan.verifier import AnalyzerConfig

    fields = {f.name for f in dataclasses.fields(AnalyzerConfig)}
    return AnalyzerConfig(**({"workers": 1} if "workers" in fields else {}))


def run_pass(targets, config):
    """Analyze each target in turn; returns wall seconds and the outcomes."""
    from reentscan import verifier

    outcomes = []
    start = perf_counter()
    for t in targets:
        try:
            outcomes.append(verifier.analyze([(t.label, t.code, "bench")], config))
        except Exception as exc:  # noqa: BLE001 - a raise is a failed verdict
            traceback.print_exc()
            outcomes.append(exc)
    return perf_counter() - start, outcomes


@dataclasses.dataclass
class Tally:
    """Pair verdicts against the known answers.

    Attempted are the expected pairs, pairs reported without a known answer,
    and contracts whose analysis stopped with an error; failed are those of
    them that did not give the known answer.
    """
    expected: int = 0
    correct: int = 0
    unexpected: int = 0
    errors: int = 0
    decided: int = 0
    pair_s: list[float] = dataclasses.field(default_factory=list)
    wrong: list[str] = dataclasses.field(default_factory=list)

    def extend(self, other: Tally) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def add(self, targets, outcomes, scale: float = 1.0) -> None:
        """Counts one pass; its pair times are multiplied by ``scale``."""
        for t, report in zip(targets, outcomes):
            self.expected += len(t.expected)
            if isinstance(report, Exception):
                self.errors += 1
                self.wrong.append(f"{t.label}: raised {report!r}")
                continue
            got: dict[tuple[str, str], str] = {}
            for contract in report.contracts:
                if contract.error:
                    self.errors += 1
                    self.wrong.append(f"{contract.label}: {contract.error}")
                for p in contract.pairs:
                    key = (p.f.describe(), p.g.describe())
                    self.decided += p.status.value in ("vulnerable", "benign")
                    self.pair_s.append(p.elapsed_ms / 1000 * scale)
                    if contract.label != t.label or key not in t.expected:
                        self.unexpected += 1
                        self.wrong.append(f"{contract.label} {key}: no known answer")
                    else:
                        got[key] = p.status.value
            for key, want in t.expected.items():
                if got.get(key) == want:
                    self.correct += 1
                else:
                    self.wrong.append(f"{t.label} {key}: got {got.get(key)}, "
                                      f"expected {want}")

    @property
    def attempted(self) -> int:
        return self.expected + self.unexpected + self.errors

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def one_pass(workload: str, seed: int, traced: bool,
             trace_path: str | None) -> dict:
    """Loads the workload and makes one pass over it in this process.

    Untraced, the pass runs under a SpeedSampler: its scaled wall is the
    sampler's ``work``, the pass time without the sampler's own at the
    reference speed, and its pair times are scaled by the same factor,
    scaled over raw wall, which also takes the sampler's share out of them.
    Traced, the spans go to ``trace_path`` when one is given. Returns plain
    values, so that the pass can run in a child process. The peak resident
    memory leaves out the sampler's table.
    """
    targets = load(workload, seed)
    config = serial_config()
    tally = Tally()
    out = {}
    if not traced:
        with SpeedSampler(Kernel()) as sampler:
            wall, outcomes = run_pass(targets, config)
        out["scaled"] = sampler.work
        tally.add(targets, outcomes, sampler.work / wall)
    else:
        from tracer import Tracer

        with Tracer() as tracer:
            wall, outcomes = run_pass(targets, config)
        out["summary"] = tracer.summary()
        if trace_path:
            tracer.write(Path(trace_path))
        tally.add(targets, outcomes)
    out["wall"] = wall
    out["tally"] = dataclasses.asdict(tally)
    out["labels"] = [t.label for t in targets]
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024 - (0 if traced else TABLE_MB))
    return out


def measure(workload: str, seed: int, seconds: float, trace_path: Path | None):
    """Passes while another fits in the time, each in a fresh interpreter,
    one after another: a user's process analyzes a contract once, and a
    process's first pass runs slower than its later ones. Traced when a
    ``trace_path`` is given; the first pass's spans are written there.
    Returns the tally over all passes and each pass's figures."""
    tally = Tally()
    passes = []
    start = perf_counter()
    while True:
        path = str(trace_path) if trace_path and not passes else None
        code = PASS_PROBE.format(paths=PATHS, workload=workload, seed=seed,
                                 traced=trace_path is not None, path=path)
        out = json.loads(subprocess.run(
            [sys.executable, "-c", code], check=True, stdout=subprocess.PIPE,
            text=True, timeout=900).stdout.splitlines()[-1])
        passes.append(out)
        tally.extend(Tally(**out["tally"]))
        if perf_counter() - start + out["wall"] > seconds:
            break
    return tally, passes


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a reentscan checkout, missing {missing}",
              file=sys.stderr)
        return 2

    trace_path = (HERE / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
                  if args.trace else None)
    tally, passes = measure(args.workload, args.seed, args.seconds, trace_path)
    walls = [p["wall"] for p in passes]

    for line in tally.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: contracts "
          f"{passes[0]['labels']}, {len(walls)} "
          f"{'traced' if args.trace else 'untraced'} passes "
          f"{[round(w, 3) for w in walls]} s raw"
          + ("" if args.trace else
             f", {[round(p['scaled'], 3) for p in passes]} s scaled"))
    print(f"pair_s_p50 over n={len(tally.pair_s)} pairs")

    if args.trace:
        metrics = {k: statistics.median(p["summary"][k] for p in passes)
                   for k in passes[0]["summary"]}
        metrics["trace.wall_s"] = statistics.median(walls)
    else:
        metrics = {
            "wall_s": statistics.median(p["scaled"] for p in passes),
            "pair_s_p50": statistics.median(tally.pair_s) if tally.pair_s else 0.0,
            "decided_share": tally.decided / tally.attempted,
            "correct_share": 1 - tally.failed / tally.attempted,
            "setup_s": setup_seconds(args.workload, args.seed),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
    units = {"pair_s_p50": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                    for k, v in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
