"""Command-line driver: ingest targets, analyze, report.

Exit codes: 0 all benign, 1 any vulnerable pair, 2 any inconclusive pair
(vulnerable wins over inconclusive), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cfg_manager import export_dot
from .ingest import IngestError, Target, fetch_code, load_hex
from .verifier import AnalysisReport, AnalyzerConfig, Status, analyze

EXIT_USAGE = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reentscan",
        description="Static re-entrancy analysis of EVM runtime bytecode.")
    parser.add_argument("--bytecode", nargs="+", default=[], metavar="PATH",
                        help="runtime bytecode hex file(s)")
    parser.add_argument("--address", nargs="+", default=[], metavar="HEX",
                        help="deployed contract address(es) to fetch")
    parser.add_argument("--rpc-url", default=None,
                        help="JSON-RPC node url (default: REENTSCAN_RPC_URL)")
    defaults = AnalyzerConfig()
    parser.add_argument("--depth", type=int, default=defaults.call_depth_bound,
                        help="call depth bound")
    parser.add_argument("--loop-bound", type=int, default=defaults.loop_bound)
    parser.add_argument("--path-cap", type=int, default=defaults.path_cap)
    parser.add_argument("--solver-timeout", type=float,
                        default=defaults.solver_timeout, metavar="SECS")
    parser.add_argument("--cfg-out", default=None, metavar="DIR",
                        help="write one DOT graph per calling function's "
                             "walk into this directory")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="JSON report path (default: report.json)")
    parser.add_argument("--verbose", "-v", action="store_true")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def _config_from(args: argparse.Namespace) -> AnalyzerConfig:
    return AnalyzerConfig(
        call_depth_bound=args.depth,
        loop_bound=args.loop_bound,
        path_cap=args.path_cap,
        solver_timeout=args.solver_timeout,
    )


def _gather_targets(args: argparse.Namespace) -> list[Target]:
    targets = []
    for path in args.bytecode:
        code = load_hex(path)
        targets.append(Target(Path(path).stem, code, str(path)))
    for address in args.address:
        code = fetch_code(address, args.rpc_url)
        targets.append(Target(address, code, address))
    return targets


def _summary(report: AnalysisReport) -> str:
    rows = [("contract", "benign pairs", "vulnerable pairs", "status")]
    for contract in report.contracts:
        benign = sum(p.status is Status.BENIGN for p in contract.pairs)
        vulnerable = sum(p.status is Status.VULNERABLE for p in contract.pairs)
        rows.append((contract.label, str(benign), str(vulnerable),
                     contract.status.value))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def _write_cfgs(report: AnalysisReport, out_dir: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for contract in report.contracts:
        # the pairs of one f share its walk and so its graph
        walks = {p.f: p.scenarios.ecfg for p in contract.pairs
                 if p.scenarios is not None}
        for f, ecfg in walks.items():
            (directory / f"{contract.label}_{f.describe()}.dot").write_text(
                export_dot(ecfg, "walk"))


def _exit_code(report: AnalysisReport) -> int:
    if report.status is Status.VULNERABLE:
        return 1
    if report.status is Status.INCONCLUSIVE:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map usage problems to 64
        return exc.code if exc.code in (0, None) else EXIT_USAGE

    if not args.bytecode and not args.address:
        parser.print_usage(sys.stderr)
        print("error: no targets; pass --bytecode and/or --address",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        targets = _gather_targets(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = analyze([(t.label, t.code, t.source) for t in targets],
                     _config_from(args))

    report_path = Path(args.report or "report.json")
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.cfg_out:
        _write_cfgs(report, args.cfg_out)

    print(_summary(report))
    if args.verbose:
        for contract in report.contracts:
            for pair in contract.pairs:
                print(f"  {contract.label} ({pair.f.describe()}, "
                      f"{pair.g.describe()}): {pair.status.value} "
                      f"[{pair.elapsed_ms:.1f} ms, I={pair.paths_I} C={pair.paths_C}]")
    print(f"report written to {report_path}")
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
