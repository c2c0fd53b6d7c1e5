"""End-to-end command-line runs: exit codes, report schema, DOT output."""

import json
from pathlib import Path

from reentscan.cli import EXIT_USAGE, main
from test_verifier import (concretize_probe, jump_probe, mload_probe,
                           staticcall_probe)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_no_targets_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "no targets" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["--frobnicate"]) == EXIT_USAGE
    # analysis is serial; there is no worker count to set
    assert main(["--workers", "2", "--bytecode",
                 str(FIXTURES / "fund.hex")]) == EXIT_USAGE


def test_missing_file_is_usage_error(capsys):
    assert main(["--bytecode", "/nonexistent.hex"]) == EXIT_USAGE


def test_fund_run_reports_vulnerable(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    cfg_dir = tmp_path / "cfg"
    code = main(["--bytecode", str(FIXTURES / "fund.hex"),
                 "--report", str(report_path),
                 "--cfg-out", str(cfg_dir),
                 "--verbose"])
    assert code == 1

    out = capsys.readouterr().out
    assert "fund" in out and "vulnerable" in out
    # the summary counts (f, g) pairs, not functions
    header, _, row = out.splitlines()[:3]
    assert header.split("  ")[1:3] == ["benign pairs", "vulnerable pairs"]
    assert row.split() == ["fund", "0", "1", "vulnerable"]

    report = json.loads(report_path.read_text())
    assert report["status"] == "vulnerable"
    assert set(report) == {"status", "elapsed_ms", "contracts"}
    (contract,) = report["contracts"]
    assert set(contract) >= {"contract", "source", "status", "functions",
                             "pairs"}
    (pair,) = contract["pairs"]
    assert set(pair) >= {"f", "g", "status", "witness-model",
                         "paths_I", "paths_C", "elapsed_ms"}
    assert pair["status"] == "vulnerable"
    # sub-millisecond resolution: a 1.5 ms pair must not read as 1
    assert isinstance(pair["elapsed_ms"], float)
    assert pair["witness-model"]  # hex-valued assignment
    assert all(v.startswith("0x") for v in pair["witness-model"].values())

    dots = list(cfg_dir.glob("*.dot"))
    assert len(dots) == 1
    assert dots[0].read_text().startswith("digraph")


def test_undecided_dispatch_exits_inconclusive(tmp_path, capsys):
    # with no time to solve, fund's functions cannot be named: not benign
    assert main(["--bytecode", str(FIXTURES / "fund.hex"),
                 "--solver-timeout", "0",
                 "--report", str(tmp_path / "out.json")]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_unsupported_opcode_exits_inconclusive(tmp_path, capsys):
    path = tmp_path / "probe.hex"
    path.write_text(staticcall_probe().hex())
    assert main(["--bytecode", str(path),
                 "--report", str(tmp_path / "out.json")]) == 2
    (contract,) = json.loads((tmp_path / "out.json").read_text())["contracts"]
    assert contract["status"] == "inconclusive"
    assert "STATICCALL" in contract["error"]


def test_unconcretizable_operand_exits_inconclusive(tmp_path, capsys):
    path = tmp_path / "probe.hex"
    path.write_text(concretize_probe().hex())
    assert main(["--bytecode", str(path),
                 "--report", str(tmp_path / "out.json")]) == 2
    (contract,) = json.loads((tmp_path / "out.json").read_text())["contracts"]
    assert contract["status"] == "inconclusive"
    assert "cannot concretize" in contract["error"]


def test_symbolic_jump_target_exits_inconclusive(tmp_path, capsys):
    path = tmp_path / "probe.hex"
    path.write_text(jump_probe().hex())
    assert main(["--bytecode", str(path),
                 "--report", str(tmp_path / "out.json")]) == 2
    (contract,) = json.loads((tmp_path / "out.json").read_text())["contracts"]
    assert contract["status"] == "inconclusive"
    assert "symbolic jump target" in contract["error"]


def test_symbolic_memory_offset_exits_inconclusive(tmp_path, capsys):
    path = tmp_path / "probe.hex"
    path.write_text(mload_probe().hex())
    assert main(["--bytecode", str(path),
                 "--report", str(tmp_path / "out.json")]) == 2
    (contract,) = json.loads((tmp_path / "out.json").read_text())["contracts"]
    assert contract["status"] == "inconclusive"
    assert "symbolic mload offset" in contract["error"]
