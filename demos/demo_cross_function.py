"""Cross-function re-entrancy and the inter-contract flow graph.

The known_cross_function fixture has two functions sharing one balance slot:
withdraw() pays out then zeroes the balance, transfer() moves it to another
account. Re-entering through transfer() while withdraw() is mid-payment moves
a balance that is about to be zeroed, so the attacker keeps both.

The script walks withdraw() once, verifies both pairs from that walk and
writes its exploration graph as Graphviz DOT, with the attacker hops
highlighted. The one walk gives both schedules of both pairs: f forks at its
call to the attacker, which re-enters with the g of its choice, withdraw()
or transfer(), or returns at once, after which f completes and again the
attacker's choice of g runs as the next transaction.

Run from the repository root:

    python3 demos/demo_cross_function.py [out.dot]
"""

import sys
from pathlib import Path

from reentscan.cfg_manager import export_dot
from reentscan.evm_core import Bytecode
from reentscan.smt import Solver
from reentscan.symvm import extract_function_ids
from reentscan.verifier import (AnalyzerConfig, Status, collect_scenarios,
                                verify_pair)

FIXTURE = (Path(__file__).resolve().parent.parent / "fixtures"
           / "known_cross_function.hex")


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("cross_function.dot")
    code = Bytecode(bytes.fromhex(FIXTURE.read_text().strip()))

    config = AnalyzerConfig()
    solver = Solver(config.solver_timeout)
    gs = [e for e in extract_function_ids(code, solver, config) if e.selector]
    (f,) = [e for e in gs if e.has_call]
    pairs = [verify_pair(s, solver)
             for s in collect_scenarios(code, f, gs, config, solver)]
    print("Pair verdicts:")
    for pair in pairs:
        print(f"  f={pair.f.describe()}  g={pair.g.describe()}  "
              f"-> {pair.status.value}  (I={pair.paths_I}, C={pair.paths_C})")

    (vuln,) = [p for p in pairs if p.status is Status.VULNERABLE]
    print(f"\nVulnerable pair: f={vuln.f.describe()} g={vuln.g.describe()}")
    print("f makes the external call; g is the re-entry vector. The pair")
    print("(withdraw, withdraw) stays benign: re-entering withdraw itself")
    print("reaches only states a sequential double-withdraw reaches too.")
    print("transfer() is what lets the stale balance escape the zeroing.")

    graph = vuln.scenarios.ecfg
    out_path.write_text(export_dot(graph, "cross_function"))
    hops = [n for n in graph.nodes.values() if n.contract != "c0"]
    print(f"\nWrote {out_path} ({len(graph.nodes)} nodes, "
          f"{len(graph.edges)} edges, {len(hops)} attacker-side nodes).")
    print("Render with: dot -Tsvg", out_path, "-o graph.svg")
    print("Salmon nodes are call/create entries, palegreen ones are returns;")
    print("each victim -> attacker -> victim chain is a re-entry with one g,")
    print("and the next_tx edges start each g after f on the sequential side.")


if __name__ == "__main__":
    main()
