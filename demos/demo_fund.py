"""Walk through the classic single-function re-entrancy attack.

The fund fixture keeps per-caller balances in storage and pays out with an
external call before zeroing the balance. An attacker whose fallback calls
withdraw() again gets paid twice from the same recorded balance.

This script runs both schedules the analyzer compares, prints the resulting
path conditions side by side, and shows the witness model that proves the
re-entrant schedule reaches a state the sequential one cannot.

Run from the repository root:

    python3 demos/demo_fund.py
"""

from pathlib import Path

from reentscan.evm_core import Bytecode, selector_of
from reentscan.smt import Solver
from reentscan.smt.terms import conjuncts
from reentscan.verifier import AnalyzerConfig, collect_scenarios, verify_pair
from reentscan.symvm import FunctionEntry, extract_function_ids

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fund.hex"


def describe(conditions, name):
    print(f"\n{name} holds {len(conditions)} end-path condition(s):")
    for i, cond in enumerate(conditions):
        parts = conjuncts(cond)
        print(f"  [{i}] {len(parts)} conjuncts")
        for c in parts:
            print(f"      {c}")


def main() -> None:
    code = Bytecode(bytes.fromhex(FIXTURE.read_text().strip()))

    print("Recovered entry points:")
    entries = extract_function_ids(code)
    for e in entries:
        marker = "  calls unknown code" if e.has_call else ""
        print(f"  {e.describe()}{marker}")

    withdraw = selector_of("withdraw()")
    (f,) = [e for e in entries if e.selector == withdraw]
    assert isinstance(f, FunctionEntry)

    print("\nVerifying the pair (withdraw, withdraw)...")
    config = AnalyzerConfig()
    solver = Solver(config.solver_timeout)
    # one walk of withdraw, with withdraw the attacker's one choice of g
    (scenarios,) = collect_scenarios(code, f, [f], config, solver)
    result = verify_pair(scenarios, solver)
    describe(result.scenarios.I, "I (sequential: withdraw, then withdraw)")
    describe(result.scenarios.C, "C (re-entrant: withdraw re-entered mid-pay)")

    print(f"\nVerdict: {result.status.value}")
    if result.witness:
        print("Witness assignment (a concrete attack setup):")
        for name, value in sorted(result.witness.items()):
            print(f"  {name} = {hex(value)}")
        print("\nReading the witness: under these values the re-entrant run")
        print("debits the victim twice against one recorded balance, a final")
        print("state no sequential schedule of the two calls can reach.")


if __name__ == "__main__":
    main()
