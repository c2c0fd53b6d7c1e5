"""Benchmark inputs and their known answers.

A workload is a list of targets. Each target is one contract, analysed by its
own ``analyze`` call, and carries the verdict expected for every (f, g) pair
of the contract. Neither workload deploys contracts at run time.

* ``token`` is the committed fixture. Its per-pair answers follow
  ``fixtures/README.md`` and are checked against its split in
  ``tests/test_acceptance.py::EXPECTED_SPLIT`` before anything runs.
* ``dag`` is drawn from the seed: fund-shaped contracts whose balance slot is
  ``CALLER + salt`` doubled by a chain of ``DUP1 ADD``, so the slot term is a
  DAG with ``DAG_LINKS`` links. The vulnerable variant pays, then zeroes the
  balance; the benign one zeroes, then pays. The answer is the variant.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VULNERABLE = "vulnerable"
BENIGN = "benign"

# chain length per dag variant (vulnerable?). Term work (Term.digest and
# Term.__eq__) doubles with each link. The benign variant has little solver
# work, and its long chain makes term work most of the pass at the seed
# commit; the vulnerable one, with about twice the solver work, gets a short
# chain so the pass stays short.
DAG_LINKS = {True: 16, False: 19}


@dataclass
class Target:
    label: str
    code: object  # reentscan.evm_core.Bytecode
    expected: dict[tuple[str, str], str]  # (f selector hex, g selector hex) -> verdict


# (f signature, g signature) -> verdict, per fixtures/README.md: every pair
# has f = withdraw(), which holds a re-entrancy lock that transfer() ignores
TOKEN_ANSWERS = {
    ("withdraw()", g): VULNERABLE if g == "transfer(address,uint256)" else BENIGN
    for g in ("withdraw()", "transfer(address,uint256)", "deposit()",
              "balanceOf(address)", "totalSupply()",
              "approve(address,uint256)", "allowance(address)",
              "setOwner(address)", "owner()", "pause()", "unpause()",
              "mint(uint256)")
}

WORKLOADS = ["token", "dag"]


def acceptance_split() -> dict[str, tuple[int, int]]:
    """EXPECTED_SPLIT from the acceptance gate, read without importing pytest."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "EXPECTED_SPLIT"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("EXPECTED_SPLIT not found in tests/test_acceptance.py")


def token_targets() -> list[Target]:
    from reentscan.evm_core import selector_of
    from reentscan.ingest import load_hex

    verdicts = list(TOKEN_ANSWERS.values())
    split = (verdicts.count(BENIGN), verdicts.count(VULNERABLE))
    gate = tuple(acceptance_split()["token"])
    if split != gate:
        raise ValueError(f"token: answers give split {split}, "
                         f"the acceptance gate says {gate}")
    code = load_hex(ROOT / "fixtures" / "token.hex")
    expected = {(selector_of(f).hex(), selector_of(g).hex()): verdict
                for (f, g), verdict in TOKEN_ANSWERS.items()}
    return [Target("token", code, expected)]


def dag_source(links: int, vulnerable: bool, salt: int, signature: str) -> str:
    """Assembly of one fund-shaped contract with a DAG-shaped balance slot."""
    from make_fixtures import PAY_CALLER, dispatcher

    slot = f"CALLER PUSH2 {salt:#06x} ADD " + " ".join(["DUP1 ADD"] * links)
    zero = f"PUSH1 0 {slot} SSTORE"
    body = (f"{PAY_CALLER}\nPOP\n{zero}\nSTOP" if vulnerable
            else f"{zero}\n{PAY_CALLER}\nPOP\nSTOP")
    return f"""
{dispatcher([(signature, "withdraw")])}
withdraw:
JUMPDEST POP
{slot} SLOAD
DUP1 ISZERO PUSHL done JUMPI
{body}
done:
JUMPDEST POP STOP
"""


def dag_targets(seed: int) -> list[Target]:
    """One benign contract, then one vulnerable one, each with its own
    seeded salt and function name. Chain lengths depend only on the variant,
    so every seed asks for the same amount of work.

    The order is fixed because it moves the pass time: over 14 runs, passes
    with the benign contract first took 24.4-26.7 s and passes with the
    vulnerable one first 22.3-23.9 s (host speed taken out). A seeded order
    made the spread across seeds the spread of that draw. Benign first is
    the slower order, so whatever makes it slower stays measured."""
    from asm import assemble
    from reentscan.evm_core import Bytecode, selector_of

    rng = random.Random(seed)
    out = []
    for i, vulnerable in enumerate((False, True)):
        salt = rng.randrange(1, 1 << 16)
        signature = f"withdraw_{rng.randrange(1 << 32):08x}()"
        code = Bytecode(assemble(dag_source(DAG_LINKS[vulnerable], vulnerable,
                                            salt, signature)))
        sel = selector_of(signature).hex()
        out.append(Target(f"dag{i}_{'vuln' if vulnerable else 'benign'}",
                          code, {(sel, sel): VULNERABLE if vulnerable
                                 else BENIGN}))
    return out


def load(workload: str, seed: int) -> list[Target]:
    """The targets of one pass, in analysis order."""
    return dag_targets(seed) if workload == "dag" else token_targets()
