"""Seeded inputs for the audit benchmark.

Every workload starts from the 14-contract fixture corpus and appends
functions that are built not to change any finding, so the expected
finding types of every contract stay those of the corpus:

- filler: public, call-free, branch-free functions of an exact statement
  count that load only from slots 16-23 and store only to slots 24-31.
  No slot is both loaded and stored, nothing reads CALLER or TIMESTAMP and
  nothing returns, so no guard, role or transfer is inferred and the plan
  never selects them.  They load the static layers only.
- branchy: refund-to-CALLER functions of k sequential branch diamonds on
  k independent calldata parameters.  Each has 2**k paths, all feasible,
  and a CALLVALUE amount, which no rule reports.  They load the executor.
- deep: one refund-to-CALLER function whose amount is an n-deep
  `ADD v v` doubling chain over CALLVALUE.  Its rendered amount has 2**n
  leaves.  It loads semantics and symbolic expressions.

The text depends only on the seed and the sizes: the same arguments give
the same bytes.  Names are fixed per position and unique across the whole
program, because the parser rejects a variable defined twice anywhere.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

# Finding types each corpus contract must produce, in report order.
# Copied from tests/test_acceptance.py::EXPECTED_FINDINGS; that module
# cannot be imported while its own imports fail, and the benchmark must
# not depend on the test suite.
CORPUS_EXPECTED: dict[str, list[str]] = {
    "api_hosted_nft": ["VNA"],
    "api_hosted_nft_consistent": [],
    "fee_forwarder": ["HF"],
    "fee_forwarder_consistent": [],
    "mintable_token": ["UTS"],
    "mintable_token_consistent": [],
    "pausable_transfers": ["CDS"],
    "pausable_transfers_consistent": [],
    "staking_rewards": ["UR", "HF"],
    "staking_rewards_consistent": [],
    "team_lock": ["AL"],
    "team_lock_consistent": [],
    "treasury_drain": ["UFF"],
    "treasury_drain_consistent": [],
}

LOAD_SLOTS = range(16, 24)
STORE_SLOTS = range(24, 32)
# Statements per filler function; the last one takes the remainder.
FILLER_FN_STMTS = 50
# One kind per statement position, repeated; the first is always a load,
# so every later statement has a definition to use.  Operands are always
# the two latest definitions, so no arithmetic folds to a constant and the
# relation sizes, and with them the cost, are the same for every seed.
_FILLER_PATTERN = ("sload", "const", "arith", "cmp", "arith", "sstore", "logic", "iszero")
_ARITH = ("ADD", "SUB", "MUL", "DIV", "MOD")
_CMP = ("LT", "GT", "EQ")
_LOGIC = ("AND", "OR")

_SELECTOR_RE = re.compile(r"\bsig (0x[0-9a-fA-F]{8})\b")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Statements added to each corpus contract, or the shape's size.
    filler_stmts: int = 0
    branchy_fns: int = 0
    branchy_k: int = 0
    deep_n: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus",
            "the 14 fixture contracts as users have them; fixed per-contract"
            " costs (parse, facts, render, file I/O, chain set-up) dominate",
        ),
        Workload(
            "scaled",
            "corpus plus inert filler of an exact statement count; the static"
            " layers (facts, inference, graphs) do most of the work",
            filler_stmts=300,
        ),
        Workload(
            "branchy",
            "corpus plus refund functions of sequential branch diamonds under"
            " max_states; the symbolic executor does most of the work",
            branchy_fns=2,
            branchy_k=8,
        ),
        Workload(
            "deep_expr",
            "corpus plus one refund whose amount is a doubling ADD chain;"
            " shared-subterm blow-up in semantics and symexpr dominates",
            deep_n=14,
        ),
    )
}


class _Names:
    """Selectors unique within one program, drawn from the seed."""

    def __init__(self, rng: random.Random, taken: set[str]):
        self.rng = rng
        self.taken = set(taken)

    def selector(self) -> str:
        while True:
            sel = f"0x{self.rng.randrange(1 << 32):08x}"
            if sel not in self.taken:
                self.taken.add(sel)
                return sel


def _literal(rng: random.Random) -> int:
    return rng.randrange(1, 1000)


def filler_functions(rng: random.Random, names: _Names, n_stmts: int) -> list[str]:
    """Filler functions holding exactly n_stmts statements in total."""
    lines: list[str] = []
    sizes = [FILLER_FN_STMTS] * (n_stmts // FILLER_FN_STMTS)
    if n_stmts % FILLER_FN_STMTS:
        sizes.append(n_stmts % FILLER_FN_STMTS)
    for j, size in enumerate(sizes):
        lines.append(f"function bench_fill{j} public sig {names.selector()} params () {{")
        lines.append("  block F0:")
        defined: list[str] = []
        for i in range(size):
            kind = _FILLER_PATTERN[i % len(_FILLER_PATTERN)]
            var = f"vfl{j}x{i}"
            last = " ".join(defined[-2:])
            if kind == "sload":
                body = f"{var} = SLOAD {rng.choice(LOAD_SLOTS)}"
            elif kind == "const":
                body = f"{var} = CONST {rng.randrange(1 << 32)}"
            elif kind == "arith":
                body = f"{var} = {rng.choice(_ARITH)} {last}"
            elif kind == "cmp":
                body = f"{var} = {rng.choice(_CMP)} {last}"
            elif kind == "logic":
                body = f"{var} = {rng.choice(_LOGIC)} {last}"
            elif kind == "iszero":
                body = f"{var} = ISZERO {defined[-1]}"
            else:
                body = f"SSTORE {rng.choice(STORE_SLOTS)} {defined[-1]}"
                var = None
            lines.append(f"    {i}: {body}")
            if var is not None:
                defined.append(var)
        lines += ["    stop", "}"]
    return lines


def branchy_function(rng: random.Random, names: _Names, j: int, k: int) -> list[str]:
    """A refund to CALLER behind k sequential diamonds: 2**k paths.  The
    seed picks only literals, so every seed costs the executor the same."""
    p = f"vbr{j}"
    params = ", ".join(f"{p}p{i}" for i in range(k))
    lines = [f"function bench_refund{j} public sig {names.selector()} params ({params}) {{"]
    for i in range(k):
        lines += [
            f"  block B{i}:",
            f"    0: {p}c{i} = LT {p}p{i} {_literal(rng)}",
            f"    jumpi {p}c{i} T{i} E{i}",
            f"  block T{i}:",
            f"    0: {p}t{i} = ADD {p}p{i} {_literal(rng)}",
            f"    jump B{i + 1}",
            f"  block E{i}:",
            f"    0: {p}e{i} = SUB {p}p{i} {_literal(rng)}",
            f"    jump B{i + 1}",
        ]
    lines += [
        f"  block B{k}:",
        f"    0: {p}who = CALLER",
        f"    1: {p}amt = CALLVALUE",
        f"    2: CALL {p}who {p}amt",
        "    stop",
        "}",
    ]
    return lines


def deep_function(names: _Names, n: int) -> list[str]:
    """A refund to CALLER of CALLVALUE doubled n times: ADD v v, n deep."""
    lines = [
        f"function bench_refund_deep public sig {names.selector()} params () {{",
        "  block R0:",
        "    0: vdp0 = CALLVALUE",
    ]
    for i in range(1, n + 1):
        lines.append(f"    {i}: vdp{i} = ADD vdp{i - 1} vdp{i - 1}")
    lines += [
        f"    {n + 1}: vdpwho = CALLER",
        f"    {n + 2}: CALL vdpwho vdp{n}",
        "    stop",
        "}",
    ]
    return lines


def build_contract(base_text: str, workload: Workload, rng: random.Random) -> str:
    """The corpus contract text with the workload's functions appended."""
    names = _Names(rng, set(_SELECTOR_RE.findall(base_text)))
    lines: list[str] = []
    if workload.filler_stmts:
        lines += filler_functions(rng, names, workload.filler_stmts)
    for j in range(workload.branchy_fns):
        lines += branchy_function(rng, names, j, workload.branchy_k)
    if workload.deep_n:
        lines += deep_function(names, workload.deep_n)
    text = base_text if base_text.endswith("\n") else base_text + "\n"
    return text + "".join(line + "\n" for line in lines)


def write_workload(corpus_dir: Path, out_dir: Path, workload: Workload, seed: int) -> None:
    """Write <name>.ir and <name>.attrs.json for every corpus contract."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    for name in sorted(CORPUS_EXPECTED):
        base = (corpus_dir / f"{name}.ir").read_text()
        (out_dir / f"{name}.ir").write_text(build_contract(base, workload, rng))
        attrs = (corpus_dir / f"{name}.attrs.json").read_bytes()
        (out_dir / f"{name}.attrs.json").write_bytes(attrs)
