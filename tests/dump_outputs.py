"""Write every user-visible output of the audit for a fixed input set, so
two source trees can be compared with one `diff -r`.

For each contract it writes, under OUT_DIR/<set>/<contract>/:

- `audit.out` and `audit.exit`: `dappaudit audit` stdout and exit code,
  against the contract's attributes and `fixtures/chain.json`;
- `facts/*.tsv`: the relations `dappaudit facts` dumps;
- `symexec.json`: `dappaudit symexec` stdout.

The sets are the 14 corpus contracts (`corpus`), `mixed_utilities.ir`
against `fee_forwarder.attrs.json` (`mixed`), and every workload of
`bench/workloads.py` at seeds 7 and 8 (`<workload>-<seed>`), generated
into a temporary directory.  Run it from a checkout, on the source tree
under test:

    PYTHONPATH=src python tests/dump_outputs.py OUT_DIR
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from dappaudit.cli import main as cli

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"
CORPUS = FIXTURES / "corpus"
CHAIN = FIXTURES / "chain.json"
SEEDS = (7, 8)

sys.path.insert(0, str(TESTS.parent / "bench"))
from workloads import WORKLOADS, write_workload  # noqa: E402


def _run(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one `dappaudit` command, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(argv)
    return out.getvalue(), code


def dump_contract(ir: Path, attrs: Path, out: Path) -> None:
    out.mkdir(parents=True)
    stdout, code = _run(
        ["audit", "--ir", str(ir), "--attrs", str(attrs), "--chain-mock", str(CHAIN)]
    )
    (out / "audit.out").write_text(stdout)
    (out / "audit.exit").write_text(f"{code}\n")
    _run(["facts", "--ir", str(ir), "--out", str(out / "facts")])
    stdout, _ = _run(["symexec", "--ir", str(ir)])
    (out / "symexec.json").write_text(stdout)


def dump_set(ir_dir: Path, out: Path) -> None:
    for ir in sorted(ir_dir.glob("*.ir")):
        dump_contract(ir, ir.with_suffix(".attrs.json"), out / ir.stem)


def main(out_dir: Path) -> None:
    dump_set(CORPUS, out_dir / "corpus")
    dump_contract(
        FIXTURES / "mixed_utilities.ir",
        CORPUS / "fee_forwarder.attrs.json",
        out_dir / "mixed" / "mixed_utilities",
    )
    with tempfile.TemporaryDirectory() as work:
        for name, workload in sorted(WORKLOADS.items()):
            for seed in SEEDS:
                inputs = Path(work) / f"{name}-{seed}"
                write_workload(CORPUS, inputs, workload, seed)
                dump_set(inputs, out_dir / f"{name}-{seed}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(Path(sys.argv[1]))
