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
into a temporary directory.

A last set, `parse-errors/mutants.txt`, pins what the parser makes of
broken block headers and terminators: 2000 seeded mutants of the corpus
texts and the `branchy` texts at seed 7, each with one such line edited
(a token dropped, duplicated or replaced by a token of another such line,
a space turned into a tab, a digit put first in a block id, or the colon
moved).  Each mutant writes one line: what it edited, then `ok <sha256 of
print_ir>` or `<ExceptionType>: <message>`.

Run it from a checkout, on the source tree under test:

    PYTHONPATH=src python tests/dump_outputs.py OUT_DIR
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from dappaudit.cli import main as cli
from dappaudit.model import IrError
from dappaudit.parser import parse_ir, print_ir

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"
CORPUS = FIXTURES / "corpus"
CHAIN = FIXTURES / "chain.json"
SEEDS = (7, 8)
MUTANTS = 2000
# The first token of the lines a mutant edits -> where its block ids stand.
HEADS = {
    "block": (1,), "jump": (1,), "jumpi": (2, 3), "returnprivate": (1,),
    "return": (), "revert": (), "stop": (),
}

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


def _mutate(rng: random.Random, line: str, others: list[str]) -> tuple[str, str]:
    """One edit of a block-header or terminator line, and its name."""
    toks = line.split()
    ids = [j for j in HEADS[toks[0]] if j < len(toks)]
    op = rng.choice(["drop", "dup", "swap", "tab", "colon", *(["digit"] if ids else [])])
    if op == "tab":
        at = rng.choice([i for i, c in enumerate(line) if c == " "])
        return op, line[:at] + "\t" + line[at + 1:]
    k = rng.randrange(len(toks))
    if op == "drop":
        del toks[k]
    elif op == "dup":
        toks.insert(k, toks[k])
    elif op == "swap":
        toks[k] = rng.choice(rng.choice(others).split())
    elif op == "digit":
        j = rng.choice(ids)
        toks[j] = f"{rng.randrange(10)}{toks[j]}"
    text = " ".join(toks)
    if op == "colon":
        text = text.replace(":", "")
        at = rng.randrange(len(text) + 1)
        text = text[:at] + ":" + text[at:]
    return op, "    " + text


def dump_parse_errors(texts: dict[str, str], out: Path) -> None:
    """What `parse_ir` makes of MUTANTS seeded one-line mutants of texts."""
    rng = random.Random("parse-errors")
    names = sorted(texts)
    results = []
    for i in range(MUTANTS):
        name = rng.choice(names)
        lines = texts[name].splitlines()
        edits = [k for k, x in enumerate(lines) if x.lstrip().partition(" ")[0] in HEADS]
        at = rng.choice(edits)
        op, lines[at] = _mutate(rng, lines[at], [lines[k] for k in edits if k != at])
        try:
            digest = hashlib.sha256(print_ir(parse_ir("\n".join(lines) + "\n")).encode())
            result = f"ok {digest.hexdigest()}"
        except IrError as err:
            result = f"{type(err).__name__}: {err}"
        results.append(f"{i:04d} {name}:{at + 1} {op} {result}\n")
    out.mkdir(parents=True)
    (out / "mutants.txt").write_text("".join(results))


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
        texts = {
            f"{ir.parent.name}/{ir.stem}": ir.read_text()
            for ir_dir in (CORPUS, Path(work) / "branchy-7")
            for ir in ir_dir.glob("*.ir")
        }
    dump_parse_errors(texts, out_dir / "parse-errors")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(Path(sys.argv[1]))
