"""Byte-identity guard for the 14 corpus contracts.

Each contract's report bytes, its `dump_facts` TSVs and its
`checkpoint_dump` JSON (as `dappaudit symexec` prints it) hash to one
sha256, recorded in `fixtures/corpus_golden.json`.  A change that must keep
every output identical leaves this test passing unedited.  A change of
behaviour rewrites the file and says why:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dappaudit.pipeline import RunConfig, analyze_ir, audit_contract, checkpoint_dump

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
GOLDEN = FIXTURES / "corpus_golden.json"


def contract_digest(ir: Path, work: Path) -> str:
    """sha256 over the report, the fact TSVs by name, and the symexec JSON."""
    report, facts = work / "report.json", work / "facts"
    audit_contract(
        RunConfig(
            ir_path=ir,
            attrs_path=ir.with_suffix(".attrs.json"),
            chain_mock=FIXTURES / "chain.json",
            out_path=report,
            facts_dump=facts,
        )
    )
    h = hashlib.sha256(report.read_bytes())
    for tsv in sorted(facts.iterdir()):
        h.update(tsv.name.encode() + b"\0" + tsv.read_bytes())
    doc = checkpoint_dump(analyze_ir(ir.read_text()))
    h.update((json.dumps(doc, indent=2) + "\n").encode())
    return h.hexdigest()


def corpus_digests(work: Path) -> dict[str, str]:
    return {
        ir.stem: contract_digest(ir, work / ir.stem) for ir in sorted(CORPUS.glob("*.ir"))
    }


def test_corpus_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 14
    assert corpus_digests(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = corpus_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
