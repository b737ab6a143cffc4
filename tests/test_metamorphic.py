"""Metamorphic checks: renaming every variable of a program by a bijection
that keeps the `v` prefix changes no finding type, and the dataflow
closure of the renamed program is the renamed closure."""
from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from dappaudit.claims import FrontendAttributes
from dappaudit.detector import detect_all
from dappaudit.facts import build_facts
from dappaudit.parser import parse_ir
from dappaudit.pipeline import RunConfig, analyze_ir, audit_contract

from helpers import random_program_text

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
CHAIN_FILE = FIXTURES / "chain.json"
_WORD = re.compile(r"\bv[A-Za-z0-9_]*\b")


def variables(text: str) -> set[str]:
    """Every variable the program names: parameters, definitions,
    operands, branch conditions and returned values."""
    program = parse_ir(text)
    out: set[str] = set()
    for fn in program.functions:
        out.update(fn.params)
        for b in fn.blocks:
            t = b.terminator
            out.update(v for v in (t.cond, *t.values) if isinstance(v, str))
    for _, _, s in program.statements():
        out.update(s.uses)
        if s.defvar is not None:
            out.add(s.defvar)
    return out


def renamed(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """The text with its variables renamed by a random bijection onto
    fresh `v` names (so their sorted order changes too), and the bijection."""
    old = sorted(variables(text))
    new = [f"vr{i}" for i in range(len(old))]
    rng.shuffle(new)
    mapping = dict(zip(old, new))
    return _WORD.sub(lambda m: mapping.get(m.group(), m.group()), text), mapping


def mapped(pairs, mapping: dict[str, str]) -> set[tuple[str, str]]:
    return {(mapping[a], mapping[b]) for a, b in pairs}


def _shape(result) -> tuple:
    return (
        result.states_explored,
        result.budget_exceeded,
        [c.feasibility for c in result.checkpoints],
    )


def test_renaming_rewrites_every_variable_and_nothing_else():
    text = (
        "contract 0x00000000000000000000000000000000000000aa\n"
        "function vote private params (va) {\n"
        "  block B0:\n"
        "    0: vb = ADD va 0x1\n"
        "    returnprivate va vb\n"
        "}\n"
    )
    out, mapping = renamed(text, random.Random(0))
    assert set(mapping) == {"va", "vb"}
    assert sorted(mapping.values()) == ["vr0", "vr1"]
    assert "function vote private" in out
    assert f"0: {mapping['vb']} = ADD {mapping['va']} 0x1" in out
    assert variables(out) == set(mapping.values())


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.ir")))
def test_renaming_keeps_corpus_findings_and_dataflow(name, tmp_path):
    original = CORPUS / f"{name}.ir"
    text, mapping = renamed(original.read_text(), random.Random(name))
    (tmp_path / original.name).write_text(text)

    def finding_types(ir: Path) -> list[str]:
        cfg = RunConfig(
            ir_path=ir,
            attrs_path=CORPUS / f"{name}.attrs.json",
            chain_mock=CHAIN_FILE,
        )
        return [f.type for f in audit_contract(cfg).findings]

    assert finding_types(tmp_path / original.name) == finding_types(original)
    before = build_facts(parse_ir(original.read_text())).dataflow
    assert mapped(before, mapping) == build_facts(parse_ir(text)).dataflow


def test_renaming_keeps_random_program_findings_and_dataflow():
    rng = random.Random(2408)
    claims = FrontendAttributes()
    for i in range(80):
        text = random_program_text(rng, with_loops=i % 2 == 1)
        renamed_text, mapping = renamed(text, rng)
        a, b = analyze_ir(text), analyze_ir(renamed_text)
        assert mapped(a.db.dataflow, mapping) == b.db.dataflow, f"case {i}"
        # Plans and the executor's work name statements and blocks only.
        assert a.plan == b.plan, f"case {i}"
        assert [_shape(r) for r in a.executions] == [_shape(r) for r in b.executions]
        want = [f.type for f in detect_all(claims, a.semantics).findings]
        got = [f.type for f in detect_all(claims, b.semantics).findings]
        assert got == want, f"case {i}"
