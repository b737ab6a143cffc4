"""Metamorphic checks: rewrites that keep a program's meaning change no
finding type.

Renaming every variable by a bijection that keeps the `v` prefix also maps
the dataflow closure onto the renamed closure.  The other rewrites of the
corpus: commuting the operands of ADD, MUL, EQ, AND and OR; splitting each
block after its first statement with a `jump`; reversing the order of the
functions; routing each SLOAD, CALLER and CALLVALUE through a private
identity helper of its own; and routing each constant-slot SLOAD through one
identity helper that every site shares, as compilers emit a shared internal
getter."""
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
_COMMUTATIVE = re.compile(r"^(\s*\S+: v\w* = (?:ADD|MUL|EQ|AND|OR)) (\S+) (\S+)$", re.M)
_BLOCK = re.compile(r"^\s*block (\w+):$")
_STATEMENT = re.compile(r"^\s*\S+: ")
_SOURCES = re.compile(r"^(\s*\S+:) (v\w*) = (SLOAD \S+|CALLER|CALLVALUE)$", re.M)
_CONSTANT_SLOT_LOADS = re.compile(r"^(\s*\S+:) (v\w*) = (SLOAD (?:0x[0-9a-fA-F]+|\d+))$", re.M)


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


def commuted(text: str) -> str:
    return _COMMUTATIVE.sub(r"\1 \3 \2", text)


def split_blocks(text: str) -> str:
    """Each block that has a statement ends after its first one in a `jump`
    to a new block holding the rest of its statements and its terminator."""
    out: list[str] = []
    opened = None
    for line in text.splitlines():
        out.append(line)
        if opened is not None and _STATEMENT.match(line):
            out += [f"    jump {opened}_rest", f"  block {opened}_rest:"]
        m = _BLOCK.match(line)
        opened = m.group(1) if m else None
    return "\n".join(out) + "\n"


def reversed_functions(text: str) -> str:
    head, *functions = re.split(r"(?m)^(?=function )", text)
    return head + "".join(reversed(functions))


def through_helpers(text: str, sites: re.Pattern, *, shared: bool) -> str:
    """Each statement `sites` matches defines a temporary instead, and a
    call of a private identity helper binds its variable: a helper of its
    own per site, or one helper that every site calls."""
    helpers: list[str] = []

    def route(m: re.Match) -> str:
        label, var, value = m.groups()
        if not (shared and helpers):
            helpers.append(f"idp{len(helpers)}")
        return f"{label} {var}_t = {value}\n{label} {var} = CALLPRIVATE {helpers[-1]} 0 {var}_t"

    text = sites.sub(route, text)
    for h in helpers:
        text += f"function {h} private params (v{h}_k, v{h}_x) {{\n"
        text += f"  block I0:\n    returnprivate v{h}_k v{h}_x\n}}\n"
    return text


REWRITES = {
    "commuted": commuted,
    "split_blocks": split_blocks,
    "reversed_functions": reversed_functions,
    "own_helpers": lambda text: through_helpers(text, _SOURCES, shared=False),
    "shared_helper": lambda text: through_helpers(text, _CONSTANT_SLOT_LOADS, shared=True),
}


def finding_types(ir: Path, name: str) -> list[str]:
    """Finding types of the audit of `ir` with the claims and chain state
    of the corpus contract `name`."""
    cfg = RunConfig(ir_path=ir, attrs_path=CORPUS / f"{name}.attrs.json", chain_mock=CHAIN_FILE)
    return [f.type for f in audit_contract(cfg).findings]


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
    assert finding_types(tmp_path / original.name, name) == finding_types(original, name)
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


def test_rewrites_keep_the_program_valid_and_change_it():
    text = (CORPUS / "fee_forwarder.ir").read_text()
    for name, rewrite in REWRITES.items():
        out = rewrite(text)
        assert out != text, name
        parse_ir(out)
    assert "    2: vis = EQ vwho vown\n" in commuted(text)
    assert "    0: vown = SLOAD 0\n    jump S0_rest\n  block S0_rest:\n" in split_blocks(text)
    assert reversed_functions(reversed_functions(text)) == text
    own = REWRITES["own_helpers"](text)
    assert own.count("private params") == own.count("CALLPRIVATE") > 1
    shared = REWRITES["shared_helper"](text)
    assert shared.count("private params") == 1
    assert shared.count("CALLPRIVATE idp0 0 v") == text.count("= SLOAD ")


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.ir")))
def test_rewrites_keep_corpus_findings(rewrite, name, tmp_path):
    original = CORPUS / f"{name}.ir"
    (tmp_path / original.name).write_text(REWRITES[rewrite](original.read_text()))
    assert finding_types(tmp_path / original.name, name) == finding_types(original, name)
