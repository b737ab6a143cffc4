"""Robustness: a corpus IR with mutated lines either analyses or is
rejected with an `IrError`; no other exception escapes `analyze_ir`."""
from __future__ import annotations

from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from dappaudit.model import IrError
from dappaudit.pipeline import analyze_ir

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
TEXTS = {p.stem: p.read_text().splitlines() for p in sorted(CORPUS.glob("*.ir"))}
# Malformed or misplaced tokens a mutation may write besides the file's own.
ODD_TOKENS = (
    "", "v", "0x", "-1", "0x" + "f" * 70, "{", "}", ":", "=", "()", "block",
    "function", "jumpi", "returnprivate", "CALLPRIVATE", "slot(0x1)", "B9",
)
MUTATIONS = ("delete", "duplicate", "swap", "token", "truncate")


@st.composite
def mutated_ir(draw) -> str:
    lines = list(TEXTS[draw(st.sampled_from(sorted(TEXTS)))])
    pool = sorted({t for line in lines for t in line.split()}) + list(ODD_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(pool))
            lines[i] = "    " + " ".join(words)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@seed(20261020)
@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=mutated_ir())
def test_mutated_corpus_ir_raises_only_ir_errors(text):
    try:
        analyze_ir(text)
    except IrError:
        pass
