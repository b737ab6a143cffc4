"""Robustness: each kind of outside input either is accepted or raises its
own error, and no other exception escapes.  A corpus IR with mutated lines
meets `analyze_ir` (`IrError`), any JSON document meets `MockChain`
(`MockFormatError`), any reply or failure of the transport meets
`LlmClient.complete` (`LlmError`), and any list of labelled endpoint
answers meets `extract_attributes` (`ValueError`)."""
from __future__ import annotations

import string
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from dappaudit.chain import MockChain, MockFormatError
from dappaudit.claims import (
    BOOLEAN_ATTRIBUTES,
    NUMERIC_ATTRIBUTES,
    FrontendAttributes,
    LabeledResponse,
    extract_attributes,
    load_synonyms,
)
from dappaudit.llm import LlmClient, LlmError
from dappaudit.model import IrError
from dappaudit.pipeline import analyze_ir
from dappaudit.transport import ATTEMPTS, PermanentError
from helpers import ADDR

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


# Chain words, some wider than 256 bits, and strings near their shape.
HEXISH = st.integers(0, 1 << 257).map(hex) | st.sampled_from(
    ["0x", "0x2A", "0x1_0", "0x2a\n", " 0x2a", "0X2a", "0x-1", "0x\u0661", "0xzz", ""]
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(
    SCALARS | HEXISH,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | HEXISH, inner, max_size=4),
    max_leaves=8,
)
# Documents shaped like a mock-chain file, with any JSON in each place.
ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "code": st.just("0x60") | HEXISH | JSON,
        "storage": st.dictionaries(HEXISH, HEXISH, max_size=3) | JSON,
    },
)
ADDRESSES = st.sampled_from([ADDR, "0xAB"]) | st.text(max_size=4)
CHAIN_DOCS = (
    st.dictionaries(
        ADDRESSES,
        st.fixed_dictionaries({"storage": st.dictionaries(HEXISH, HEXISH, min_size=1)}),
        min_size=1,
        max_size=2,
    )
    | st.dictionaries(ADDRESSES, ENTRY, max_size=3)
    | JSON
)
HEX_DIGITS = set(string.hexdigits)


@seed(20261020)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(doc=CHAIN_DOCS)
def test_any_json_document_builds_a_mock_chain_or_raises_its_error(doc):
    try:
        MockChain(doc)
    except MockFormatError:
        return
    # What was accepted had exactly the 0x-hex shape; nothing was coerced.
    for entry in doc.values():
        code = entry.get("code", "0x")
        assert code[:2] == "0x" and len(code) % 2 == 0 and set(code[2:]) <= HEX_DIGITS
        for word in [w for item in entry.get("storage", {}).items() for w in item]:
            assert word[:2] == "0x" and word[2:] and set(word[2:]) <= HEX_DIGITS


FAILURES = st.builds(
    lambda cls, text: cls(text),
    st.sampled_from(
        [OSError, ConnectionError, TimeoutError, ValueError, KeyError, RuntimeError,
         PermanentError]
    ),
    st.text(max_size=8),
)


@seed(20261020)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    outcomes=st.lists(
        JSON | FAILURES | st.fixed_dictionaries({"text": st.text(max_size=8) | JSON}),
        min_size=ATTEMPTS,
        max_size=ATTEMPTS,
    )
)
def test_any_endpoint_reply_gives_text_or_llm_error(outcomes):
    replies = iter(outcomes)

    def post(url, payload, timeout):
        outcome = next(replies)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    client = LlmClient(url="http://llm.test", post=post, sleep=lambda s: None)
    try:
        assert isinstance(client.complete("x"), str)
    except LlmError:
        pass


ATTRIBUTES = (*NUMERIC_ATTRIBUTES, *BOOLEAN_ATTRIBUTES)
# Anchor words of every numeric attribute, units, answers and separators.
ANSWER_WORDS = sorted({w for a in NUMERIC_ATTRIBUTES for w in load_synonyms(a)}) + [
    "yes", "No", "Answer", ":", "year", "years", "yrs", "-", "percent", "%",
    ",", ".", "the", "of", "\u00e9t\u00e9",
]
NUMBERS = st.builds(
    lambda n, grouped, fraction, suffix: (f"{n:,}" if grouped else str(n))
    + (f".{fraction}" if fraction is not None else "")
    + suffix,
    st.integers(0, 10**15),
    st.booleans(),
    st.none() | st.integers(0, 999),
    st.sampled_from(["", "K", "M", "B", "k", "m", "b", "%"]),
)
# Digits of other scripts: Arabic-Indic, Devanagari, fullwidth, and a
# superscript, which is a digit to `str.isdigit` but not to `\d`.
FOREIGN_NUMBERS = st.sampled_from([
    "\u0663", "\u0661\u0662%", "\u0663.\u0665", "\u0967\u0966M", "\uff15\uff10", "\u00b2",
    "3\u00b2%",
])
ANSWER_TEXT = st.builds(
    lambda lead, words: " ".join([lead, *words]),
    st.sampled_from(["", "Answer: yes,", "Yes.", "no"]),
    st.lists(
        st.sampled_from(ANSWER_WORDS) | NUMBERS | FOREIGN_NUMBERS | st.text(max_size=3),
        max_size=12,
    ),
)


@seed(20261020)
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    answers=st.lists(
        st.builds(
            LabeledResponse,
            st.sampled_from([*ATTRIBUTES, "velocity"]),
            ANSWER_TEXT,
        ),
        max_size=6,
    )
)
def test_any_answer_list_gives_attributes_or_value_error(answers):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert isinstance(extract_attributes(answers), FrontendAttributes)
    except ValueError:
        pass
