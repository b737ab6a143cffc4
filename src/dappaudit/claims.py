"""Deterministic attribute extraction from description-analysis responses.

Numeric attributes are read by anchoring on a synonym list (one data file
per attribute), then taking the nearest eligible number token: rates must
carry a percent mark, supplies may carry a K/M/B magnitude suffix but
never a percent mark, and lock durations written in years are converted
to seconds using 365-day years. Boolean attributes are read as the
leading yes/no of the response. Responses are processed in order and the
first non-null value per attribute wins; a later segment disagreeing on a
numeric raises a ConflictingClaims warning but never overwrites.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from importlib import resources
from math import isfinite
from typing import NamedTuple, Sequence

from .tokens import DEFAULT_TOKENIZER, Token

NUMERIC_ATTRIBUTES = (
    "reward_rate_percent",
    "fee_rate_percent",
    "total_supply",
    "lock_time_seconds",
)
BOOLEAN_ATTRIBUTES = (
    "fee_claimed",
    "pause_disclosed",
    "fund_flow_disclosed",
    "nft_permanence_claimed",
)

SECONDS_PER_YEAR = 365 * 86400

_MAGNITUDE = {"k": 10**3, "m": 10**6, "b": 10**9}
_YEAR_WORDS = frozenset(("year", "years", "yr", "yrs"))
_RATE_MAX = Fraction(1000)


class ConflictingClaims(Warning):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"segments disagree on {attribute}")


class _FrontendAttributes(NamedTuple):
    reward_rate_percent: Fraction | None = None
    fee_rate_percent: Fraction | None = None
    # Not stated (None) becomes whether a fee rate is stated: a stated rate
    # is itself a fee disclosure.  A stated value, even false, wins.
    fee_claimed: bool | None = None
    lock_time_seconds: int | None = None
    total_supply: int | None = None
    pause_disclosed: bool = False
    fund_flow_disclosed: bool = False
    nft_permanence_claimed: bool | None = None


class FrontendAttributes(_FrontendAttributes):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FrontendAttributes:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("reward_rate_percent", "fee_rate_percent"):
            v = getattr(self, name)
            if v is not None and not 0 <= v <= _RATE_MAX:
                raise ValueError(f"{name} out of range: {v}")
        for name in ("lock_time_seconds", "total_supply"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative: {v}")
        if self.fee_claimed is None:
            return self._replace(fee_claimed=self.fee_rate_percent is not None)
        return self

    @classmethod
    def from_json(cls, doc: dict) -> "FrontendAttributes":
        """Typed read of an attributes document: numeric keys take JSON
        numbers (integers only for supply and lock time), boolean keys take
        true/false, and null means "not stated". Anything else raises
        ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError("attributes: expected a JSON object")
        known = set(NUMERIC_ATTRIBUTES) | set(BOOLEAN_ATTRIBUTES)
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown attribute keys: {sorted(extra)}")

        def number(key, kinds=(int, float)):
            v = doc.get(key)
            if v is None:
                return None
            bad = isinstance(v, bool) or not isinstance(v, kinds)
            if bad or (isinstance(v, float) and not isfinite(v)):
                want = "an integer" if kinds is int else "a number"
                raise ValueError(f"{key}: expected {want}, got {v!r}")
            return v

        def rational(key):
            v = number(key)
            if v is None:
                return None
            # Floats go through their decimal rendering to stay exact for
            # rates like 2.5 that came in from JSON.
            return Fraction(str(v)) if isinstance(v, float) else Fraction(v)

        def flag(key, unstated):
            v = doc.get(key)
            if v is None:
                return unstated
            if not isinstance(v, bool):
                raise ValueError(f"{key}: expected true or false, got {v!r}")
            return v

        return cls(
            reward_rate_percent=rational("reward_rate_percent"),
            fee_rate_percent=rational("fee_rate_percent"),
            fee_claimed=flag("fee_claimed", None),
            lock_time_seconds=number("lock_time_seconds", int),
            total_supply=number("total_supply", int),
            pause_disclosed=flag("pause_disclosed", False),
            fund_flow_disclosed=flag("fund_flow_disclosed", False),
            nft_permanence_claimed=flag("nft_permanence_claimed", None),
        )

    def to_json(self) -> dict:
        def plain(v):
            if isinstance(v, Fraction):
                return int(v) if v.denominator == 1 else float(v)
            return v

        return {name: plain(v) for name, v in zip(self._fields, self)}


class LabeledResponse(NamedTuple):
    """One endpoint response together with the attribute it was asked for."""

    attribute: str
    text: str


@cache
def load_synonyms(attribute: str) -> tuple[str, ...]:
    path = resources.files("dappaudit") / "data" / "synonyms" / f"{attribute}.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    return tuple(w.strip().lower() for w in lines if w.strip())


def _number_of(tok: Token) -> tuple[Fraction, int]:
    """Token value and magnitude scale; '250M' -> (250, 10**6)."""
    text = tok.text.replace(",", "")
    scale = 1
    if text[-1].lower() in _MAGNITUDE:
        scale = _MAGNITUDE[text[-1].lower()]
        text = text[:-1]
    return Fraction(text), scale


def _percent_marked(toks: Sequence[Token], i: int) -> bool:
    nxt = toks[i + 1] if i + 1 < len(toks) else None
    return nxt is not None and (nxt.tag == "percent" or nxt.text.lower() == "percent")


def _year_marked(toks: Sequence[Token], i: int) -> bool:
    # "5 years" and "5-year" both put the unit within two tokens.
    window = toks[i + 1 : i + 3]
    return any(t.text.lower() in _YEAR_WORDS for t in window)


def extract_numeric(text: str, attribute: str) -> Fraction | int | None:
    if attribute not in NUMERIC_ATTRIBUTES:
        raise ValueError(f"unknown numeric attribute {attribute!r}")
    anchor_words = frozenset(load_synonyms(attribute))
    toks = DEFAULT_TOKENIZER.tokens(text)
    anchors = [
        i for i, t in enumerate(toks) if t.tag == "word" and t.text.lower() in anchor_words
    ]
    if not anchors:
        return None

    rate = attribute in ("reward_rate_percent", "fee_rate_percent")
    candidates = []
    for i, t in enumerate(toks):
        if t.tag != "num":
            continue
        pct = _percent_marked(toks, i)
        yr = _year_marked(toks, i)
        if rate and (not pct or yr):
            continue
        if attribute == "total_supply" and (pct or yr):
            continue
        if attribute == "lock_time_seconds" and pct:
            continue
        candidates.append(i)
    if not candidates:
        return None

    # Nearest candidate to any anchor; ties go to the earlier number.
    best = min(candidates, key=lambda i: (min(abs(i - a) for a in anchors), i))
    value, scale = _number_of(toks[best])
    if rate:
        rate_value = value * scale
        return rate_value if 0 <= rate_value <= _RATE_MAX else None
    if attribute == "lock_time_seconds" and _year_marked(toks, best):
        return int(value * scale * SECONDS_PER_YEAR)
    return int(value * scale)


def extract_boolean(text: str) -> bool | None:
    """Leading yes/no of the answer; None when neither appears first."""
    for tok in DEFAULT_TOKENIZER.tokens(text):
        word = tok.text.lower()
        if word == "yes":
            return True
        if word == "no":
            return False
        if tok.tag == "word" and word != "answer":
            return None
    return None


def extract_attributes(responses: Sequence[LabeledResponse]) -> FrontendAttributes:
    values: dict[str, object] = {}
    for resp in responses:
        attr = resp.attribute
        if attr in BOOLEAN_ATTRIBUTES:
            found: object = extract_boolean(resp.text)
        elif attr in NUMERIC_ATTRIBUTES:
            found = extract_numeric(resp.text, attr)
        else:
            raise ValueError(f"unknown attribute {attr!r}")
        if found is None:
            continue
        if attr in values:
            if attr in NUMERIC_ATTRIBUTES and values[attr] != found:
                warnings.warn(ConflictingClaims(attr))
            continue
        values[attr] = found
    # Attributes no response stated keep their defaults.
    return FrontendAttributes(**values)
