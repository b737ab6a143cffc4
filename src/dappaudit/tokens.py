"""Lexical layer for description text: tokenization and coarse tagging.

One tokenizer, DEFAULT_TOKENIZER, serves both prompt segmentation and
extraction. It splits on whitespace and punctuation, keeping numbers
(with comma groups, decimals, and a trailing magnitude letter) as single
tokens. Tags distinguish only what downstream extraction needs: digit
tokens, the percent sign, words, and other punctuation.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# Numbers first so "250M" and "1,000.5" survive as one token.
_PATTERN = r"\d+(?:,\d{3})*(?:\.\d+)?[KMBkmb]?|[A-Za-z_]+|[^\w\s]"


class Token(NamedTuple):
    text: str
    start: int
    tag: str


def _tag_of(text: str) -> str:
    if text[0].isdigit():
        return "num"
    if text == "%":
        return "percent"
    if text[0].isalpha() or text[0] == "_":
        return "word"
    return "punct"


class Tokenizer:
    """Regex tokenizer; token starts index into the original text."""

    def __init__(self):
        self._re = re.compile(_PATTERN)

    def tokens(self, text: str) -> tuple[Token, ...]:
        return tuple(
            Token(m.group(), m.start(), _tag_of(m.group()))
            for m in self._re.finditer(text)
        )

    def count(self, text: str) -> int:
        return sum(1 for _ in self._re.finditer(text))


DEFAULT_TOKENIZER = Tokenizer()
