"""Prompt assembly for the description-analysis endpoint.

A prompt couples a fixed system template (analyst role plus general
instructions) and a user template (per-attribute instruction; boolean
ones carry a short reasoning guide) with one slice of the description.
Long descriptions are sliced so the whole assembled prompt stays under
SEGMENT_TOKEN_LIMIT tokens; the templates are repeated verbatim in every
segment and only the description is ever split.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from typing import NamedTuple

from .tokens import DEFAULT_TOKENIZER, Tokenizer

SEGMENT_TOKEN_LIMIT = 3000

KINDS = ("numeric", "boolean")


@cache
def _load_template(name: str) -> str:
    path = resources.files("dappaudit") / "data" / "prompts" / name
    return path.read_text(encoding="utf-8").strip()


class PromptSegment(NamedTuple):
    system: str
    user: str
    description: str

    def text(self) -> str:
        return f"{self.system}\n\n{self.user}\n\n{self.description}"


class PromptBundle(NamedTuple):
    segments: tuple[PromptSegment, ...]


def segment_text(text: str, tokenizer: Tokenizer, budget: int) -> list[str]:
    """Split text into pieces of at most `budget` tokens each.

    Cuts fall on token starts, so concatenating the pieces reproduces the
    input exactly and no token straddles a boundary.
    """
    if budget < 1:
        raise ValueError("token budget must be positive")
    starts = [t.start for t in tokenizer.tokens(text)]
    pieces = []
    prev = 0
    for i in range(budget, len(starts), budget):
        pieces.append(text[prev : starts[i]])
        prev = starts[i]
    pieces.append(text[prev:])
    return pieces


def build_prompts(
    description: str, kind: str, attribute: str | None = None
) -> PromptBundle:
    if not description:
        raise ValueError("description must be nonempty")
    if kind not in KINDS:
        raise ValueError(f"unknown prompt kind {kind!r}")
    system = _load_template("system.txt")
    user = _load_template(f"{kind}.{attribute or 'generic'}.txt")
    # Budget what is left for the description once the templates and the
    # joining blank lines are counted (at most 120 of the 3000 tokens).
    overhead = DEFAULT_TOKENIZER.count(PromptSegment(system, user, "").text())
    pieces = segment_text(description, DEFAULT_TOKENIZER, SEGMENT_TOKEN_LIMIT - overhead)
    return PromptBundle(tuple(PromptSegment(system, user, p) for p in pieces))
