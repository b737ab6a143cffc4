"""Selector dictionary backed by a TSV data file.

New selectors take effect by editing data/signatures.tsv; nothing in the
code keys on raw selector constants.
"""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

_LINE = re.compile(r"^(0x[0-9a-f]{8})\t(\S+)$")

# Function name -> storage role marked by a standard getter.
GETTER_ROLES = {
    "totalSupply": "supply",
    "paused": "pause",
    "tokenURI": "token_uri",
}
OWNER_NAME = "owner"

# Function name -> (recipient arg index, amount arg index, transfer kind).
TOKEN_TRANSFER_SHAPES = {
    "transfer": (0, 1, "erc20_transfer"),
    "transferFrom": (1, 2, "erc20_transfer_from"),
}


@lru_cache(maxsize=1)
def load_signatures() -> dict[str, str]:
    """selector ("0x" + 8 hex) -> canonical signature text."""
    text = resources.files("dappaudit.data").joinpath("signatures.tsv").read_text()
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if not m:
            raise ValueError(f"signatures.tsv:{lineno}: bad line {line!r}")
        table[m.group(1)] = m.group(2)
    return table


def function_name(signature: str) -> str:
    return signature.split("(", 1)[0]


@lru_cache(maxsize=1)
def _selectors_by_name() -> dict[str, frozenset[str]]:
    """Function name -> the selectors of its signatures, built once."""
    index: dict[str, set[str]] = {}
    for sel, sig in load_signatures().items():
        index.setdefault(function_name(sig), set()).add(sel)
    return {name: frozenset(sels) for name, sels in index.items()}


def selectors_named(name: str) -> frozenset[str]:
    return _selectors_by_name().get(name, frozenset())


def transfer_shape(selector_value: int) -> tuple[int, int, str] | None:
    """Argument shape for a known token-transfer selector constant."""
    sel = f"0x{selector_value & 0xFFFFFFFF:08x}"
    sig = load_signatures().get(sel)
    if sig is None:
        return None
    return TOKEN_TRANSFER_SHAPES.get(function_name(sig))
