"""On-chain contract state: storage words and storage-encoded strings,
served by a live JSON-RPC endpoint or a file-backed mock.

Both backends expose the same two reads and are interchangeable behind
the interface; responses are cached per address/slot for the duration of a
run, so concurrent readers are safe.  RPC requests go through
`transport`, which opens only `http` and `https` URLs and retries
transient failures.
"""
from __future__ import annotations

import re
import threading
import time
from functools import lru_cache
from typing import Protocol

from .keccak import keccak_256
from .model import WORD
from .transport import ATTEMPTS, PermanentError, post_json, read_json, request

_HEX = re.compile(r"0x[0-9a-fA-F]+")
_BYTES = re.compile(r"0x(?:[0-9a-fA-F]{2})*")


class ChainState(Protocol):
    """The read interface both backends implement.  Both derive from it
    and inherit `read_string_at`, which decodes through `get_storage`."""

    def get_storage(self, address: str, slot: int) -> int: ...

    def read_string_at(self, address: str, slot: int) -> str:
        word = self.get_storage(address, slot)
        return decode_string(slot, word, lambda s: self.get_storage(address, s))


class ChainUnavailable(Exception):
    """The configured backend could not answer; callers may degrade."""


class RpcError(ChainUnavailable):
    pass


class MalformedResponse(ChainUnavailable):
    pass


class StringTooLong(ChainUnavailable):
    """A long-form string word claims more than MAX_STRING_BYTES."""


class MockFormatError(Exception):
    pass


class NotAString(Exception):
    """The storage word matches neither string encoding."""


def _to_word(text: str, context: str, error=MockFormatError) -> int:
    """`text` as a storage word: `0x` and hex digits, at most 256 bits."""
    if not isinstance(text, str) or not _HEX.fullmatch(text):
        raise error(f"{context}: expected 0x-hex, got {text!r}")
    value = int(text, 16)
    if value >= WORD:
        raise error(f"{context}: wider than 256 bits")
    return value


# ---------------------------------------------------------------------------
# Storage string codec (Solidity layout)

MAX_STRING_BYTES = 1 << 12


# A pure-Python Keccak-f costs about 0.3 ms; a program names few slots.
@lru_cache(maxsize=256)
def _data_slot(slot: int) -> int:
    return int.from_bytes(keccak_256(slot.to_bytes(32, "big")), "big")


def encode_string_at(slot: int, text: str) -> dict[int, int]:
    """Storage words representing `text` rooted at `slot`.

    Short form (length < 32): data left-aligned in the slot word with
    2*length in the low byte.  Long form: the slot word holds 2*length+1
    and the data occupies consecutive words starting at keccak256(slot).
    """
    data = text.encode("utf-8")
    if len(data) < 32:
        word = int.from_bytes(data.ljust(32, b"\0"), "big") | (2 * len(data))
        return {slot: word}
    words = {slot: 2 * len(data) + 1}
    base = _data_slot(slot)
    for i in range(0, len(data), 32):
        chunk = data[i : i + 32].ljust(32, b"\0")
        words[(base + i // 32) % WORD] = int.from_bytes(chunk, "big")
    return words


def decode_string(slot: int, word: int, fetch) -> str:
    """Decode the string rooted at `slot` whose slot word is `word`;
    `fetch(slot)` supplies the long form's data, one word per read.  A word
    may claim 2**254 bytes; over MAX_STRING_BYTES raises StringTooLong."""
    if word == 0:
        return ""
    raw = word.to_bytes(32, "big")
    if word & 1 == 0:
        length = raw[31] // 2
        if length == 0 or length > 31 or any(raw[length:31]):
            raise NotAString(f"slot {slot:#x}: not a short-form string word")
        return raw[:length].decode("utf-8", errors="replace")
    length = (word - 1) // 2
    if length < 32:
        raise NotAString(f"slot {slot:#x}: long-form marker with short length")
    if length > MAX_STRING_BYTES:
        raise StringTooLong(f"slot {slot:#x}: claims {length} bytes")
    base = _data_slot(slot)
    data = b"".join(
        fetch((base + i) % WORD).to_bytes(32, "big") for i in range((length + 31) // 32)
    )
    return data[:length].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# Backends


class MockChain(ChainState):
    """File-backed chain state.

    File format: {"<address>": {"code": "0x...",
                                "storage": {"0x<slot>": "0x<word>"}}}.
    Absent slots read as the zero word, matching chain semantics.
    Addresses match in any case, so two addresses equal up to case, like
    two slot keys naming one slot, are a format error.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise MockFormatError("expected an object of addresses")
        self._storage: dict[str, dict[int, int]] = {}
        for address, entry in data.items():
            if not isinstance(entry, dict):
                raise MockFormatError(f"{address}: expected an object")
            # Code is not read, but a malformed field still marks a bad file.
            code = entry.get("code", "0x")
            if not isinstance(code, str) or not _BYTES.fullmatch(code):
                raise MockFormatError(f"{address}.code: expected 0x-hex bytes")
            storage = entry.get("storage", {})
            if not isinstance(storage, dict):
                raise MockFormatError(f"{address}.storage: expected an object")
            slots = {}
            for key, val in storage.items():
                slot = _to_word(key, f"{address}.storage key")
                if slot in slots:
                    raise MockFormatError(f"{address}.storage: key {key!r} repeats slot {slot:#x}")
                slots[slot] = _to_word(val, f"{address}.storage[{key}]")
            if address.lower() in self._storage:
                raise MockFormatError(f"address {address!r} repeats one in another case")
            self._storage[address.lower()] = slots

    @classmethod
    def from_file(cls, path: str) -> "MockChain":
        """The mock in the file at `path`; every format error names the file."""
        try:
            return cls(read_json(path))
        except (ValueError, MockFormatError) as err:
            raise MockFormatError(f"{path}: {err}") from None

    def get_storage(self, address: str, slot: int) -> int:
        return self._storage.get(address.lower(), {}).get(slot, 0)


RPC_TIMEOUT_S = 10.0


class RpcChain(ChainState):
    """JSON-RPC backend (eth_getStorageAt, latest block).

    `post` and `sleep` are injectable and go to `transport.request`, which
    retries transient failures.  Reads are cached per address/slot.
    """

    def __init__(self, url: str, post=post_json, sleep=time.sleep):
        self.url = url
        self._post = post
        self._sleep = sleep
        self._lock = threading.Lock()
        self._storage_cache: dict[tuple[str, int], int] = {}

    def _call(self, method: str, params: list):
        # One request per POST, and no reply's id is read: the id is constant.
        payload = {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
        try:
            body = request(self._post, self.url, payload, RPC_TIMEOUT_S, self._sleep)
        except PermanentError as err:
            raise RpcError(f"{method}: {err}") from None
        except Exception as err:
            raise RpcError(f"{method} failed after {ATTEMPTS} attempts: {err}") from None
        if not isinstance(body, dict) or "result" not in body:
            detail = body.get("error") if isinstance(body, dict) else body
            raise MalformedResponse(f"{method}: {detail!r}")
        return body["result"]

    def get_storage(self, address: str, slot: int) -> int:
        key = (address.lower(), slot)
        with self._lock:
            if key in self._storage_cache:
                return self._storage_cache[key]
        result = self._call("eth_getStorageAt", [address, hex(slot), "latest"])
        value = _to_word(result, "eth_getStorageAt result", MalformedResponse)
        with self._lock:
            self._storage_cache[key] = value
        return value
