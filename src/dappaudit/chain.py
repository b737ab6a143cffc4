"""On-chain contract state: storage words and storage-encoded strings,
served by a live JSON-RPC endpoint or a file-backed mock.

Both backends expose the same two reads and are interchangeable behind
the interface; responses are cached per address/slot for the duration of a
run, so concurrent readers are safe.
"""
from __future__ import annotations

import json
import threading
import time
from typing import Protocol

import requests

from .keccak import keccak_256

WORD = 1 << 256


class ChainState(Protocol):
    """The read interface both backends implement."""

    def get_storage(self, address: str, slot: int) -> int: ...

    def read_string_at(self, address: str, slot: int) -> str: ...


class ChainUnavailable(Exception):
    """The configured backend could not answer; callers may degrade."""


class RpcError(ChainUnavailable):
    pass


class MalformedResponse(ChainUnavailable):
    pass


class MockFormatError(Exception):
    pass


class NotAString(Exception):
    """The storage word matches neither string encoding."""


def _to_word(text: str, context: str) -> int:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise MockFormatError(f"{context}: expected 0x-hex, got {text!r}")
    try:
        value = int(text, 16)
    except ValueError:
        raise MockFormatError(f"{context}: bad hex {text!r}") from None
    if value >= WORD:
        raise MockFormatError(f"{context}: wider than 256 bits")
    return value


# ---------------------------------------------------------------------------
# Storage string codec (Solidity layout)


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
    base = int.from_bytes(keccak_256(slot.to_bytes(32, "big")), "big")
    for i in range(0, len(data), 32):
        chunk = data[i : i + 32].ljust(32, b"\0")
        words[(base + i // 32) % WORD] = int.from_bytes(chunk, "big")
    return words


def decode_string(slot: int, word: int, fetch) -> str:
    """Decode the string rooted at `slot` whose slot word is `word`;
    `fetch(slot)` supplies the data words of the long form."""
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
    base = int.from_bytes(keccak_256(slot.to_bytes(32, "big")), "big")
    data = b""
    for i in range((length + 31) // 32):
        data += fetch((base + i) % WORD).to_bytes(32, "big")
    return data[:length].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# Backends


class MockChain:
    """File-backed chain state.

    File format: {"<address>": {"code": "0x...",
                                "storage": {"0x<slot>": "0x<word>"}}}.
    Absent slots read as the zero word, matching chain semantics.
    """

    def __init__(self, data: dict):
        self._storage: dict[str, dict[int, int]] = {}
        for address, entry in data.items():
            if not isinstance(entry, dict):
                raise MockFormatError(f"{address}: expected an object")
            # Code is not read, but a malformed field still marks a bad file.
            code = entry.get("code", "0x")
            if not isinstance(code, str) or not code.startswith("0x"):
                raise MockFormatError(f"{address}.code: expected 0x-hex")
            try:
                bytes.fromhex(code[2:])
            except ValueError:
                raise MockFormatError(f"{address}.code: bad hex") from None
            slots = {}
            for key, val in entry.get("storage", {}).items():
                slots[_to_word(key, f"{address}.storage key")] = _to_word(
                    val, f"{address}.storage[{key}]"
                )
            self._storage[address.lower()] = slots

    @classmethod
    def from_file(cls, path: str) -> "MockChain":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise MockFormatError(f"{path}: {err}") from None
        return cls(data)

    def get_storage(self, address: str, slot: int) -> int:
        return self._storage.get(address.lower(), {}).get(slot, 0)

    def read_string_at(self, address: str, slot: int) -> str:
        word = self.get_storage(address, slot)
        return decode_string(slot, word, lambda s: self.get_storage(address, s))


def _default_post(url: str, payload: dict, timeout: float) -> dict:
    resp = requests.post(url, json=payload, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


class RpcChain:
    """JSON-RPC backend (eth_getStorageAt, latest block).

    `post` is injectable for tests; failures are retried with exponential
    backoff before RpcError is raised.  Reads are cached per address/slot.
    """

    def __init__(
        self,
        url: str,
        chain_id: int | None = None,
        post=_default_post,
        retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 10.0,
        sleep=time.sleep,
    ):
        self.url = url
        self.chain_id = chain_id
        self._post = post
        self._retries = retries
        self._backoff = backoff
        self._timeout = timeout
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_id = 0
        self._storage_cache: dict[tuple[str, int], int] = {}

    def _call(self, method: str, params: list) -> str:
        with self._lock:
            self._next_id += 1
            rid = self._next_id
        payload = {"jsonrpc": "2.0", "id": rid, "method": method, "params": params}
        last_err: Exception | None = None
        for attempt in range(self._retries):
            try:
                body = self._post(self.url, payload, self._timeout)
            except Exception as err:  # transport failure: retry
                last_err = err
                if attempt + 1 < self._retries:
                    self._sleep(self._backoff * (2**attempt))
                continue
            if not isinstance(body, dict) or "result" not in body:
                detail = body.get("error") if isinstance(body, dict) else body
                raise MalformedResponse(f"{method}: {detail!r}")
            result = body["result"]
            if not isinstance(result, str) or not result.startswith("0x"):
                raise MalformedResponse(f"{method}: non-hex result {result!r}")
            return result
        raise RpcError(f"{method} failed after {self._retries} attempts: {last_err}")

    def get_storage(self, address: str, slot: int) -> int:
        key = (address.lower(), slot)
        with self._lock:
            if key in self._storage_cache:
                return self._storage_cache[key]
        result = self._call("eth_getStorageAt", [address, hex(slot), "latest"])
        try:
            value = int(result, 16)
        except ValueError:
            raise MalformedResponse(f"eth_getStorageAt: {result!r}") from None
        with self._lock:
            self._storage_cache[key] = value
        return value

    def read_string_at(self, address: str, slot: int) -> str:
        word = self.get_storage(address, slot)
        return decode_string(slot, word, lambda s: self.get_storage(address, s))
