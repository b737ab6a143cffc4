"""Chain-state backends and the storage string codec."""
from __future__ import annotations

import json
import random
import string

import pytest

from dappaudit.chain import (
    ChainUnavailable,
    MalformedResponse,
    MockChain,
    MockFormatError,
    NotAString,
    RpcChain,
    RpcError,
    decode_string,
    encode_string_at,
)
from dappaudit.keccak import keccak_256, selector_of

ADDR = "0x00000000000000000000000000000000000000aa"


# ---------------------------------------------------------------------------
# Keccak anchors (everything downstream trusts these digests)


def test_keccak_known_vectors():
    assert (
        keccak_256(b"").hex()
        == "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    )
    assert selector_of("transfer(address,uint256)") == "0xa9059cbb"
    assert selector_of("transferFrom(address,address,uint256)") == "0x23b872dd"


# ---------------------------------------------------------------------------
# Mock backend


def test_mock_storage_reads_and_zero_default():
    chain = MockChain({ADDR: {"storage": {"0x1": "0x05"}}})
    assert chain.get_storage(ADDR, 1) == 5
    assert chain.get_storage(ADDR, 2) == 0
    assert chain.get_storage("0x" + "99" * 20, 1) == 0


def test_mock_address_case_insensitive():
    chain = MockChain({ADDR.upper().replace("0X", "0x"): {"storage": {"0x1": "0x2"}}})
    assert chain.get_storage(ADDR, 1) == 2


@pytest.mark.parametrize(
    "data",
    [
        {ADDR: {"code": "0xzz"}},
        {ADDR: {"code": 12}},
        {ADDR: {"storage": {"1": "0x2"}}},
        {ADDR: {"storage": {"0x1": "nope"}}},
        {ADDR: {"storage": {"0x1": "0x" + "ff" * 33}}},
        {ADDR: "not an object"},
    ],
)
def test_mock_rejects_malformed_entries(data):
    with pytest.raises(MockFormatError):
        MockChain(data)


def test_mock_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({ADDR: {"storage": {"0x3": "0x2a"}}}))
    assert MockChain.from_file(str(path)).get_storage(ADDR, 3) == 42
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(MockFormatError):
        MockChain.from_file(str(bad))


# ---------------------------------------------------------------------------
# Storage string codec


def _mock_with_words(words: dict[int, int]) -> MockChain:
    return MockChain(
        {ADDR: {"storage": {hex(slot): hex(word) for slot, word in words.items()}}}
    )


def test_short_string_round_trip():
    text = "ipfs://QmYwAPJzv5CZsnA"
    words = encode_string_at(7, text)
    assert list(words) == [7]
    assert _mock_with_words(words).read_string_at(ADDR, 7) == text


def test_long_string_round_trip_uses_hashed_location():
    text = "https://api.example/nft/metadata/"
    assert len(text.encode()) > 32
    words = encode_string_at(7, text)
    assert words[7] == 2 * len(text.encode()) + 1
    base = int.from_bytes(keccak_256((7).to_bytes(32, "big")), "big")
    assert base in words and base + 1 in words
    assert _mock_with_words(words).read_string_at(ADDR, 7) == text


def test_zero_word_is_empty_string():
    assert _mock_with_words({}).read_string_at(ADDR, 9) == ""


def test_not_a_string_rejections():
    def no_fetch(_slot):
        raise AssertionError("short form must not fetch")

    # Long-form marker encoding a short length.
    with pytest.raises(NotAString):
        decode_string(1, 1, no_fetch)
    # Even low byte but garbage in the padding region.
    word = int.from_bytes(b"ab".ljust(31, b"x") + b"\x04", "big")
    with pytest.raises(NotAString):
        decode_string(1, word, no_fetch)
    # Length byte beyond the short-form maximum.
    with pytest.raises(NotAString):
        decode_string(1, 2 * 40, no_fetch)


def test_round_trip_identity_on_random_strings():
    rng = random.Random(2024)
    alphabet = string.ascii_letters + string.digits + ":/._-"
    for _ in range(200):
        n = rng.randint(0, 96)
        text = "".join(rng.choice(alphabet) for _ in range(n))
        slot = rng.randint(0, 50)
        chain = _mock_with_words(encode_string_at(slot, text))
        assert chain.read_string_at(ADDR, slot) == text


# ---------------------------------------------------------------------------
# RPC backend (stubbed transport)


def _serving_post(storage: dict[int, int], log: list | None = None):
    def post(url, payload, timeout):
        if log is not None:
            log.append(payload)
        method = payload["method"]
        if method == "eth_getStorageAt":
            slot = int(payload["params"][1], 16)
            return {"jsonrpc": "2.0", "id": payload["id"], "result": hex(storage.get(slot, 0))}
        raise AssertionError(method)

    return post


def test_rpc_storage_caching():
    log: list = []
    chain = RpcChain("http://node.invalid", post=_serving_post({1: 5}, log))
    assert chain.get_storage(ADDR, 1) == 5
    assert chain.get_storage(ADDR, 1) == 5
    assert chain.get_storage(ADDR, 2) == 0
    # One request per distinct read; repeats served from the cache.
    assert len(log) == 2


def test_rpc_retries_with_exponential_backoff():
    calls = {"n": 0}
    naps: list[float] = []

    def flaky(url, payload, timeout):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionError("boom")
        return {"jsonrpc": "2.0", "id": payload["id"], "result": "0x2a"}

    chain = RpcChain("http://node.invalid", post=flaky, sleep=naps.append)
    assert chain.get_storage(ADDR, 0) == 42
    assert naps == [0.5, 1.0]


def test_rpc_error_after_retry_budget():
    naps: list[float] = []

    def dead(url, payload, timeout):
        raise ConnectionError("down")

    chain = RpcChain("http://node.invalid", post=dead, sleep=naps.append)
    with pytest.raises(RpcError):
        chain.get_storage(ADDR, 0)
    assert len(naps) == 2
    assert isinstance(RpcError("x"), ChainUnavailable)


def test_rpc_malformed_responses():
    def error_body(url, payload, timeout):
        return {"jsonrpc": "2.0", "id": payload["id"], "error": {"code": -32000}}

    with pytest.raises(MalformedResponse):
        RpcChain("http://node.invalid", post=error_body).get_storage(ADDR, 0)

    def non_hex(url, payload, timeout):
        return {"jsonrpc": "2.0", "id": payload["id"], "result": "five"}

    with pytest.raises(MalformedResponse):
        RpcChain("http://node.invalid", post=non_hex).get_storage(ADDR, 0)
    assert isinstance(MalformedResponse("x"), ChainUnavailable)


def test_backends_are_interchangeable():
    text = "https://api.example/nft/metadata/v2/"
    words = encode_string_at(4, text)
    words[1] = 5
    mock = _mock_with_words(words)
    rpc = RpcChain("http://node.invalid", post=_serving_post(words))
    for backend in (mock, rpc):
        assert backend.get_storage(ADDR, 1) == 5
        assert backend.get_storage(ADDR, 99) == 0
        assert backend.read_string_at(ADDR, 4) == text
