"""Chain-state backends and the storage string codec."""
from __future__ import annotations

import json
import random
import re
import string
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dappaudit import chain
from dappaudit.chain import (
    MAX_STRING_BYTES,
    ChainUnavailable,
    MalformedResponse,
    MockChain,
    MockFormatError,
    NotAString,
    RpcChain,
    RpcError,
    StringTooLong,
    decode_string,
    encode_string_at,
)
from dappaudit.keccak import keccak_256
from dappaudit.signatures import load_signatures
from dappaudit.transport import ATTEMPTS, MAX_REPLY_BYTES, post_json
from helpers import ADDR, local_endpoint, padded


# ---------------------------------------------------------------------------
# Keccak anchors (everything downstream trusts these digests)


def test_keccak_known_vectors():
    assert (
        keccak_256(b"").hex()
        == "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    )
    # Lengths around a word and around the 136-byte rate, so the padding
    # edge cases and a second and eighth absorbed block are all pinned.
    message = bytes(range(256)) * 4
    digests = {
        31: "3e50547cf72e8583ee91462f9d99fe624f53282f78e1a5ec2347b1d0123d0d9b",
        32: "8ae1aa597fa146ebd3aa2ceddf360668dea5e526567e92b0321816a4e895bd2d",
        135: "cbdfd9dee5faad3818d6b06f95a219fd290b0e1706f6a82e5a595b9ce9faca62",
        136: "7ce759f1ab7f9ce437719970c26b0a66ff11fe3e38e17df89cf5d29c7d7f807e",
        137: "ac73d4fae68b8453f764007c1a20ce95994187861f0c3227a3a8e99a73a3b1db",
        272: "fdf2ec49e749960d3c8521a0219af8d03e30e2b3bf19bd16150ee0eaf133d66e",
        1000: "aca79e4146e30eb1c733f6d6060d72471c36ea4e01ebf45d7f4916249c2bbd82",
    }
    for length, digest in digests.items():
        assert keccak_256(message[:length]).hex() == digest, length


def test_every_signature_hashes_to_its_selector():
    table = load_signatures()
    assert table["0xa9059cbb"] == "transfer(address,uint256)"
    wrong = {
        sel: sig
        for sel, sig in table.items()
        if "0x" + keccak_256(sig.encode())[:4].hex() != sel
    }
    assert wrong == {}


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
        {ADDR: {"storage": ["0x1"]}},
        [],
        # only `0x` and hex digits make a word
        {ADDR: {"storage": {"0x1_0": "0x1"}}},
        {ADDR: {"storage": {"0x1": "0x2a\n"}}},
        {ADDR: {"storage": {"0x1": " 0x2a"}}},
        {ADDR: {"storage": {"0x1": "0X2a"}}},
        {ADDR: {"storage": {"0x1": "0x"}}},
        {ADDR: {"storage": {"0x1": "0x+2a"}}},
        {ADDR: {"storage": {"0x\u0661": "0x1"}}},
        {ADDR: {"code": "0x0a 0b"}},
        {ADDR: {"code": "0x0a\n"}},
        {ADDR: {"code": "0x0"}},
    ],
)
def test_mock_rejects_malformed_entries(data):
    with pytest.raises(MockFormatError):
        MockChain(data)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{", "Expecting property name"),
        (b'{"\xff": {}}', "can't decode byte 0xff"),
        (b"\xfe\xff", "can't decode byte"),
    ],
)
def test_mock_from_file_rejects_bad_files(tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(MockFormatError, match=f"^{re.escape(str(bad))}: .*{message}"):
        MockChain.from_file(str(bad))


def test_mock_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({ADDR: {"storage": {"0x3": "0x2a"}}}))
    assert MockChain.from_file(str(path)).get_storage(ADDR, 3) == 42


# A duplicate would be silently overwritten by the later value; each one
# names the repeated key instead.
@pytest.mark.parametrize(
    "text, key",
    [
        (f'{{"{ADDR}": {{"storage": {{"0x1": "0x5", "0x1": "0x9"}}}}}}', "'0x1'"),
        (f'{{"{ADDR}": {{"storage": {{"0x1": "0x5", "0x01": "0x9"}}}}}}', "'0x01'"),
        (f'{{"{ADDR}": {{}}, "{ADDR.upper().replace("0X", "0x")}": {{}}}}', ADDR[-6:].upper()),
        (f'{{"{ADDR}": {{}}, "{ADDR}": {{}}}}', f"'{ADDR}'"),
    ],
    ids=["same slot key", "same slot", "address in another case", "same address"],
)
def test_mock_from_file_rejects_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "chain.json"
    path.write_text(text)
    with pytest.raises(MockFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(key)}"):
        MockChain.from_file(str(path))


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


def test_long_string_hashes_its_slot_once(monkeypatch):
    text = "https://api.example/nft/metadata/" * 3
    mock = _mock_with_words(encode_string_at(11, text))
    assert mock.read_string_at(ADDR, 11) == text
    calls = []

    def counting(data: bytes) -> bytes:
        calls.append(data)
        return keccak_256(data)

    monkeypatch.setattr(chain, "keccak_256", counting)
    assert mock.read_string_at(ADDR, 11) == text
    assert calls == []


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


def test_string_of_exactly_the_cap_round_trips():
    text = "x" * MAX_STRING_BYTES
    assert _mock_with_words(encode_string_at(5, text)).read_string_at(ADDR, 5) == text
    longer = _mock_with_words(encode_string_at(5, text + "x"))
    with pytest.raises(StringTooLong):
        longer.read_string_at(ADDR, 5)


def test_odd_word_claiming_a_huge_string_is_refused_unread():
    # The all-ones word claims (2**256 - 2) / 2 bytes of long-form data.
    chain = MockChain({"0xaa": {"storage": {"0x9": "0x" + "f" * 64}}})
    start = time.perf_counter()
    with pytest.raises(StringTooLong) as info:
        chain.read_string_at("0xaa", 9)
    assert time.perf_counter() - start < 1.0
    assert isinstance(info.value, ChainUnavailable)
    # Over RPC only the slot word itself is requested.
    log: list = []
    rpc = RpcChain("http://node.invalid", post=_serving_post({9: (1 << 256) - 1}, log))
    with pytest.raises(StringTooLong):
        rpc.read_string_at(ADDR, 9)
    assert len(log) == 1


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


@pytest.mark.parametrize(
    "result, message",
    [
        *[
            (r, "expected 0x-hex")
            for r in ["0x1_0", "0x2a\n", " 0x2a", "0X2a", "0x", "0x-1", "0x\u0661", 42, None]
        ],
        ("0x1" + "0" * 64, "wider than 256 bits"),
    ],
)
def test_rpc_rejects_results_that_are_not_storage_words(result, message):
    def reply(url, payload, timeout):
        return {"jsonrpc": "2.0", "id": payload["id"], "result": result}

    chain = RpcChain("http://node.invalid", post=reply)
    with pytest.raises(MalformedResponse, match=f"^eth_getStorageAt result: {message}"):
        chain.get_storage(ADDR, 0)
    with pytest.raises(MalformedResponse):
        chain.read_string_at(ADDR, 1)


# ---------------------------------------------------------------------------
# RPC backend over its real transport, against a loopback server


def test_rpc_default_transport_reads_word():
    reply = json.dumps({"jsonrpc": "2.0", "id": 1, "result": "0x2a"}).encode()
    with local_endpoint(lambda body: (200, reply)) as (url, log):
        assert RpcChain(url).get_storage(ADDR, 1) == 42
    ((content_type, body),) = log
    assert content_type == "application/json"
    assert json.loads(body) == {
        "jsonrpc": "2.0",
        "id": 1,
        "method": "eth_getStorageAt",
        "params": [ADDR, "0x1", "latest"],
    }


@pytest.mark.parametrize(
    "status, reply",
    [(500, b'{"result": "0x05"}'), (200, b"not json"), (408, b"{}"), (429, b"{}")],
)
def test_rpc_default_transport_retries_then_fails(status, reply):
    naps: list[float] = []
    with local_endpoint(lambda body: (status, reply)) as (url, log):
        with pytest.raises(RpcError):
            RpcChain(url, sleep=naps.append).get_storage(ADDR, 0)
    assert len(log) == ATTEMPTS
    assert naps == [0.5, 1.0]


def test_rpc_reply_repeating_a_key_fails_after_retries():
    reply = b'{"jsonrpc": "2.0", "id": 1, "result": "0x05", "result": "0x09"}'
    with local_endpoint(lambda body: (200, reply)) as (url, log):
        chain = RpcChain(url, sleep=lambda s: None)
        with pytest.raises(RpcError, match="failed after 3 attempts: duplicate key 'result'"):
            chain.get_storage(ADDR, 0)
    assert len(log) == ATTEMPTS


def test_rpc_reply_over_the_size_cap_fails_after_retries():
    word = b'{"jsonrpc": "2.0", "id": 1, "result": "0x2a"}'
    with local_endpoint(lambda body: (200, padded(word, MAX_REPLY_BYTES))) as (url, log):
        assert RpcChain(url).get_storage(ADDR, 0) == 42
    naps: list[float] = []
    with local_endpoint(lambda body: (200, padded(word, MAX_REPLY_BYTES + 1))) as (url, log):
        chain = RpcChain(url, sleep=naps.append)
        with pytest.raises(RpcError, match="failed after 3 attempts: reply longer than 1048576"):
            chain.get_storage(ADDR, 0)
    assert len(log) == ATTEMPTS
    assert naps == [0.5, 1.0]



def test_post_json_gives_up_on_a_dripping_reply():
    # A valid 60-byte reply sent 4 bytes every 0.2 s takes 3 s in all; no
    # socket read waits the whole 0.5 s timeout, so only the request's one
    # deadline ends the read.
    reply = padded(b'{"jsonrpc": "2.0", "id": 1, "result": "0x2a"}', 60)

    class Dripping(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            try:
                for i in range(0, len(reply), 4):
                    self.wfile.write(reply[i : i + 4])
                    self.wfile.flush()
                    time.sleep(0.2)
            except OSError:
                pass  # the client gave up

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Dripping)
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="within 0.5 s"):
            post_json(f"http://127.0.0.1:{server.server_address[1]}", {}, timeout=0.5)
        assert time.monotonic() - start < 1.5
    finally:
        server.shutdown()
        server.server_close()

def test_rpc_default_transport_opens_no_file_url(tmp_path):
    reply = tmp_path / "reply.json"
    reply.write_text('{"result": "0x05"}')
    chain = RpcChain(reply.as_uri(), sleep=lambda s: None)
    with pytest.raises(RpcError, match="unsupported URL scheme"):
        chain.get_storage(ADDR, 0)


@pytest.mark.parametrize("status", [400, 401, 404, 405])
def test_rpc_default_transport_gives_up_at_once_on_client_errors(status):
    naps: list[float] = []
    with local_endpoint(lambda body: (status, b"{}")) as (url, log):
        with pytest.raises(RpcError, match=f"HTTP {status}"):
            RpcChain(url, sleep=naps.append).get_storage(ADDR, 0)
    assert len(log) == 1
    assert naps == []


def test_rpc_default_transport_gives_up_at_once_on_a_file_url(tmp_path):
    reply = tmp_path / "reply.json"
    reply.write_text('{"result": "0x05"}')
    naps: list[float] = []
    sent: list[str] = []

    def post(url, payload, timeout):
        sent.append(url)
        return post_json(url, payload, timeout)

    chain = RpcChain(reply.as_uri(), post=post, sleep=naps.append)
    with pytest.raises(RpcError, match="unsupported URL scheme"):
        chain.get_storage(ADDR, 0)
    assert sent == [reply.as_uri()]
    assert naps == []


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
