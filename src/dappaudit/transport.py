"""JSON in and out: the one reader of input files, and, over HTTP for the
chain node and the description endpoint, one POST and one retry policy.

`read_json` and `post_json` refuse a key repeated within an object, as
they refuse text that is not JSON.  `post_json` opens only `http` and
`https` URLs, reads at most MAX_REPLY_BYTES of a reply and refuses a
longer one as it refuses one that is not JSON, reads the reply against
one deadline per request, and raises PermanentError for what no retry
mends; `request` retries every other failure with exponential backoff.
"""
from __future__ import annotations

import json
import time

ATTEMPTS = 3
BACKOFF_S = 0.5
# Ample for a storage word or a completion.
MAX_REPLY_BYTES = 1 << 20


class PermanentError(Exception):
    """An unsupported URL scheme, or an HTTP 4xx other than 408 or 429."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The pairs of one JSON object as a dict; a repeated key raises."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set[str] = set()
        repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {repeated!r}")
    return out


# One decoder for every file and reply: `json.load` with a hook builds a new
# one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_json(path) -> object:
    """The JSON document in the UTF-8 file at `path`.  Text that is not
    JSON, and a key repeated within one object, raise ValueError."""
    with open(path, encoding="utf-8") as fh:
        return _DECODER.decode(fh.read())


def post_json(url: str, payload: dict, timeout: float):
    """POST `payload` as JSON and decode the UTF-8 reply.  A reply that is
    not JSON, repeats a key within one object, or is longer than
    MAX_REPLY_BYTES raises ValueError.  The body is read in chunks against
    one deadline, `timeout` seconds after the request starts; a chunk that
    arrives past it raises TimeoutError.  Each socket read is also bounded
    by `timeout`, so an attempt whose headers arrive in time ends within
    `timeout` plus one socket read."""
    import urllib.request  # here, not at import: it pulls in http.client and ssl
    deadline = time.monotonic() + timeout
    req = urllib.request.Request(
        url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    if req.type not in ("http", "https"):
        raise PermanentError(f"unsupported URL scheme: {url!r}")
    data = bytearray()
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            # One byte past the cap is enough to refuse the reply.
            while chunk := resp.read1(MAX_REPLY_BYTES + 1 - len(data)):
                data += chunk
                if time.monotonic() > deadline:
                    raise TimeoutError(f"no whole reply from {url} within {timeout} s")
    except urllib.request.HTTPError as err:
        with err:  # the error holds the open reply
            if 400 <= err.code < 500 and err.code not in (408, 429):
                raise PermanentError(f"HTTP {err.code} from {url}") from None
            raise
    if len(data) > MAX_REPLY_BYTES:
        raise ValueError(f"reply longer than {MAX_REPLY_BYTES} bytes")
    return _DECODER.decode(data.decode("utf-8"))


def request(post, url: str, payload: dict, timeout: float, sleep):
    """`post(url, payload, timeout)`, tried up to ATTEMPTS times with
    `sleep(BACKOFF_S * 2**attempt)` between tries.  A PermanentError is
    raised at once; the failure of the last try is raised unchanged."""
    for attempt in range(ATTEMPTS - 1):
        try:
            return post(url, payload, timeout)
        except PermanentError:
            raise
        except Exception:
            sleep(BACKOFF_S * 2**attempt)
    return post(url, payload, timeout)
