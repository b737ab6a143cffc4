"""JSON over HTTP for the chain node and the description endpoint: one POST
and one retry policy.

`post_json` opens only `http` and `https` URLs and raises PermanentError
for what no retry mends; `request` retries every other failure with
exponential backoff.
"""
from __future__ import annotations

import json

ATTEMPTS = 3
BACKOFF_S = 0.5


class PermanentError(Exception):
    """An unsupported URL scheme, or an HTTP 4xx other than 408 or 429."""


def post_json(url: str, payload: dict, timeout: float):
    """POST `payload` as JSON and decode the reply."""
    import urllib.request  # here, not at import: it pulls in http.client and ssl
    req = urllib.request.Request(
        url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    if req.type not in ("http", "https"):
        raise PermanentError(f"unsupported URL scheme: {url!r}")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.load(resp)
    except urllib.request.HTTPError as err:
        with err:  # the error holds the open reply
            if 400 <= err.code < 500 and err.code not in (408, 429):
                raise PermanentError(f"HTTP {err.code} from {url}") from None
            raise


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
