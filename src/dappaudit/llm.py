"""Minimal text-in/text-out client for the description-analysis model.

The model sits behind an HTTP endpoint: POST {"prompt": ...} returns
{"text": ...}. The transport is injectable so tests run against canned
responses; the endpoint URL comes from the argument or LLM_ENDPOINT_URL.
The default transport is `urllib.request`, and it opens only `http` and
`https` URLs.
"""

from __future__ import annotations

import json
import os
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from .prompts import PromptBundle

ENDPOINT_ENV = "LLM_ENDPOINT_URL"
TIMEOUT_S = 30.0


class LlmError(Exception):
    pass


def _default_post(url: str, payload: dict, timeout: float) -> dict:
    request = urllib.request.Request(
        url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    if request.type not in ("http", "https"):
        raise ValueError(f"unsupported URL scheme: {url!r}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return json.load(resp)
    except urllib.request.HTTPError as err:
        with err:  # the error holds the open reply
            raise


class LlmClient:
    def __init__(self, url: str | None = None, post=_default_post):
        self.url = url or os.environ.get(ENDPOINT_ENV)
        if not self.url:
            raise LlmError(f"no endpoint configured; set {ENDPOINT_ENV}")
        self._post = post

    def complete(self, prompt: str) -> str:
        try:
            body = self._post(self.url, {"prompt": prompt}, TIMEOUT_S)
        except Exception as exc:
            raise LlmError(f"endpoint request failed: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("text"), str):
            raise LlmError("endpoint response missing text field")
        return body["text"]

    def run_bundle(self, bundle: PromptBundle, jobs: int = 1) -> list[str]:
        """One response per segment, in segment order."""
        prompts = [seg.text() for seg in bundle.segments]
        if jobs <= 1:
            return [self.complete(p) for p in prompts]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(self.complete, prompts))
