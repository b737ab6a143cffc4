"""Minimal text-in/text-out client for the description-analysis model.

The model sits behind an HTTP endpoint: POST {"prompt": ...} returns
{"text": ...}. The transport is injectable so tests run against canned
responses; the endpoint URL comes from the argument or LLM_ENDPOINT_URL.
Requests go through `transport`, which opens only `http` and `https` URLs
and retries transient failures. The client sends one prompt per call;
the pipeline decides how many are in flight.
"""

from __future__ import annotations

import os
import time

from .transport import post_json, request

ENDPOINT_ENV = "LLM_ENDPOINT_URL"
TIMEOUT_S = 30.0


class LlmError(Exception):
    pass


class LlmClient:
    def __init__(self, url: str | None = None, post=post_json, sleep=time.sleep):
        self.url = url or os.environ.get(ENDPOINT_ENV)
        if not self.url:
            raise LlmError(f"no endpoint configured; set {ENDPOINT_ENV}")
        self._post = post
        self._sleep = sleep

    def complete(self, prompt: str) -> str:
        try:
            body = request(self._post, self.url, {"prompt": prompt}, TIMEOUT_S, self._sleep)
        except Exception as exc:
            raise LlmError(f"endpoint request failed: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("text"), str):
            raise LlmError("endpoint response missing text field")
        return body["text"]
