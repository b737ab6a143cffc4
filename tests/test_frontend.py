"""Tokenizer, prompt segmentation, endpoint client, and extraction tests."""

from __future__ import annotations

import random
import threading
import warnings
from fractions import Fraction

import pytest

from dappaudit.claims import (
    ConflictingClaims,
    FrontendAttributes,
    LabeledResponse,
    extract_attributes,
    extract_boolean,
    extract_numeric,
)
from dappaudit.llm import LlmClient, LlmError
from dappaudit.pipeline import extract_from_description
from dappaudit.prompts import (
    SEGMENT_TOKEN_LIMIT,
    build_prompts,
    segment_text,
)
from dappaudit.tokens import DEFAULT_TOKENIZER
from dappaudit.transport import ATTEMPTS, post_json
from helpers import local_endpoint

# ---------------------------------------------------------------------------
# Tokenizer


def test_tokens_cover_words_numbers_punctuation():
    toks = DEFAULT_TOKENIZER.tokens("Earn 3% daily, 250M supply!")
    texts = [t.text for t in toks]
    assert texts == ["Earn", "3", "%", "daily", ",", "250M", "supply", "!"]
    tags = {t.text: t.tag for t in toks}
    assert tags["3"] == "num"
    assert tags["%"] == "percent"
    assert tags["250M"] == "num"
    assert tags["Earn"] == "word"
    assert tags[","] == "punct"


def test_token_spans_index_source_text():
    text = "lock for 5 years;\n 2.5% fee"
    for tok in DEFAULT_TOKENIZER.tokens(text):
        assert text.startswith(tok.text, tok.start)


def test_comma_grouped_and_decimal_numbers_stay_single_tokens():
    toks = DEFAULT_TOKENIZER.tokens("157,680,000 seconds and 2.5% of it")
    assert toks[0].text == "157,680,000"
    assert toks[0].tag == "num"
    assert [t.text for t in toks if t.tag == "num"] == ["157,680,000", "2.5"]


def test_count_matches_token_list():
    text = "a b c 1 2 3 %!"
    assert DEFAULT_TOKENIZER.count(text) == len(DEFAULT_TOKENIZER.tokens(text))


# ---------------------------------------------------------------------------
# Segmentation


def _words(n, rng=None):
    rng = rng or random.Random(0)
    vocab = ["stake", "earn", "3", "%", "daily,", "supply", "250M", "lock.", "\n"]
    return " ".join(rng.choice(vocab) for _ in range(n))


def test_short_description_is_one_segment():
    text = _words(100)
    bundle = build_prompts(text, "numeric")
    assert len(bundle.segments) == 1
    assert "".join(seg.description for seg in bundle.segments) == text


def test_long_description_splits_into_three_segments():
    # Roughly 7000 tokens: punctuation in the vocab pushes the count past
    # the word count, so measure with the tokenizer itself.
    text = _words(6000)
    assert 6000 <= DEFAULT_TOKENIZER.count(text) <= 9000
    bundle = build_prompts(text, "numeric")
    assert len(bundle.segments) == 3
    assert "".join(seg.description for seg in bundle.segments) == text


def test_templates_repeat_verbatim_and_never_split():
    text = _words(8000)
    bundle = build_prompts(text, "boolean", attribute="pause_disclosed")
    systems = {seg.system for seg in bundle.segments}
    users = {seg.user for seg in bundle.segments}
    assert len(systems) == 1 and len(users) == 1
    assert "yes or no" in users.pop()


def test_every_segment_fits_token_limit_over_random_texts():
    for seed in range(100):
        rng = random.Random(seed)
        text = _words(rng.randrange(1, 18000), rng)
        if DEFAULT_TOKENIZER.count(text) > 20000:
            text = text[: text.rfind(" ", 0, 60000)]
        kind = rng.choice(("numeric", "boolean"))
        bundle = build_prompts(text, kind)
        assert "".join(seg.description for seg in bundle.segments) == text
        for seg in bundle.segments:
            assert DEFAULT_TOKENIZER.count(seg.text()) <= SEGMENT_TOKEN_LIMIT


def test_segment_text_cuts_on_token_starts():
    text = "one two three four five six"
    pieces = segment_text(text, DEFAULT_TOKENIZER, 2)
    assert pieces == ["one two ", "three four ", "five six"]
    assert "".join(pieces) == text


def test_empty_description_rejected():
    with pytest.raises(ValueError):
        build_prompts("", "numeric")
    with pytest.raises(ValueError):
        build_prompts("hello", "prose")


# ---------------------------------------------------------------------------
# Endpoint client


def _canned_post(replies):
    log = []

    def post(url, payload, timeout):
        log.append(payload["prompt"])
        return {"text": replies(payload["prompt"])}

    return post, log


def test_client_posts_prompt_and_reads_text():
    post, log = _canned_post(lambda p: f"echo:{p[:10]}")
    client = LlmClient(url="http://llm.test/v1", post=post)
    assert client.complete("describe") == "echo:describe"
    assert log == ["describe"]


def test_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT_URL", raising=False)
    with pytest.raises(LlmError):
        LlmClient()
    monkeypatch.setenv("LLM_ENDPOINT_URL", "http://llm.test/v2")
    post, _ = _canned_post(lambda p: "ok")
    assert LlmClient(post=post).url == "http://llm.test/v2"


def test_client_rejects_malformed_bodies():
    client = LlmClient(url="http://llm.test", post=lambda u, p, t: {"answer": "hm"})
    with pytest.raises(LlmError):
        client.complete("x")
    failing = LlmClient(
        url="http://llm.test",
        post=lambda u, p, t: (_ for _ in ()).throw(OSError("down")),
        sleep=lambda s: None,
    )
    with pytest.raises(LlmError):
        failing.complete("x")


def test_default_transport_http_error_is_llm_error():
    naps: list[float] = []
    with local_endpoint(lambda body: (500, b'{"text": "ok"}')) as (url, log):
        with pytest.raises(LlmError, match="HTTP Error 500"):
            LlmClient(url=url, sleep=naps.append).complete("x")
    assert len(log) == ATTEMPTS
    assert naps == [0.5, 1.0]


def test_default_transport_retries_a_503_then_reads_the_text():
    replies = iter([(503, b"busy"), (200, b'{"text": "ok"}')])
    naps: list[float] = []
    with local_endpoint(lambda body: next(replies)) as (url, log):
        assert LlmClient(url=url, sleep=naps.append).complete("x") == "ok"
    assert len(log) == 2
    assert naps == [0.5]


def test_default_transport_refuses_a_reply_repeating_a_key():
    reply = b'{"text": "yes", "text": "no"}'
    with local_endpoint(lambda body: (200, reply)) as (url, log):
        with pytest.raises(LlmError, match="duplicate key 'text'"):
            LlmClient(url=url, sleep=lambda s: None).complete("x")
    assert len(log) == ATTEMPTS


def test_default_transport_gives_up_at_once_on_a_404():
    naps: list[float] = []
    with local_endpoint(lambda body: (404, b"{}")) as (url, log):
        with pytest.raises(LlmError, match="HTTP 404"):
            LlmClient(url=url, sleep=naps.append).complete("x")
    assert len(log) == 1
    assert naps == []


def test_default_transport_opens_no_file_url(tmp_path):
    reply = tmp_path / "reply.json"
    reply.write_text('{"text": "ok"}')
    naps: list[float] = []
    sent: list[str] = []

    def post(url, payload, timeout):
        sent.append(url)
        return post_json(url, payload, timeout)

    client = LlmClient(url=reply.as_uri(), post=post, sleep=naps.append)
    with pytest.raises(LlmError, match="unsupported URL scheme"):
        client.complete("x")
    assert sent == [reply.as_uri()]
    assert naps == []


def test_one_pool_answers_match_sequential_ones():
    text = _words(8000)
    segments = len(build_prompts(text, "numeric").segments)
    assert segments > 1
    attrs, sent = [], []
    for jobs in (1, 4):
        post, log = _canned_post(lambda p: f"a supply of {len(p)} tokens, yes")
        client = LlmClient(url="http://llm.test", post=post)
        # Segments answer different supplies, so the order of the answers
        # decides which one is kept.
        with pytest.warns(ConflictingClaims):
            attrs.append(extract_from_description(text, client, jobs=jobs))
        sent.append(sorted(log))
    assert attrs[0] == attrs[1]
    assert sent[0] == sent[1]
    assert len(sent[0]) == 8 * segments


def test_one_pool_overlaps_the_prompts_of_a_short_description():
    # Two requests must be in flight at once for the barrier to open; the
    # single-segment description gives each attribute one prompt, so they
    # overlap only if the pool spans attributes.
    barrier = threading.Barrier(2, timeout=5)

    def post(url, payload, timeout):
        barrier.wait()
        return {"text": "Answer: no."}

    client = LlmClient(url="http://llm.test", post=post, sleep=lambda s: None)
    attrs = extract_from_description("a fixed supply of 1,000 tokens", client, jobs=2)
    assert attrs == FrontendAttributes(nft_permanence_claimed=False)


# ---------------------------------------------------------------------------
# Numeric extraction


def test_daily_profit_percent():
    text = "Stakers obtain a daily profit of 3% for the life of the pool."
    assert extract_numeric(text, "reward_rate_percent") == Fraction(3)


def test_total_supply_magnitude_suffix():
    text = "The site claims a total supply of 250M tokens."
    assert extract_numeric(text, "total_supply") == 250_000_000


def test_five_year_lock_converts_to_seconds():
    text = "Funds sit behind a 5-year liquidity lock from day one."
    assert extract_numeric(text, "lock_time_seconds") == 157_680_000


def test_decimal_rate_is_exact():
    text = "A transaction fee of 2.5% applies to every transfer."
    assert extract_numeric(text, "fee_rate_percent") == Fraction(5, 2)


def test_rate_requires_percent_mark():
    assert extract_numeric("rewards of 3 coins per block", "reward_rate_percent") is None


def test_nearest_percent_number_wins():
    text = "reward is 10% now, which replaced the old 5% plan"
    assert extract_numeric(text, "reward_rate_percent") == Fraction(10)


def test_supply_ignores_percentages_and_durations():
    text = "total expected supply after 3 years: 100%"
    assert extract_numeric(text, "total_supply") is None


def test_plain_supply_number_with_commas():
    text = "a fixed supply of 1,000,000 tokens"
    assert extract_numeric(text, "total_supply") == 1_000_000


def test_lock_in_plain_seconds():
    text = "liquidity locked for 157,680,000 seconds"
    assert extract_numeric(text, "lock_time_seconds") == 157_680_000


def test_out_of_range_rate_dropped():
    assert extract_numeric("a profit of 90000%", "reward_rate_percent") is None


def test_no_anchor_means_no_claim():
    assert extract_numeric("the token launched in 2021 at 3%", "fee_rate_percent") is None


def test_extraction_is_deterministic_and_idempotent():
    text = "earn 7% daily, 1B supply, 2-year lock, 1% fee"
    for attr, expected in (
        ("reward_rate_percent", Fraction(7)),
        ("total_supply", 10**9),
        ("lock_time_seconds", 2 * 365 * 86400),
        ("fee_rate_percent", Fraction(1)),
    ):
        assert extract_numeric(text, attr) == extract_numeric(text, attr) == expected


def test_numbers_never_invented():
    rng = random.Random(31)
    vocab = ["reward", "fee", "supply", "lock", "great", "daily", "the", "of", "!"]
    for _ in range(200):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 30)))
        for attr in ("reward_rate_percent", "fee_rate_percent", "total_supply"):
            assert extract_numeric(text, attr) is None


def test_extracted_numbers_are_substring_locatable():
    rng = random.Random(77)
    for _ in range(100):
        rate = rng.randrange(1, 1000)
        text = f"users {rng.choice(['earn', 'gain'])} a reward of {rate}% every day"
        got = extract_numeric(text, "reward_rate_percent")
        assert got == Fraction(rate)
        assert str(rate) in text


# ---------------------------------------------------------------------------
# Boolean extraction


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Answer: no.", False),
        ("Answer: yes, the team can pause trading.", True),
        ("no", False),
        ("Yes. The fee is stated.", True),
        ("It is unclear from the description.", None),
        ("", None),
    ],
)
def test_leading_yes_no(text, expected):
    assert extract_boolean(text) is expected


# ---------------------------------------------------------------------------
# Attribute assembly


def test_first_hit_wins_across_segments():
    responses = [
        LabeledResponse("reward_rate_percent", "the description promises 3% daily profit"),
        LabeledResponse("reward_rate_percent", "no reward information here"),
        LabeledResponse("pause_disclosed", "Answer: no."),
        LabeledResponse("total_supply", "a supply of 250M"),
    ]
    attrs = extract_attributes(responses)
    assert attrs.reward_rate_percent == Fraction(3)
    assert attrs.total_supply == 250_000_000
    assert attrs.pause_disclosed is False
    assert attrs.fund_flow_disclosed is False
    assert attrs.nft_permanence_claimed is None


def test_conflicting_numeric_warns_and_keeps_first():
    responses = [
        LabeledResponse("fee_rate_percent", "a fee of 3% applies"),
        LabeledResponse("fee_rate_percent", "a fee of 5% applies"),
    ]
    with pytest.warns(ConflictingClaims):
        attrs = extract_attributes(responses)
    assert attrs.fee_rate_percent == Fraction(3)


def test_agreeing_segments_do_not_warn():
    responses = [
        LabeledResponse("fee_rate_percent", "a fee of 3% applies"),
        LabeledResponse("fee_rate_percent", "again, the fee is 3%"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        attrs = extract_attributes(responses)
    assert attrs.fee_rate_percent == Fraction(3)


def test_stated_fee_rate_implies_fee_claimed():
    attrs = extract_attributes(
        [LabeledResponse("fee_rate_percent", "a 2% tax on every transfer")]
    )
    assert attrs.fee_claimed is True
    assert attrs.fee_rate_percent == Fraction(2)


def test_explicit_fee_claim_answer_beats_default():
    attrs = extract_attributes([LabeledResponse("fee_claimed", "Answer: yes.")])
    assert attrs.fee_claimed is True
    assert attrs.fee_rate_percent is None


def test_boolean_true_first_hit_sticks():
    responses = [
        LabeledResponse("nft_permanence_claimed", "Answer: yes, stored on IPFS."),
        LabeledResponse("nft_permanence_claimed", "Answer: no."),
    ]
    assert extract_attributes(responses).nft_permanence_claimed is True


def test_unknown_attribute_rejected():
    with pytest.raises(ValueError):
        extract_attributes([LabeledResponse("velocity", "42")])


# ---------------------------------------------------------------------------
# Attributes record


def test_attributes_json_round_trip():
    doc = {
        "reward_rate_percent": 3.0,
        "fee_rate_percent": None,
        "fee_claimed": False,
        "lock_time_seconds": 157680000,
        "total_supply": 250000000,
        "pause_disclosed": False,
        "fund_flow_disclosed": False,
        "nft_permanence_claimed": True,
    }
    attrs = FrontendAttributes.from_json(doc)
    assert attrs.reward_rate_percent == Fraction(3)
    assert attrs.to_json() == {**doc, "reward_rate_percent": 3}


def test_attributes_json_decimal_rate_survives():
    attrs = FrontendAttributes.from_json({"fee_rate_percent": 2.5})
    assert attrs.fee_rate_percent == Fraction(5, 2)
    assert attrs.to_json()["fee_rate_percent"] == 2.5


def test_attributes_validation():
    with pytest.raises(ValueError):
        FrontendAttributes(reward_rate_percent=Fraction(2000))
    with pytest.raises(ValueError):
        FrontendAttributes(lock_time_seconds=-5)
    with pytest.raises(ValueError):
        FrontendAttributes.from_json({"velocity": 3})
    with pytest.raises(ValueError):
        FrontendAttributes.from_json([])


@pytest.mark.parametrize(
    "key, value",
    [
        ("lock_time_seconds", "100"),
        ("lock_time_seconds", 100.0),
        ("total_supply", 1.5),
        ("total_supply", True),
        ("fee_rate_percent", "3"),
        ("fee_rate_percent", False),
        ("reward_rate_percent", [3]),
        ("reward_rate_percent", float("inf")),
        ("fee_claimed", "false"),
        ("fee_claimed", 0),
        ("pause_disclosed", 1),
        ("fund_flow_disclosed", "no"),
        ("nft_permanence_claimed", {}),
    ],
)
def test_attributes_json_rejects_mistyped_values(key, value):
    with pytest.raises(ValueError, match=key):
        FrontendAttributes.from_json({key: value})


def test_attributes_json_null_means_unstated():
    keys = ("fee_rate_percent", "total_supply", "fee_claimed", "nft_permanence_claimed")
    assert FrontendAttributes.from_json(dict.fromkeys(keys)) == FrontendAttributes()


def test_end_to_end_bundle_to_attributes():
    description = (
        "SuperYield lets stakers obtain a daily profit of 3% forever. "
        "The protocol claims a total supply of 250M tokens and a 5-year "
        "liquidity lock audited by nobody."
    )
    canned = {
        "reward_rate_percent": "The description promises a daily profit of 3%.",
        "total_supply": "It claims a total supply of 250M tokens.",
        "lock_time_seconds": "Liquidity sits behind a 5-year lock.",
        "pause_disclosed": "Answer: no. Nothing mentions pausing.",
    }

    responses = []
    for attr, reply in canned.items():
        kind = "boolean" if attr == "pause_disclosed" else "numeric"
        bundle = build_prompts(description, kind, attribute=attr)
        post, _ = _canned_post(lambda p, reply=reply: reply)
        client = LlmClient(url="http://llm.test", post=post)
        for seg in bundle.segments:
            responses.append(LabeledResponse(attr, client.complete(seg.text())))

    attrs = extract_attributes(responses)
    assert attrs.reward_rate_percent == Fraction(3)
    assert attrs.total_supply == 250_000_000
    assert attrs.lock_time_seconds == 157_680_000
    assert attrs.pause_disclosed is False
    assert attrs.fee_claimed is False
