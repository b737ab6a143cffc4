"""Inconsistency rule tests: one section per rule, then report shape,
monotonicity, and determinism properties."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dappaudit.chain import ChainUnavailable, MockChain, RpcChain, encode_string_at
from dappaudit.claims import FrontendAttributes
from dappaudit.detector import InconsistencyReport, detect_all, resolve_rate
from dappaudit.executor import execute_function
from dappaudit.facts import build_facts
from dappaudit.graphs import build_graphs
from dappaudit.parser import parse_ir
from dappaudit.pipeline import RunConfig, audit_contract
from dappaudit.semantics import summarize_semantics

from helpers import ADDR

FIXTURES = Path(__file__).parent / "fixtures"


def _semantics(text):
    program = parse_ir(text)
    db = build_facts(program)
    ftg, sdg, plan = build_graphs(db)
    executions = [execute_function(program, sel, plan) for sel in plan.selectors()]
    return summarize_semantics(executions, db, ftg, sdg)


def _detect(text, attrs, chain=None, **kw):
    return detect_all(attrs, _semantics(text), chain, **kw)


def _types(report):
    return [f.type for f in report.findings]


def _down_chain():
    def refuse(url, payload, timeout):
        raise OSError("no route")

    return RpcChain("http://chain.test", post=refuse, sleep=lambda s: None)


def _string_storage(slot, text):
    return {hex(k): hex(v) for k, v in encode_string_at(slot, text).items()}


# ---------------------------------------------------------------------------
# UR: promised reward rate vs dynamic payout amount


REWARD_FROM_BALANCE = f"""contract {ADDR}
function claim public sig 0x0a0b0c0d params () {{
  block C0:
    0: va = CONST {ADDR}
    1: vb = BALANCE va
    2: v2 = DIV vb 0xa
    3: vc = CALLER
    4: CALL vc v2
    stop
}}
"""

STORED_RATE_PAYOUT = f"""contract {ADDR}
function payout public sig 0x00000001 params () {{
  block P0:
    0: vr = SLOAD 4
    1: vc = CALLER
    2: CALL vc vr
    stop
}}
function setRate public sig 0x00000002 params (vx) {{
  block S0:
    0: SSTORE 4 vx
    stop
}}
"""

CALLDATA_PAYOUT = f"""contract {ADDR}
function take public sig 0x0000000b params (vamt) {{
  block F0:
    0: vc = CALLER
    1: CALL vc vamt
    stop
}}
"""


def test_ur_fires_on_balance_dependent_payout():
    report = _detect(REWARD_FROM_BALANCE, FrontendAttributes(reward_rate_percent=Fraction(3)))
    (f,) = report.findings
    assert f.type == "UR"
    assert f.status is None
    assert f.detail["claimed_reward_percent"] == 3
    assert f.evidence["call_sites"] == ["claim.C0.4"]
    assert f.evidence["amount_exprs"] == ["div(balance(self), 10)"]


def test_ur_needs_a_reward_claim():
    report = _detect(REWARD_FROM_BALANCE, FrontendAttributes())
    assert _types(report) == []


def test_ur_fires_on_written_storage_rate():
    report = _detect(STORED_RATE_PAYOUT, FrontendAttributes(reward_rate_percent=Fraction(3)))
    assert _types(report) == ["UR"]


def test_ur_treats_unwritten_slot_as_constant():
    frozen = STORED_RATE_PAYOUT[: STORED_RATE_PAYOUT.index("function setRate")]
    report = _detect(frozen, FrontendAttributes(reward_rate_percent=Fraction(3)))
    assert _types(report) == []


def test_ur_ignores_user_chosen_amounts():
    report = _detect(CALLDATA_PAYOUT, FrontendAttributes(reward_rate_percent=Fraction(3)))
    assert _types(report) == []


# ---------------------------------------------------------------------------
# HF: fee candidates vs fee disclosure


FEE_AND_PAYOUT = f"""contract {ADDR}
function deposit public sig 0x01020304 params () {{
  block D0:
    0: v1 = CALLVALUE
    1: v2 = SLOAD 1
    2: v3 = MUL v1 v2
    3: v4 = DIV v3 0x64
    4: vw = CONST 0xbeef
    5: CALL vw v4
    6: v5 = SUB v1 v4
    7: vc = CALLER
    8: CALL vc v5
    stop
}}
"""

CONST_RATE_FEE = f"""contract {ADDR}
function deposit public sig 0x01020304 params () {{
  block D0:
    0: v1 = CALLVALUE
    1: v4 = DIV v1 0x14
    2: vw = CONST 0xbeef
    3: CALL vw v4
    4: v5 = SUB v1 v4
    5: vc = CALLER
    6: CALL vc v5
    stop
}}
"""

SPLIT_FORWARD = f"""contract {ADDR}
function forward public sig 0x00000041 params () {{
  block F0:
    0: v1 = CALLVALUE
    1: v2 = MUL v1 0x3c
    2: v3 = DIV v2 0x64
    3: vw1 = CONST 0xaaa1
    4: CALL vw1 v3
    5: v4 = MUL v1 0x28
    6: v5 = DIV v4 0x64
    7: vw2 = CONST 0xaaa2
    8: CALL vw2 v5
    stop
}}
"""

SPLIT_RESIDUAL = f"""contract {ADDR}
function forward public sig 0x00000041 params () {{
  block F0:
    0: v1 = CALLVALUE
    1: v2 = MUL v1 0x3c
    2: v3 = DIV v2 0x64
    3: vw1 = CONST 0xaaa1
    4: CALL vw1 v3
    5: v4 = SUB v1 v3
    6: vw2 = CONST 0xaaa2
    7: CALL vw2 v4
    stop
}}
"""

STORAGE_SPLIT = f"""contract {ADDR}
function forward public sig 0x00000041 params () {{
  block F0:
    0: v1 = CALLVALUE
    1: vr1 = SLOAD 8
    2: v2 = MUL v1 vr1
    3: v3 = DIV v2 0x64
    4: vw1 = CONST 0xaaa1
    5: CALL vw1 v3
    6: vr2 = SLOAD 9
    7: v4 = MUL v1 vr2
    8: v5 = DIV v4 0x64
    9: vw2 = CONST 0xaaa2
    10: CALL vw2 v5
    stop
}}
"""

MOCK_RATE_5 = MockChain({ADDR: {"storage": {"0x1": "0x5"}}})


def test_hf_fires_on_undisclosed_fee():
    report = _detect(FEE_AND_PAYOUT, FrontendAttributes(fee_claimed=False), MOCK_RATE_5)
    (f,) = report.findings
    assert f.type == "HF"
    assert f.status is None
    assert f.detail["computed_rate"] == "5/100"
    assert f.detail["claimed_rate"] is None
    assert f.evidence["call_sites"] == ["deposit.D0.5"]
    assert f.evidence["fee_slot"] == "0x1"
    assert f.evidence["amount_expr"] == "div(mul(callvalue, store(1)), 100)"
    assert f.evidence["fee_slot_modifiable"] is False


def test_hf_fires_on_mismatched_rate():
    attrs = FrontendAttributes(fee_claimed=True, fee_rate_percent=Fraction(3))
    report = _detect(FEE_AND_PAYOUT, attrs, MOCK_RATE_5)
    (f,) = report.findings
    assert f.type == "HF"
    assert f.detail["computed_rate"] == "5/100"
    assert f.detail["claimed_rate"] == "3/100"


def test_hf_silent_when_disclosure_matches():
    attrs = FrontendAttributes(fee_claimed=True, fee_rate_percent=Fraction(5))
    report = _detect(FEE_AND_PAYOUT, attrs, MOCK_RATE_5)
    assert _types(report) == []


def test_hf_comparison_is_exact_rational():
    # 4.99 percent is not 5 percent; no rounding tolerance.
    attrs = FrontendAttributes(fee_claimed=True, fee_rate_percent=Fraction("4.99"))
    report = _detect(FEE_AND_PAYOUT, attrs, MOCK_RATE_5)
    assert _types(report) == ["HF"]
    assert report.findings[0].detail["claimed_rate"] == "499/10000"


def test_hf_zero_stored_rate_charges_nothing():
    chain = MockChain({ADDR: {"storage": {"0x1": "0x0"}}})
    report = _detect(FEE_AND_PAYOUT, FrontendAttributes(fee_claimed=False), chain)
    assert _types(report) == []


def test_hf_constant_rate_needs_no_chain():
    report = _detect(CONST_RATE_FEE, FrontendAttributes(fee_claimed=False))
    (f,) = report.findings
    assert f.type == "HF"
    assert f.status is None
    assert f.detail["computed_rate"] == "1/20"
    assert f.evidence["fee_slot"] is None


def test_hf_indeterminate_without_chain_backend():
    report = _detect(FEE_AND_PAYOUT, FrontendAttributes(fee_claimed=False))
    (f,) = report.findings
    assert f.type == "HF"
    assert f.status == "indeterminate"
    assert f.detail["computed_rate"] is None
    assert f.evidence["call_sites"] == ["deposit.D0.5"]


def test_hf_indeterminate_when_chain_down():
    report = _detect(FEE_AND_PAYOUT, FrontendAttributes(fee_claimed=False), _down_chain())
    (f,) = report.findings
    assert f.status == "indeterminate"


def test_hf_unresolved_without_possible_claim_mismatch_stays_silent():
    # Disclosed fee with no claimed rate: no resolved rate could fire.
    attrs = FrontendAttributes(fee_claimed=True)
    report = _detect(FEE_AND_PAYOUT, attrs)
    assert _types(report) == []


def test_hf_excludes_full_principal_split():
    report = _detect(SPLIT_FORWARD, FrontendAttributes(fee_claimed=False))
    assert _types(report) == []


def test_hf_keeps_candidate_when_residual_goes_to_preset():
    report = _detect(SPLIT_RESIDUAL, FrontendAttributes(fee_claimed=False))
    (f,) = report.findings
    assert f.type == "HF"
    assert f.detail["computed_rate"] == "60/100"
    assert f.evidence["call_sites"] == ["forward.F0.4"]


def test_hf_storage_valued_split_excluded_with_chain():
    chain = MockChain({ADDR: {"storage": {"0x8": "0x3c", "0x9": "0x28"}}})
    report = _detect(STORAGE_SPLIT, FrontendAttributes(fee_claimed=False), chain)
    assert _types(report) == []


def test_hf_storage_valued_split_indeterminate_without_chain():
    report = _detect(STORAGE_SPLIT, FrontendAttributes(fee_claimed=False))
    (f,) = report.findings
    assert f.type == "HF"
    assert f.status == "indeterminate"


def test_hf_incomplete_split_fires():
    short = SPLIT_FORWARD.replace("0x28", "0x1e")
    report = _detect(short, FrontendAttributes(fee_claimed=False))
    assert _types(report) == ["HF"]


# ---------------------------------------------------------------------------
# HF rate resolution against chain state


def test_resolve_rate_reads_chain_storage():
    sem = _semantics(FEE_AND_PAYOUT)
    (cand,) = sem.fee_candidates
    chain = MockChain({ADDR: {"storage": {"0x1": "0x5"}}})
    assert resolve_rate(cand, chain, ADDR) == (5, 100)


def test_resolve_rate_propagates_chain_failure():
    sem = _semantics(FEE_AND_PAYOUT)
    (cand,) = sem.fee_candidates

    def down(url, payload, timeout):
        raise OSError("no route")

    chain = RpcChain("http://chain.test", post=down, sleep=lambda s: None)
    with pytest.raises(ChainUnavailable):
        resolve_rate(cand, chain, ADDR)


def test_plain_division_rate_needs_no_chain():
    sem = _semantics(CONST_RATE_FEE)
    (cand,) = sem.fee_candidates
    assert cand.numerator.op == "const"
    assert cand.fee_slot is None
    assert resolve_rate(cand, chain=None, address=ADDR) == (1, 20)


def test_resolve_rate_storage_numerator_needs_backend():
    sem = _semantics(FEE_AND_PAYOUT)
    (cand,) = sem.fee_candidates
    with pytest.raises(ChainUnavailable):
        resolve_rate(cand, None, ADDR)


# ---------------------------------------------------------------------------
# AL: claimed lock vs publicly settable lock slot


LOCK_PUBLIC = f"""contract {ADDR}
function lock public sig 0xdd467064 params (vdur) {{
  block L0:
    0: vt = TIMESTAMP
    1: vu = ADD vt vdur
    2: SSTORE 5 vu
    stop
}}
"""

LOCK_GUARDED = f"""contract {ADDR}
function lock public sig 0xdd467064 params (vdur) {{
  block L0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq L1 L2
  block L1:
    0: vt = TIMESTAMP
    1: vu = ADD vt vdur
    2: SSTORE 5 vu
    stop
  block L2:
    revert
}}
"""


def test_al_fires_on_publicly_settable_lock():
    attrs = FrontendAttributes(lock_time_seconds=157680000)
    report = _detect(LOCK_PUBLIC, attrs)
    (f,) = report.findings
    assert f.type == "AL"
    assert f.detail["claimed_lock_seconds"] == 157680000
    assert f.evidence["slots"] == ["0x5"]
    assert f.evidence["store_sites"] == ["lock.L0.2"]


def test_al_needs_a_lock_claim():
    report = _detect(LOCK_PUBLIC, FrontendAttributes())
    assert _types(report) == []


def test_al_silent_when_lock_is_owner_guarded():
    attrs = FrontendAttributes(lock_time_seconds=157680000)
    report = _detect(LOCK_GUARDED, attrs)
    assert _types(report) == []


# ---------------------------------------------------------------------------
# UTS: supply bound checks


MINT_UNCHECKED = f"""contract {ADDR}
function mint public sig 0x00000012 params (vamt) {{
  block M0:
    0: v1 = SLOAD 3
    1: v2 = ADD v1 vamt
    2: SSTORE 3 v2
    stop
}}
"""

MINT_CHECKED = f"""contract {ADDR}
function mint public sig 0x00000012 params (vamt) {{
  block M0:
    0: v1 = SLOAD 3
    1: v2 = ADD v1 vamt
    2: vcap = CONST 0xf4240
    3: vok = LT v2 vcap
    jumpi vok M1 M2
  block M1:
    0: SSTORE 3 v2
    stop
  block M2:
    revert
}}
"""

MINT_CHECKED_AFTER = f"""contract {ADDR}
function mint public sig 0x00000012 params (vamt) {{
  block M0:
    0: v1 = SLOAD 3
    1: v2 = ADD v1 vamt
    2: SSTORE 3 v2
    3: vcap = CONST 0xf4240
    4: vok = LT v2 vcap
    jumpi vok M1 M2
  block M1:
    stop
  block M2:
    revert
}}
"""


def test_uts_fires_with_claimed_supply():
    attrs = FrontendAttributes(total_supply=250000000)
    report = _detect(MINT_UNCHECKED, attrs)
    (f,) = report.findings
    assert f.type == "UTS"
    assert f.detail["claimed_supply"] == 250000000
    assert f.evidence["slots"] == ["0x3"]
    assert f.evidence["store_sites"] == ["mint.M0.2"]


def test_uts_fires_without_any_supply_claim():
    report = _detect(MINT_UNCHECKED, FrontendAttributes())
    (f,) = report.findings
    assert f.type == "UTS"
    assert f.detail["claimed_supply"] is None


def test_uts_silent_when_bound_checked():
    attrs = FrontendAttributes(total_supply=250000000)
    report = _detect(MINT_CHECKED, attrs)
    assert _types(report) == []


def test_uts_check_after_add_fires_by_default():
    report = _detect(MINT_CHECKED_AFTER, FrontendAttributes())
    assert _types(report) == ["UTS"]


def test_uts_strict_mode_accepts_late_check():
    report = _detect(MINT_CHECKED_AFTER, FrontendAttributes(), strict_supply_check=True)
    assert _types(report) == []


# ---------------------------------------------------------------------------
# UFF: undisclosed owner-gated withdrawals


OWNER_DRAIN = f"""contract {ADDR}
function withdraw public sig 0x00000021 params () {{
  block W0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq W1 W2
  block W1:
    0: va = CONST {ADDR}
    1: vb = BALANCE va
    2: CALL vc vb
    stop
  block W2:
    revert
}}
"""

OWNER_SWEEP = f"""contract {ADDR}
function sweep public sig 0x00000022 params (vamt) {{
  block W0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq W1 W2
  block W1:
    0: vw = CONST 0xbeef
    1: CALL vw vamt
    stop
  block W2:
    revert
}}
"""


def test_uff_fires_on_owner_draining_whole_balance():
    report = _detect(OWNER_DRAIN, FrontendAttributes(fund_flow_disclosed=False))
    (f,) = report.findings
    assert f.type == "UFF"
    assert f.evidence["call_sites"] == ["withdraw.W1.2"]
    assert f.evidence["amount_exprs"] == ["balance(self)"]
    assert f.evidence["recipient_classes"] == ["caller"]


def test_uff_fires_on_owner_gated_preset_recipient():
    report = _detect(OWNER_SWEEP, FrontendAttributes(fund_flow_disclosed=False))
    (f,) = report.findings
    assert f.type == "UFF"
    assert f.evidence["recipient_classes"] == ["constant_address"]


def test_uff_silent_when_disclosed():
    report = _detect(OWNER_DRAIN, FrontendAttributes(fund_flow_disclosed=True))
    assert _types(report) == []


def test_uff_needs_owner_gating():
    report = _detect(REWARD_FROM_BALANCE, FrontendAttributes(fund_flow_disclosed=False))
    assert _types(report) == []


# ---------------------------------------------------------------------------
# CDS: undisclosed owner-controlled pause gating transfers


PAUSABLE = f"""contract {ADDR}
function setPause public sig 0x00000004 params () {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq B1 B2
  block B1:
    0: vp = SLOAD 3
    1: vz = ISZERO vp
    jumpi vz B3 B4
  block B3:
    0: SSTORE 3 1
    stop
  block B4:
    revert
  block B2:
    revert
}}
function move public sig 0x00000005 params (vto, vval) {{
  block M0:
    0: vp2 = SLOAD 3
    1: vz2 = ISZERO vp2
    jumpi vz2 M1 M2
  block M1:
    0: CALL vto vval
    stop
  block M2:
    revert
}}
"""


def test_cds_fires_on_undisclosed_pause():
    report = _detect(PAUSABLE, FrontendAttributes(pause_disclosed=False))
    (f,) = report.findings
    assert f.type == "CDS"
    assert f.evidence["slots"] == ["0x3"]
    assert f.evidence["store_sites"] == ["setPause.B3.0"]
    assert f.evidence["gated_call_sites"] == ["move.M1.0"]


def test_cds_silent_when_disclosed():
    report = _detect(PAUSABLE, FrontendAttributes(pause_disclosed=True))
    assert _types(report) == []


# ---------------------------------------------------------------------------
# VNA: claimed permanence vs centralized token URI


URI_CONTRACT = f"""contract {ADDR}
function tokenURI public sig 0xc87b56dd params (vid) {{
  block T0:
    0: vu = SLOAD 6
    return vu
}}
function setURI public sig 0x00000009 params (vx) {{
  block S0:
    0: SSTORE 6 vx
    stop
}}
"""


def _uri_chain(uri):
    return MockChain({ADDR: {"storage": _string_storage(6, uri)}})


def test_vna_fires_on_https_uri_with_permanence_claim():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, _uri_chain("https://api.nft.test/meta/"))
    (f,) = report.findings
    assert f.type == "VNA"
    assert f.status is None
    assert f.detail["nft_permanence_claimed"] is True
    assert f.evidence["token_uri_slot"] == "0x6"
    assert f.evidence["token_uri"] == "https://api.nft.test/meta/"
    assert f.evidence["storage_class"] == "centralized"


def test_vna_fires_when_claim_is_absent():
    attrs = FrontendAttributes(nft_permanence_claimed=None)
    report = _detect(URI_CONTRACT, attrs, _uri_chain("http://files.nft.test/"))
    assert _types(report) == ["VNA"]


def test_vna_silent_when_centralization_disclosed():
    attrs = FrontendAttributes(nft_permanence_claimed=False)
    report = _detect(URI_CONTRACT, attrs, _uri_chain("https://api.nft.test/meta/"))
    assert _types(report) == []


@pytest.mark.parametrize("uri", ["ipfs://QmYwAPJzv5CZsnAzt8auVZRn", "ar://abc123"])
def test_vna_silent_on_decentralized_schemes(uri):
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, _uri_chain(uri))
    assert _types(report) == []


def test_vna_base64_data_uri_counts_centralized():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, _uri_chain("data:application/json;base64,e30="))
    assert _types(report) == ["VNA"]


def test_vna_unclassified_scheme_stays_silent():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, _uri_chain("ftp://old.nft.test/"))
    assert _types(report) == []


def test_vna_empty_uri_stays_silent():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, MockChain({ADDR: {"storage": {}}}))
    assert _types(report) == []


def test_vna_non_string_slot_stays_silent():
    # Even low bit with a length byte beyond the short form: not a string.
    chain = MockChain({ADDR: {"storage": {"0x6": hex(2 * 40)}}})
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, chain)
    assert _types(report) == []


def test_vna_indeterminate_without_chain_backend():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs)
    (f,) = report.findings
    assert f.type == "VNA"
    assert f.status == "indeterminate"
    assert f.evidence["token_uri"] is None


def test_vna_indeterminate_when_chain_down():
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    report = _detect(URI_CONTRACT, attrs, _down_chain())
    (f,) = report.findings
    assert f.status == "indeterminate"


def test_vna_indeterminate_when_the_uri_word_claims_a_huge_string(tmp_path):
    # An odd all-ones word at the URI slot claims about 2**255 bytes of data.
    nft = FIXTURES / "corpus" / "api_hosted_nft"
    address = parse_ir(nft.with_suffix(".ir").read_text()).address
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({address: {"storage": {"0x6": "0x" + "f" * 64}}}))
    cfg = RunConfig(
        ir_path=nft.with_suffix(".ir"),
        attrs_path=nft.with_suffix(".attrs.json"),
        chain_mock=chain,
    )
    start = time.perf_counter()
    (f,) = audit_contract(cfg).findings
    assert time.perf_counter() - start < 1.0
    assert (f.type, f.status) == ("VNA", "indeterminate")
    assert f.evidence["token_uri"] is None


def _uri_getter_only():
    """The corpus NFT without `setBaseURI`: its URI slot is set outside the
    IR, so no function stores to it or transfers anything."""
    text = (FIXTURES / "corpus" / "api_hosted_nft.ir").read_text()
    start = text.index("function setBaseURI")
    end = text.index("function name")
    return text[:start] + text[end:]


def test_vna_fires_with_no_checkpoint_in_the_contract():
    text = _uri_getter_only()
    assert "SSTORE" not in text and "CALL" not in text
    attrs = FrontendAttributes(nft_permanence_claimed=True)
    chain = MockChain.from_file(str(FIXTURES / "chain.json"))
    (f,) = _detect(text, attrs, chain).findings
    assert f.type == "VNA"
    assert f.status is None
    assert f.evidence["token_uri_slot"] == "0x6"
    assert f.evidence["storage_class"] == "centralized"
    (f,) = _detect(text, attrs).findings
    assert f.type == "VNA"
    assert f.status == "indeterminate"


# ---------------------------------------------------------------------------
# Report assembly: ordering, shape, purity


REWARD_WITH_FEE = f"""contract {ADDR}
function deposit public sig 0x01020304 params () {{
  block D0:
    0: v1 = CALLVALUE
    1: v2 = SLOAD 1
    2: v3 = MUL v1 v2
    3: v4 = DIV v3 0x64
    4: vw = CONST 0xbeef
    5: CALL vw v4
    6: v5 = SUB v1 v4
    7: vc = CALLER
    8: CALL vc v5
    stop
}}
function setFee public sig 0x00000031 params (vx) {{
  block S0:
    0: vo = SLOAD 0
    1: vc2 = CALLER
    2: veq = EQ vo vc2
    jumpi veq S1 S2
  block S1:
    0: SSTORE 1 vx
    stop
  block S2:
    revert
}}
"""

COMBINED_ATTRS = FrontendAttributes(
    reward_rate_percent=Fraction(3), fee_claimed=False
)


def test_combined_fixture_reports_ur_then_hf():
    report = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    assert _types(report) == ["UR", "HF"]
    hf = report.findings[1]
    assert hf.evidence["fee_slot_modifiable"] is True
    assert report.contract == ADDR


def test_finding_order_is_fixed():
    report = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    # The rules run in this order in `detect_all`.
    expected = ("UR", "HF", "AL", "UTS", "UFF", "CDS", "VNA")
    order = {t: i for i, t in enumerate(expected)}
    positions = [order[t] for t in _types(report)]
    assert positions == sorted(positions)


def test_report_json_shape():
    report = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    doc = report.to_json()
    assert list(doc) == ["contract", "findings"]
    hf = doc["findings"][1]
    assert list(hf) == ["type", "computed_rate", "claimed_rate", "evidence"]
    assert list(hf["evidence"]) == [
        "call_sites",
        "fee_slot",
        "amount_expr",
        "fee_slot_modifiable",
    ]
    # The rendering is valid JSON and round-trips.
    assert json.loads(report.render()) == doc


def test_every_evidence_site_exists_in_program():
    report = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    program = parse_ir(REWARD_WITH_FEE)
    for f in report.findings:
        for key in ("call_sites", "store_sites", "gated_call_sites"):
            for sid in f.evidence.get(key, ()):
                assert program.statement(sid) is not None


def test_detect_all_is_pure_and_byte_identical():
    first = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    second = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    assert first == second
    assert first.render() == second.render()


def test_budget_flag_lands_in_report_metadata():
    report = _detect(REWARD_WITH_FEE, COMBINED_ATTRS, MOCK_RATE_5)
    flagged = InconsistencyReport(
        contract=report.contract, findings=report.findings, budget_exceeded=True
    )
    doc = flagged.to_json()
    assert doc["metadata"] == {"symbolic_budget_exceeded": True}
    assert "metadata" not in report.to_json()


def test_removing_fee_call_removes_only_hf():
    lines = [l for l in REWARD_WITH_FEE.splitlines() if "5: CALL vw v4" not in l]
    report = _detect("\n".join(lines) + "\n", COMBINED_ATTRS, MOCK_RATE_5)
    assert _types(report) == ["UR"]


def test_removing_payout_call_removes_only_ur():
    lines = [l for l in REWARD_WITH_FEE.splitlines() if "8: CALL vc v5" not in l]
    report = _detect("\n".join(lines) + "\n", COMBINED_ATTRS, MOCK_RATE_5)
    assert _types(report) == ["HF"]


def test_neutral_attrs_on_quiet_contract_is_clean():
    quiet = f"""contract {ADDR}
function ping public sig 0x00000007 params () {{
  block B0:
    0: v1 = CONST 0x1
    return v1
}}
"""
    report = _detect(quiet, FrontendAttributes())
    assert report.findings == ()
    assert report.render() == json.dumps(
        {"contract": ADDR, "findings": []}, indent=2
    ) + "\n"
