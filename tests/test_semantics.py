"""Contract semantics summarization tests."""

from __future__ import annotations

from dappaudit.executor import execute_function
from dappaudit.facts import build_facts
from dappaudit.feasibility import Feasibility
from dappaudit.graphs import RecipientClass, build_graphs
from dappaudit.inference import TransferKind
from dappaudit.parser import parse_ir
from dappaudit.semantics import summarize_semantics

from helpers import ADDR


def _semantics(text):
    program = parse_ir(text)
    db = build_facts(program)
    ftg, sdg, plan = build_graphs(db)
    executions = [execute_function(program, sel, plan) for sel in plan.selectors()]
    return summarize_semantics(executions, db, ftg, sdg)


# ---------------------------------------------------------------------------
# Transfers and dynamic flags


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


def test_fee_and_payout_transfers():
    sem = _semantics(FEE_AND_PAYOUT)
    assert sem.address == ADDR
    assert not sem.budget_exceeded
    assert len(sem.transfers) == 2
    by_class = {t.recipient_class: t for t in sem.transfers}
    fee = by_class[RecipientClass.CONSTANT_ADDRESS]
    payout = by_class[RecipientClass.CALLER]
    assert fee.amount == "div(mul(callvalue, store(1)), 100)"
    assert payout.amount == "sub(callvalue, div(mul(callvalue, store(1)), 100))"
    assert fee.kind is TransferKind.ETHER
    assert fee.feasibility is Feasibility.FEASIBLE
    assert not fee.owner_gated


def test_fee_candidate_shape_and_slot():
    sem = _semantics(FEE_AND_PAYOUT)
    (cand,) = sem.fee_candidates
    assert cand.call_site == "deposit.D0.5"
    assert cand.base == "callvalue"
    assert cand.numerator.op == "store"
    assert cand.denominator == 100
    assert cand.fee_slot == 1
    assert cand.amount == "div(mul(callvalue, store(1)), 100)"
    assert cand.recipient_class is RecipientClass.CONSTANT_ADDRESS


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


def test_balance_dependent_caller_payout():
    sem = _semantics(REWARD_FROM_BALANCE)
    (t,) = sem.transfers
    assert t.recipient_class is RecipientClass.CALLER
    assert t.amount == "div(balance(self), 10)"
    assert t.dynamic.balance_self
    assert not t.dynamic.store_init
    assert not t.dynamic.calldata_arg
    # Balance-derived amounts are not fraction-of-principal fees.
    assert sem.fee_candidates == ()


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


def test_storage_amount_with_writer_is_dynamic():
    sem = _semantics(STORED_RATE_PAYOUT)
    (t,) = sem.transfers
    assert t.dynamic.store_init
    assert t.dynamic.store_written


def test_storage_amount_without_writer_counts_constant():
    frozen = STORED_RATE_PAYOUT[: STORED_RATE_PAYOUT.index("function setRate")]
    sem = _semantics(frozen)
    (t,) = sem.transfers
    assert t.dynamic.store_init
    assert not t.dynamic.store_written


CALLDATA_AMOUNT_MERGE = f"""contract {ADDR}
function f public sig 0x0000000b params (vamt) {{
  block F0:
    0: vg = GT vamt 0x5
    jumpi vg F1 F2
  block F1:
    jump F3
  block F2:
    jump F3
  block F3:
    0: vc = CALLER
    1: CALL vc vamt
    stop
}}
"""


def test_forked_paths_with_equal_amounts_merge():
    sem = _semantics(CALLDATA_AMOUNT_MERGE)
    (t,) = sem.transfers
    assert t.amount == "calldata(0x0000000b,0)"
    assert t.dynamic.calldata_arg
    assert t.feasibility is Feasibility.FEASIBLE


# ---------------------------------------------------------------------------
# Supply status


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


def test_unchecked_mint_has_no_bound():
    sem = _semantics(MINT_UNCHECKED)
    (s,) = sem.supplies
    assert s.slot == 3
    assert s.store_sites == ("mint.M0.2",)
    assert not s.bound_checked
    assert not s.bound_checked_after_add


def test_bound_check_before_add_detected():
    sem = _semantics(MINT_CHECKED)
    (s,) = sem.supplies
    assert s.bound_checked
    assert not s.bound_checked_after_add


def test_bound_check_after_add_distinguished():
    sem = _semantics(MINT_CHECKED_AFTER)
    (s,) = sem.supplies
    assert not s.bound_checked
    assert s.bound_checked_after_add


# ---------------------------------------------------------------------------
# Pause status


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


def test_owner_pause_gating_transfers():
    sem = _semantics(PAUSABLE)
    (p,) = sem.pauses
    assert p.slot == 3
    assert p.owner_modifiable
    assert p.gates_transfer
    assert p.write_sites == ("setPause.B3.0",)
    assert p.gated_call_sites == ("move.M1.0",)


# ---------------------------------------------------------------------------
# Lock status


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


def test_lock_slot_settable_by_anyone():
    sem = _semantics(LOCK_PUBLIC)
    (lk,) = sem.locks
    assert lk.slot == 5
    assert lk.publicly_settable
    assert lk.write_sites == ("lock.L0.2",)


def test_owner_guarded_lock_not_public():
    sem = _semantics(LOCK_GUARDED)
    (lk,) = sem.locks
    assert not lk.publicly_settable


# ---------------------------------------------------------------------------
# Token URI slot


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


def test_token_uri_slot_found():
    sem = _semantics(URI_CONTRACT)
    assert sem.token_uri_slot == 6
    assert not sem.is_empty


# ---------------------------------------------------------------------------
# Emptiness and determinism


NO_FLOWS = f"""contract {ADDR}
function ping public sig 0x00000007 params () {{
  block B0:
    0: v1 = CONST 0x1
    return v1
}}
"""


def test_no_checkpoints_means_empty_semantics():
    sem = _semantics(NO_FLOWS)
    assert sem.is_empty
    assert sem.transfers == ()
    assert sem.token_uri_slot is None


ALL_PATHS_BLOCKED = f"""contract {ADDR}
function claim public sig 0x0a0b0c0d params (vamt) {{
  block C0:
    0: v1 = SLOAD 1
    1: va = EQ v1 0x3e8
    jumpi va C1 C3
  block C1:
    0: v2 = SLOAD 1
    1: vb = EQ v2 0x5
    jumpi vb C2 C3
  block C2:
    0: vc = CALLER
    1: CALL vc vamt
    stop
  block C3:
    revert
}}
"""


def test_infeasible_only_checkpoints_mean_empty_semantics():
    sem = _semantics(ALL_PATHS_BLOCKED)
    assert sem.is_empty


def test_summarization_is_deterministic():
    assert _semantics(FEE_AND_PAYOUT) == _semantics(FEE_AND_PAYOUT)
    assert _semantics(PAUSABLE) == _semantics(PAUSABLE)
