"""Contract semantics summarization tests."""

from __future__ import annotations

from pathlib import Path

from dappaudit import semantics
from dappaudit.claims import FrontendAttributes
from dappaudit.detector import detect_all
from dappaudit.executor import execute_function
from dappaudit.facts import FactDb, build_facts
from dappaudit.graphs import RecipientClass, build_graphs
from dappaudit.parser import parse_ir
from dappaudit.pipeline import analyze_ir
from dappaudit.semantics import summarize_semantics
from dappaudit.symexpr import render

from helpers import ADDR, doubling_chain_text

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


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
    assert not t.dynamic.store_written
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
    assert t.dynamic.store_written


def test_storage_amount_without_writer_counts_constant():
    frozen = STORED_RATE_PAYOUT[: STORED_RATE_PAYOUT.index("function setRate")]
    sem = _semantics(frozen)
    (t,) = sem.transfers
    assert t.amount == "store(4)"
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


# An owner-gated function whose two diamond arms feed different amounts
# into one fee CALL (pay.P4.3) and one caller payout (pay.P4.4).  The
# executor reaches the arms in the order P2, P3, so each site meets its
# amounts in the reverse of their text order.
TWO_AMOUNTS_PER_SITE = f"""contract {ADDR}
function pay public sig 0x0000000c params (vamt) {{
  block P0:
    0: vown = SLOAD 0
    1: vsnd = CALLER
    2: vis = EQ vown vsnd
    jumpi vis P1 P9
  block P1:
    0: vself = CONST {ADDR}
    1: vbal = BALANCE vself
    2: vin = CALLVALUE
    3: vg = GT vamt 0x5
    jumpi vg P2 P3
  block P2:
    0: va = DIV vbal 0x2
    1: vm = MUL vin 0x3
    2: vfa = DIV vm 0x64
    jump P4
  block P3:
    0: vb = ADD vbal 0x1
    1: vfb = DIV vin 0x64
    jump P4
  block P4:
    0: vx = PHI va vb
    1: vf = PHI vfa vfb
    2: vw = CONST 0xbeef
    3: CALL vw vf
    4: CALL vsnd vx
    stop
  block P9:
    revert
}}
"""


def test_amounts_at_one_site_are_ordered_by_text():
    sem = _semantics(TWO_AMOUNTS_PER_SITE)
    fees = ["div(callvalue, 100)", "div(mul(callvalue, 3), 100)"]
    payouts = ["add(balance(self), 1)", "div(balance(self), 2)"]
    assert [(t.call_site, t.amount) for t in sem.transfers] == [
        *(("pay.P4.3", a) for a in fees),
        *(("pay.P4.4", a) for a in payouts),
    ]
    assert [(c.call_site, c.amount, c.base) for c in sem.fee_candidates] == [
        ("pay.P4.3", a, "callvalue") for a in fees
    ]
    attrs = FrontendAttributes.from_json(
        {"reward_rate_percent": 3, "fund_flow_disclosed": False, "fee_claimed": False}
    )
    findings = {f.type: f for f in detect_all(attrs, sem).findings}
    assert set(findings) == {"UR", "HF", "UFF"}
    assert findings["UR"].evidence["amount_exprs"] == payouts
    assert findings["UFF"].evidence["amount_exprs"] == fees + payouts
    assert findings["HF"].evidence["amount_expr"] == fees[0]


# Claims that would print an amount if they fired; none fires on a refund
# of the caller's own CALLVALUE.
SILENT_CLAIMS = {"reward_rate_percent": 3, "fund_flow_disclosed": False, "fee_claimed": False}


def test_amounts_render_only_when_read(monkeypatch):
    # The deep_expr workload's refund, at the most doublings that fit the
    # expression budget: its text is 524,281 characters.
    rendered = []

    def counting_render(e):
        rendered.append(e)
        return render(e)

    monkeypatch.setattr(semantics, "render", counting_render)
    sem = analyze_ir(doubling_chain_text(15)).semantics
    (t,) = sem.transfers
    assert t.amount_expr.size == 2**16 - 1
    report = detect_all(FrontendAttributes.from_json(SILENT_CLAIMS), sem)
    assert report.findings == ()
    assert rendered == []
    assert t.amount.count("callvalue") == 2**15
    assert rendered == [t.amount_expr]


def test_amount_texts_are_the_rendered_expressions():
    for path in sorted(CORPUS.glob("*.ir")):
        sem = analyze_ir(path.read_text()).semantics
        for t in sem.transfers:
            assert t.amount == render(t.amount_expr)
        for c in sem.fee_candidates:
            assert (c.amount, c.base) == (render(c.amount_expr), render(c.base_expr))


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


def _stored_chain_text(n: int) -> str:
    """A sum of n loads that stores each partial sum back to the slot it
    loaded, so every slot is a supply; the function compares nothing.  A
    second function holds the contract's one comparison."""
    body = ["v0 = CALLVALUE"]
    for i in range(1, n + 1):
        body += [f"vl{i} = SLOAD {i}", f"v{i} = ADD v{i - 1} vl{i}", f"SSTORE {i} v{i}"]
    return "\n".join([
        f"contract {ADDR}",
        "function f public sig 0x00000001 params () {",
        "  block B0:",
        *(f"    {k}: {line}" for k, line in enumerate(body)),
        "    stop",
        "}",
        "function g public sig 0x00000002 params (vx) {",
        "  block G0:",
        "    0: vg = GT vx 0x5",
        "    jumpi vg G1 G2",
        "  block G1:",
        "    stop",
        "  block G2:",
        "    revert",
        "}",
        "",
    ])


def test_supply_without_a_comparison_builds_no_reach_set(monkeypatch):
    n = 50
    program = parse_ir(_stored_chain_text(n))
    db = build_facts(program)
    ftg, sdg, plan = build_graphs(db)
    executions = [execute_function(program, sel, plan) for sel in plan.selectors()]
    want = summarize_semantics(executions, db, ftg, sdg).supplies
    assert [(s.slot, s.store_sites) for s in want] == [
        (i, (f"f.B0.{3 * i}",)) for i in range(1, n + 1)
    ]
    assert not any(s.bound_checked or s.bound_checked_after_add for s in want)

    def refuse(*args):
        raise AssertionError("a reach set was built")

    for query in ("reached_from", "reaching", "deciders"):
        monkeypatch.setattr(FactDb, query, refuse)
    assert summarize_semantics(executions, db, ftg, sdg).supplies == want



def test_bound_checks_index_comparisons_by_selector_once(monkeypatch):
    # W mints each store an ADD of the supply slot 3; the first also
    # compares the stored sum after the store.  One more function holds
    # the other comparisons, under a selector no write has.
    w, c = 4, 6
    lines = [f"contract {ADDR}"]
    for j in range(w):
        lines += [
            f"function mint{j} public sig 0x{j + 1:08x} params (va{j}) {{",
            "  block M:",
            f"    0: vl{j} = SLOAD 3",
            f"    1: vs{j} = ADD vl{j} va{j}",
            f"    2: SSTORE 3 vs{j}",
            *(["    3: vk = GT vs0 0x64"] if j == 0 else []),
            "    stop",
            "}",
        ]
    lines += ["function check public sig 0x000000ff params (vx) {", "  block C:"]
    lines += [f"    {k}: vc{k} = LT vx {k}" for k in range(c - 1)]
    lines += ["    stop", "}", ""]
    db = build_facts(parse_ir("\n".join(lines)))
    _, sdg, _ = build_graphs(db)
    writes = sdg.writes_to(3)
    assert (len(writes), len(db.comp)) == (w, c)

    calls = []
    selectors_of = FactDb.selectors_of

    def counting(self, sid):
        calls.append(sid)
        return selectors_of(self, sid)

    monkeypatch.setattr(FactDb, "selectors_of", counting)
    assert semantics._bound_checks(db, 3, writes) == (False, True)
    # Scanning every row for every write makes w * (c + 1) calls.
    assert len(calls) <= c + w


def test_bound_checks_ask_once_per_store(monkeypatch):
    # One supply store in a private function that two selectors call is
    # two writes; its deciders are asked for once.
    text = f"""contract {ADDR}
function mint private params (va) {{
  block P:
    0: vl = SLOAD 3
    1: vs = ADD vl va
    2: SSTORE 3 vs
    3: vk = GT vs 0x64
    returnprivate va
}}
function a public sig 0x00000001 params (vx) {{
  block A:
    0: CALLPRIVATE mint vx
    stop
}}
function b public sig 0x00000002 params (vy) {{
  block B:
    0: CALLPRIVATE mint vy
    stop
}}
"""
    db = build_facts(parse_ir(text))
    _, sdg, _ = build_graphs(db)
    writes = sdg.writes_to(3)
    assert [(w.store_site, w.selector) for w in writes] == [
        ("mint.P.2", "0x00000001"),
        ("mint.P.2", "0x00000002"),
    ]

    calls = []
    deciders = FactDb.deciders

    def counting(self, sid):
        calls.append(sid)
        return deciders(self, sid)

    monkeypatch.setattr(FactDb, "deciders", counting)
    assert semantics._bound_checks(db, 3, writes) == (False, True)
    assert calls == ["mint.P.2"]


def test_bound_checks_stop_once_both_flags_are_set(monkeypatch):
    # The cap check gates every store and the later comparison gates none,
    # and both read the loaded supply: the first store sets both flags.
    n = 6
    stores = [f"    {k}: SSTORE 3 vs{k}" for k in range(n)]
    text = "\n".join([
        f"contract {ADDR}",
        "function mint public sig 0x00000001 params (va) {",
        "  block M0:",
        "    0: vl = SLOAD 3",
        "    1: vok = LT vl 0x64",
        "    jumpi vok M1 M2",
        "  block M1:",
        *(f"    {k}: vs{k} = ADD vl va" for k in range(n)),
        *(line.replace(f"{k}:", f"{n + k}:", 1) for k, line in enumerate(stores)),
        f"    {2 * n}: vk = GT vs0 0x3e8",
        "    stop",
        "  block M2:",
        "    revert",
        "}",
        "",
    ])
    db = build_facts(parse_ir(text))
    _, sdg, _ = build_graphs(db)
    writes = sdg.writes_to(3)
    assert len(writes) == n

    calls = []
    reached_from = FactDb.reached_from

    def counting(self, sources):
        calls.append(sources)
        return reached_from(self, sources)

    monkeypatch.setattr(FactDb, "reached_from", counting)
    assert semantics._bound_checks(db, 3, writes) == (True, True)
    # Walking from the loads and then from every stored value is n + 1 calls.
    assert len(calls) < n

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


# ---------------------------------------------------------------------------
# Emptiness and determinism


def _is_empty(sem) -> bool:
    return (
        sem.transfers,
        sem.fee_candidates,
        sem.supplies,
        sem.pauses,
        sem.locks,
        sem.token_uri_slot,
    ) == ((), (), (), (), (), None)


NO_FLOWS = f"""contract {ADDR}
function ping public sig 0x00000007 params () {{
  block B0:
    0: v1 = CONST 0x1
    return v1
}}
"""


def test_no_checkpoints_means_empty_semantics():
    assert _is_empty(_semantics(NO_FLOWS))


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
    assert _is_empty(_semantics(ALL_PATHS_BLOCKED))


def test_summarization_is_deterministic():
    assert _semantics(FEE_AND_PAYOUT) == _semantics(FEE_AND_PAYOUT)
    assert _semantics(PAUSABLE) == _semantics(PAUSABLE)
