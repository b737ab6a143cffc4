"""Fund-transfer graph, state dependency graph and the execution plan."""
from __future__ import annotations

import random

from dappaudit.facts import build_facts
from dappaudit.graphs import (
    RecipientClass,
    SELF_NODE,
    build_graphs,
    dump_graphs,
)
from dappaudit.model import Opcode
from dappaudit.parser import parse_ir
from helpers import ADDR, random_program


def _graphs(text: str):
    return build_graphs(build_facts(parse_ir(text)))


def test_recipient_classification():
    ftg, _, _ = _graphs(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vp) {{
  block B0:
    0: vc = CALLER
    1: vr1 = OR vc vp
    2: vk = CONST 0x1234
    3: vo = SLOAD 0
    4: vr3 = ADD vo 1
    5: CALL vr1 1
    6: CALL vk 2
    7: CALL vr3 3
    8: CALL vp 4
    stop
}}
"""
    )
    assert ftg.recipient_class("vr1") is RecipientClass.CALLER
    assert ftg.recipient_class("vk") is RecipientClass.CONSTANT_ADDRESS
    assert ftg.recipient_class("vr3") is RecipientClass.STORAGE_LOADED
    assert ftg.recipient_class("vp") is RecipientClass.OTHER
    assert ftg.recipient_class(SELF_NODE) is RecipientClass.CONTRACT_SELF
    assert len(ftg.edges) == 4


WITHDRAW_ALL = f"""contract {ADDR}
function clear public sig 0x00000002 params () {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq B1 B2
  block B1:
    0: vb = BALANCE {ADDR}
    1: CALL vc vb
    stop
  block B2:
    revert
}}
"""


def test_guarded_withdraw_all_edge():
    ftg, _, _ = _graphs(WITHDRAW_ALL)
    (e,) = ftg.edges
    assert e.privileged_owner == 0
    assert e.amount_from_self_balance
    assert not e.shared_fee_ancestor
    assert ftg.recipient_class("vc") is RecipientClass.CALLER


def test_unguarded_transfer_has_no_privileged_owner():
    ftg, _, _ = _graphs(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vto) {{
  block B0:
    0: CALL vto 7
    stop
}}
"""
    )
    (e,) = ftg.edges
    assert e.privileged_owner is None
    assert not e.amount_from_self_balance


def test_guard_on_non_owner_slot_is_not_privileged():
    # The comparison result is never branched on, so the slot gets no
    # owner role and the transfer stays unprivileged.
    ftg, _, _ = _graphs(
        f"""contract {ADDR}
function odd public sig 0x00000008 params (vto) {{
  block B0:
    0: vg = SLOAD 2
    1: vc = CALLER
    2: veq = EQ vg vc
    3: CALL vto 7
    stop
}}
"""
    )
    (e,) = ftg.edges
    assert e.privileged_owner is None


def test_fee_split_edges_share_an_ancestor():
    ftg, _, _ = _graphs(
        f"""contract {ADDR}
function sell public sig 0x00000003 params (vamt) {{
  block B0:
    0: vr = CONST 5
    1: vfee0 = MUL vamt vr
    2: vfee = DIV vfee0 100
    3: vrest = SUB vamt vfee
    4: vc = CALLER
    5: vdev = SLOAD 1
    6: CALL vdev vfee
    7: CALL vc vrest
    stop
}}
function single public sig 0x00000009 params (vx, vy) {{
  block S0:
    0: CALL vx vy
    stop
}}
"""
    )
    by_site = {e.call_site: e for e in ftg.edges}
    assert by_site["sell.B0.6"].shared_fee_ancestor
    assert by_site["sell.B0.7"].shared_fee_ancestor
    assert not by_site["single.S0.0"].shared_fee_ancestor


def test_constant_only_common_source_does_not_count_as_shared():
    ftg, _, _ = _graphs(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vx, vy) {{
  block B0:
    0: vk = CONST 100
    1: CALL vx vk
    2: CALL vy vk
    stop
}}
"""
    )
    assert not any(e.shared_fee_ancestor for e in ftg.edges)


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


def test_pause_setter_and_gated_transfer():
    _, sdg, plan = _graphs(PAUSABLE)
    assert set(sdg.nodes) == {(0, "owner"), (3, "pause")}
    (ge,) = sdg.guard_edges
    assert (ge.guard_slot, ge.slot, ge.selector) == (0, 3, "0x00000004")
    (w,) = sdg.writes
    assert (w.slot, w.guarded) == (3, True)
    (pe,) = sdg.pause_edges
    assert (pe.slot, pe.call_site, pe.selector) == (3, "move.M1.0", "0x00000005")
    assert plan.selectors() == ("0x00000004", "0x00000005")
    assert plan.entry("0x00000004").checkpoints == ("setPause.B3.0",)
    assert plan.entry("0x00000004").tracked == ()
    assert plan.entry("0x00000005").tracked == ("vto", "vval")


def test_lock_written_guarded_and_unguarded():
    _, sdg, _ = _graphs(
        f"""contract {ADDR}
function lockG public sig 0x00000006 params (vt) {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: veq = EQ vo vc
    jumpi veq B1 B2
  block B1:
    0: vnow = TIMESTAMP
    1: vsum = ADD vnow vt
    2: SSTORE 5 vsum
    stop
  block B2:
    revert
}}
function lockU public sig 0x00000007 params (vt2) {{
  block U0:
    0: vnow2 = TIMESTAMP
    1: vsum2 = ADD vnow2 vt2
    2: SSTORE 5 vsum2
    stop
}}
"""
    )
    assert (5, "lock_time") in sdg.nodes
    (ge,) = sdg.guard_edges
    assert (ge.guard_slot, ge.slot, ge.selector) == (0, 5, "0x00000006")
    flags = {w.selector: w.guarded for w in sdg.writes_to(5)}
    assert flags == {"0x00000006": True, "0x00000007": False}


def test_unrelated_contract_has_empty_graphs_and_plan():
    ftg, sdg, plan = _graphs(
        f"""contract {ADDR}
function pure public sig 0x00000001 params (va, vb) {{
  block B0:
    0: vs = ADD va vb
    return vs
}}
"""
    )
    assert ftg.is_empty
    assert sdg.is_empty
    assert plan.is_empty


def test_plan_excludes_functions_without_graph_content():
    _, _, plan = _graphs(
        f"""contract {ADDR}
function a public sig 0x00000001 params (va) {{
  block A0:
    0: vs = ADD va 1
    return vs
}}
function b public sig 0x00000002 params (vto) {{
  block B0:
    0: CALL vto 5
    stop
}}
function c public sig 0x00000003 params (vx) {{
  block C0:
    0: vd = MUL vx 2
    return vd
}}
"""
    )
    assert plan.selectors() == ("0x00000002",)
    assert plan.entry("0x00000002").checkpoints == ("b.B0.0",)


def test_plan_well_formed_on_random_programs():
    rng = random.Random(77)
    for _ in range(120):
        program = random_program(rng)
        db = build_facts(program)
        ftg, sdg, plan = build_graphs(db)
        edge_selectors = {e.selector for e in ftg.edges} | {
            w.selector for w in sdg.writes
        }
        assert set(plan.selectors()) == edge_selectors
        defined = {
            s.defvar for _, _, s in program.statements() if s.defvar is not None
        } | {p for fn in program.functions for p in fn.params}
        for entry in plan.entries:
            assert entry.checkpoints
            for sid in entry.checkpoints:
                stmt = program.statement(sid)
                assert stmt.opcode in (Opcode.CALL, Opcode.SSTORE)
            for v in entry.tracked:
                assert v in defined


def test_dump_is_deterministic_golden():
    db = build_facts(parse_ir(WITHDRAW_ALL))
    ftg, sdg, _ = build_graphs(db)
    assert dump_graphs(ftg, sdg) == (
        "ftg nodes:\n"
        "  caller vc\n"
        "  self self\n"
        "ftg edges:\n"
        "  self -> vc amount=vb selector=0x00000002 kind=ether owner_slot=0"
        " self_balance=1 shared_fee=0\n"
        "sdg nodes:\n"
        "  slot 0 role owner\n"
        "sdg guard edges:\n"
        "  (none)\n"
        "sdg writes:\n"
        "  (none)\n"
        "sdg pause edges:\n"
        "  (none)\n"
    )


def test_graphs_ignore_function_declaration_order():
    base = PAUSABLE
    fns = base.split("function ")
    swapped = fns[0] + "function " + fns[2].rstrip("\n") + "\nfunction " + fns[1]
    a = dump_graphs(*build_graphs(build_facts(parse_ir(base)))[:2])
    b = dump_graphs(*build_graphs(build_facts(parse_ir(swapped)))[:2])
    assert a == b
