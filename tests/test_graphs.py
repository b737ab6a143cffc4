"""Fund-transfer graph, state dependency graph and the execution plan."""
from __future__ import annotations

import gc
import random
import time
from collections import defaultdict

from dappaudit.cfg import branch_structure
from dappaudit.facts import build_facts
from dappaudit.graphs import FtgEdge, RecipientClass, build_graphs
from dappaudit.inference import (
    StorageRole,
    infer_sender_guards,
    infer_storage_roles,
    infer_transfers,
)
from dappaudit.model import Opcode
from dappaudit.parser import parse_ir
from dappaudit.pipeline import analyze_ir
from dappaudit.semantics import summarize_semantics
from helpers import ADDR, floyd_warshall_dataflow, random_program, random_program_text


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
    assert {e.recipient: e.recipient_class for e in ftg.edges} == {
        "vr1": RecipientClass.CALLER,
        "vk": RecipientClass.CONSTANT_ADDRESS,
        "vr3": RecipientClass.STORAGE_LOADED,
        "vp": RecipientClass.OTHER,
    }
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
    assert not e.shared_fee_ancestor
    assert e.recipient_class is RecipientClass.CALLER


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
    (w,) = sdg.writes
    assert (w.slot, w.selector, w.guarded) == (3, "0x00000004", True)
    (pe,) = sdg.pause_edges
    assert (pe.slot, pe.call_site, pe.selector) == (3, "move.M1.0", "0x00000005")
    assert plan.selectors() == ("0x00000004", "0x00000005")
    assert plan.entry("0x00000004").checkpoints == ("setPause.B3.0",)
    assert plan.entry("0x00000005").checkpoints == ("move.M1.0",)


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
    assert ftg.edges == ()
    assert (sdg.nodes, sdg.writes, sdg.pause_edges) == ((), (), ())
    assert plan.entries == ()


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
        for entry in plan.entries:
            assert entry.checkpoints
            for sid in entry.checkpoints:
                stmt = program.statement(sid)
                assert stmt.opcode in (Opcode.CALL, Opcode.SSTORE)


def test_decided_fields_match_a_naive_oracle_on_random_programs():
    # Whether a sender check decides a role-slot write, a pause flag a
    # transfer, and a bound check a supply store, recomputed from the
    # Floyd-Warshall closure and the `controls` relation.  At 30 statements
    # no random program has a pause edge, so these are larger and loop.
    # None gives `guarded=True`; the hand examples above pin that case.
    seen = defaultdict(int)
    for seed in range(80):
        program = random_program(random.Random(seed), 300, with_loops=True)
        db = build_facts(program)
        guards = infer_sender_guards(db)
        roles = infer_storage_roles(db, guards)
        ftg, sdg, _ = build_graphs(db)
        supplies = summarize_semantics((), db, ftg, sdg).supplies

        reach = defaultdict(set)
        for a, b in floyd_warshall_dataflow(program):
            reach[a].add(b)
        conds = defaultdict(set)
        for cond, sid, _ in db.controls:
            conds[sid].add(cond)

        def controls(x, sid):
            return not reach[x].isdisjoint(conds[sid])

        statements = [s for _, _, s in program.statements()]
        loads = [
            (db.const_of(s.args[0]), s.defvar) for s in statements if s.opcode is Opcode.SLOAD
        ]
        decisions = defaultdict(list)
        for g in guards:
            decisions[g.selector].append(program.statement(g.compare_site).defvar)

        role_slots = {r.slot for r in roles}
        want_writes = {
            (slot, s.sid, sel, s.args[1], any(controls(d, s.sid) for d in decisions[sel]))
            for s in statements
            if s.opcode is Opcode.SSTORE and (slot := db.const_of(s.args[0])) in role_slots
            for sel in db.selectors_of(s.sid)
        }
        got_writes = {(w.slot, w.store_site, w.selector, w.value, w.guarded) for w in sdg.writes}
        assert got_writes == want_writes, seed

        pause_slots = {r.slot for r in roles if r.role is StorageRole.PAUSE}
        want_pause = {
            (slot, t.call_site, t.selector)
            for t in infer_transfers(db)
            for slot, x in loads
            if slot in pause_slots and controls(x, t.call_site)
        }
        got_pause = {(e.slot, e.call_site, e.selector) for e in sdg.pause_edges}
        assert got_pause == want_pause, seed

        comparisons = [s for s in statements if s.opcode.value in ("LT", "GT", "EQ")]
        for supply in supplies:
            loaded = set().union(*(reach[x] for slot, x in loads if slot == supply.slot))
            before = after = False
            for w in sdg.writes_to(supply.slot):
                reached = loaded | reach[w.value]
                for c in comparisons:
                    if reached.isdisjoint(c.args):
                        continue
                    if db.selectors_of(c.sid).isdisjoint(db.selectors_of(w.store_site)):
                        continue
                    if controls(c.defvar, w.store_site):
                        before = True
                    else:
                        after = True
            assert (supply.bound_checked, supply.bound_checked_after_add) == (before, after), seed

        # An edge shares its amount when another call site under the same
        # selector has a non-constant ancestor in common with it.
        ancestors = defaultdict(set)
        for a, bs in reach.items():
            if a not in db.constant:
                for b in bs:
                    ancestors[b].add(a)
        for e in ftg.edges:
            want = any(
                o.selector == e.selector
                and o.call_site != e.call_site
                and not ancestors[o.amount].isdisjoint(ancestors[e.amount])
                for o in ftg.edges
            )
            assert e.shared_fee_ancestor == want, (seed, e.call_site, e.selector)

        seen["writes"] += len(want_writes)
        seen["writes under a guarded selector"] += sum(bool(decisions[w[2]]) for w in want_writes)
        seen["pause edges"] += len(want_pause)
        seen["bound checked"] += sum(s.bound_checked for s in supplies)
        seen["bound checked after add"] += sum(s.bound_checked_after_add for s in supplies)
        seen["shared amount edges"] += sum(e.shared_fee_ancestor for e in ftg.edges)
    assert min(seen.values()) > 0, dict(seen)


def test_withdraw_all_graphs_golden():
    ftg, sdg, _ = _graphs(WITHDRAW_ALL)
    assert ftg.edges == (
        FtgEdge(
            call_site="clear.B1.1",
            recipient="vc",
            recipient_class=RecipientClass.CALLER,
            amount="vb",
            selector="0x00000002",
            privileged_owner=0,
            shared_fee_ancestor=False,
            follow=frozenset(),
        ),
    )
    assert sdg.nodes == ((0, "owner"),)
    assert sdg.writes == ()
    assert sdg.pause_edges == ()


def test_graphs_ignore_function_declaration_order():
    base = PAUSABLE
    fns = base.split("function ")
    swapped = fns[0] + "function " + fns[2].rstrip("\n") + "\nfunction " + fns[1]
    a = build_graphs(build_facts(parse_ir(base)))
    b = build_graphs(build_facts(parse_ir(swapped)))
    assert a == b


# ---------------------------------------------------------------------------
# Branches a checkpoint does not depend on


REFUND_BEHIND_BRANCH = f"""contract {ADDR}
function helper private params (vp) {{
  block H0:
    returnprivate vp vp
}}
function pay public sig 0x00000007 params (vx) {{
  block B0:
    0: vc = LT vx 10
    jumpi vc B1 B2
  block B1:
    0: vh = ADD vx 1
    jump B2
  block B2:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_branch_deciding_nothing_is_followed():
    ftg, _, plan = _graphs(REFUND_BEHIND_BRANCH)
    (edge,) = ftg.edges
    assert edge.follow == {("pay", "B0", "B2")}
    assert plan.entry("0x00000007").follow == edge.follow


def test_region_making_a_private_call_decides():
    text = REFUND_BEHIND_BRANCH.replace("vh = ADD vx 1", "vh = CALLPRIVATE helper vx")
    ftg, _, plan = _graphs(text)
    assert ftg.edges[0].follow == frozenset()
    assert plan.entry("0x00000007").follow == frozenset()


def test_region_feeding_a_deciding_condition_decides():
    # vh flows into the guard vg, which the transfer is control-dependent
    # on, so the branch that defines vh decides too.
    text = REFUND_BEHIND_BRANCH.replace(
        """  block B2:
    0: vw = CALLER""",
        """  block B2:
    0: vg = GT vh 3
    jumpi vg B3 B4
  block B4:
    revert
  block B3:
    0: vw = CALLER""",
    )
    ftg, _, plan = _graphs(text)
    assert ftg.edges[0].follow == frozenset()
    assert plan.entry("0x00000007").follow == frozenset()


def test_plan_follows_only_branches_no_checkpoint_depends_on():
    text = REFUND_BEHIND_BRANCH.replace(
        "    2: CALL vw vv\n",
        "    2: CALL vw vv\n    3: vo = CONST 0xbeef\n    4: CALL vo vh\n",
    )
    ftg, _, plan = _graphs(text)
    follows = {e.call_site: e.follow for e in ftg.edges}
    assert follows == {"pay.B2.2": {("pay", "B0", "B2")}, "pay.B2.4": frozenset()}
    assert plan.entry("0x00000007").follow == frozenset()


def _diamonds_text(k: int) -> str:
    """A refund to CALLER behind k sequential diamonds on k parameters; no
    arm sets anything the CALL reads, so the plan follows every branch."""
    lines = [
        f"contract {ADDR}",
        f"function refund public sig 0x00000007 params ({', '.join(f'vp{i}' for i in range(k))}) {{",
    ]
    for i in range(k):
        lines += [
            f"  block B{i}:",
            f"    0: vc{i} = LT vp{i} {i + 7}",
            f"    jumpi vc{i} T{i} E{i}",
            f"  block T{i}:",
            f"    0: vt{i} = ADD vp{i} 3",
            f"    jump B{i + 1}",
            f"  block E{i}:",
            f"    0: ve{i} = SUB vp{i} 5",
            f"    jump B{i + 1}",
        ]
    lines += [
        f"  block B{k}:",
        "    0: vw = CALLER",
        "    1: vv = CALLVALUE",
        "    2: CALL vw vv",
        "    stop",
        "}",
        "",
    ]
    return "\n".join(lines)


def _best_audit_walls(small, large, run=analyze_ir) -> tuple[float, float]:
    """The best wall time of `run` (by default `analyze_ir` of a text) on
    each input over 3 runs, the sizes alternating and the collector off
    (see the chain tests in test_facts.py)."""

    def wall(item) -> float:
        start = time.perf_counter()
        run(item)
        return time.perf_counter() - start

    best_small = best_large = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            best_small = min(best_small, wall(small))
            best_large = min(best_large, wall(large))
    finally:
        gc.enable()
    return best_small, best_large


def test_audit_of_sequential_diamonds_grows_linearly():
    # Finding the free branches of a checkpoint once rebuilt, for every
    # branch, the set of all other branch conditions: 4x per doubling of k.
    small, large = _diamonds_text(1000), _diamonds_text(2000)
    (entry,) = analyze_ir(small).plan.entries
    assert len(entry.follow) == 1000
    best_small, best_large = _best_audit_walls(small, large)
    assert best_large <= 3 * best_small, (best_small, best_large)


def test_graphs_of_sequential_diamonds_grow_linearly():
    # Each branch intersected the conditions it reaches with the dict of
    # every branch condition, which iterates the whole dict: about 5x per
    # doubling of k for `build_graphs` alone.
    small, large = (build_facts(parse_ir(_diamonds_text(k))) for k in (2000, 4000))
    best_small, best_large = _best_audit_walls(small, large, build_graphs)
    assert best_large <= 2.5 * best_small, (best_small, best_large)


def _sends_text(n: int) -> str:
    """One function that sends its call value to the caller n times."""
    lines = [
        f"contract {ADDR}",
        "function f public sig 0x00000001 params () {",
        "  block B0:",
        "    0: vv = CALLVALUE",
        "    1: vc = CALLER",
    ]
    lines += [f"    {k + 2}: CALL vc vv" for k in range(n)]
    lines += ["    stop", "}", ""]
    return "\n".join(lines)


def test_audit_of_sends_sharing_one_amount_grows_linearly():
    # Intersecting the amount ancestors of every pair of transfers under a
    # selector read about 3.8x per doubling here; per-source call sites 2x.
    # Sized so the small input takes about 35 ms: at 15 ms one slow spell of
    # a shared host could cover all three of its runs.
    small, large = _sends_text(2000), _sends_text(4000)
    transfers = analyze_ir(small).semantics.transfers
    assert len(transfers) == 2000 and all(t.shares_amount_source for t in transfers)
    best_small, best_large = _best_audit_walls(small, large)
    assert best_large <= 2.5 * best_small, (best_small, best_large)


def _reference_decisions(program, db, reach, site: str, selector: str):
    """(function, block, short arm) -> the clause of the module docstring
    that makes the branch deciding for the checkpoint at `site` under
    `selector`, or None, for every branch under the selector; by the rule
    read plainly, over the Floyd-Warshall closure."""
    # The functions the selector's entry point reaches, and their branches.
    names = [f.name for f in program.public_functions() if f.selector == selector]
    for name in names:  # `names` grows while it is read
        names += [
            s.callee
            for b in program.function(name).blocks
            for s in b.statements
            if s.opcode is Opcode.CALLPRIVATE and s.callee not in names
        ]
    branches = [
        (name, bid, program.function(name).block(bid).terminator.cond, arm)
        for name in names
        for bid, arm in branch_structure(program.function(name))[1].items()
    ]
    site_fn = program.function(site.partition(".")[0])
    controlling = {c for c, _ in branch_structure(site_fn)[0][site]}
    operands = {a for a in program.statement(site).args if isinstance(a, str)}
    loads = [
        (db.const_of(s.args[0]), s.defvar)
        for _, _, s in program.statements()
        if s.opcode is Opcode.SLOAD
    ]
    decisions = {}
    for name, bid, cond, arm in branches:
        key = (name, bid, arm and arm[0])
        if cond in controlling:
            decisions[key] = "a"
            continue
        if arm is None:
            decisions[key] = "d"
            continue
        statements = [s for b in arm[1] for s in program.function(name).block(b).statements]
        if any(s.opcode is Opcode.CALLPRIVATE for s in statements):
            decisions[key] = "b"
            continue
        sets = {s.defvar for s in statements if s.defvar is not None}
        for s in statements:
            if s.opcode is Opcode.SSTORE:
                slot = db.const_of(s.args[0])
                sets |= {v for at, v in loads if None in (slot, at) or at == slot}
        reached = set().union(*(reach[v] for v in sets))
        outside = {c for f, b, c, _ in branches if f != name or b not in arm[1]}
        if not reached.isdisjoint(operands):
            decisions[key] = "c: an operand"
        elif not reached.isdisjoint(outside):
            decisions[key] = "c: a condition"
        else:
            decisions[key] = None
    return decisions


def test_free_branches_match_a_naive_oracle():
    # Every checkpoint's free branches, against the rule of the module
    # docstring.  The diamonds give one checkpoint many free branches; a
    # transfer inside an arm is decided by (a) alone.
    texts = [
        random_program_text(random.Random(seed), 120, with_loops=seed % 2 == 1)
        for seed in range(80)
    ]
    call_in_arm = REFUND_BEHIND_BRANCH.replace(
        "vh = ADD vx 1\n", "vh = ADD vx 1\n    1: CALL vx vx\n"
    )
    # Arms that store to a slot which later blocks load into a branch
    # condition or a sent value, so that clause (c) is met through storage.
    slot_flow = [
        random_program_text(
            random.Random(seed), 120, with_private=False, with_loops=seed % 2 == 1,
            with_slot_flow=True,
        )
        for seed in range(40)
    ]

    def decide(texts) -> dict[str, int]:
        """The decisions for every checkpoint of `texts`, counted by why."""
        seen = defaultdict(int)
        for text in texts:
            program = parse_ir(text)
            db = build_facts(program)
            ftg, sdg, _ = build_graphs(db)
            reach = defaultdict(set)
            for a, b in floyd_warshall_dataflow(program):
                reach[a].add(b)
            checkpoints = [(e.call_site, e.selector, e.follow) for e in ftg.edges]
            checkpoints += [(w.store_site, w.selector, w.follow) for w in sdg.writes]
            for site, selector, follow in checkpoints:
                decisions = _reference_decisions(program, db, reach, site, selector)
                assert follow == {br for br, why in decisions.items() if why is None}, (text, site)
                for why in decisions.values():
                    seen[why or "free"] += 1
        return seen

    seen = decide([*texts, _diamonds_text(50), call_in_arm])
    # Every clause decides some branch.
    assert set(seen) == {"a", "b", "c: an operand", "c: a condition", "d", "free"}, dict(seen)
    seen = decide(slot_flow)
    assert seen["c: an operand"] >= 20 and seen["c: a condition"] >= 20, dict(seen)
