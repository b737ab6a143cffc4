"""Induced-fact rules, pinned by hand examples and random-program oracles."""
from __future__ import annotations

import gc
import random
import time

from dappaudit.facts import FactDb, build_facts
from dappaudit.inference import (
    StorageRole,
    TransferKind,
    infer_sender_guards,
    infer_storage_roles,
    infer_transfers,
)
from dappaudit.model import Opcode, TermKind
from dappaudit.parser import parse_ir
from dappaudit.signatures import function_name, load_signatures, selectors_named
from helpers import (
    ADDR,
    floyd_warshall_dataflow,
    flip_dependence,
    random_program,
    random_program_text,
)


def _facts(text: str):
    return build_facts(parse_ir(text))


def test_token_transfer_rule():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vR, vA) {{
  block B0:
    0: v1 = CONST 0xa9059cbb
    1: v9 = CALL vT 0 v1 vR vA
    stop
}}
"""
    )
    (t,) = infer_transfers(db)
    assert t.kind is TransferKind.ERC20_TRANSFER
    assert (t.recipient, t.amount) == ("vR", "vA")
    assert t.selector == "0x00000001"
    assert t.call_site == "f.B0.1"


def test_transfer_from_rule_uses_second_and_third_args():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vFrom, vTo, vA) {{
  block B0:
    0: v1 = CONST 0x23b872dd
    1: v9 = CALL vT 0 v1 vFrom vTo vA
    stop
}}
"""
    )
    (t,) = infer_transfers(db)
    assert t.kind is TransferKind.ERC20_TRANSFER_FROM
    assert (t.recipient, t.amount) == ("vTo", "vA")


def test_plain_call_is_an_ether_transfer():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vV) {{
  block B0:
    0: CALL vT vV
    stop
}}
"""
    )
    (t,) = infer_transfers(db)
    assert t.kind is TransferKind.ETHER
    assert (t.recipient, t.amount) == ("vT", "vV")


def test_unknown_selector_is_not_a_token_transfer():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vR, vA) {{
  block B0:
    0: v1 = CONST 0x11112222
    1: v9 = CALL vT 0 v1 vR vA
    stop
}}
"""
    )
    assert infer_transfers(db) == ()


def test_transfer_fires_once_per_reaching_selector():
    db = _facts(
        f"""contract {ADDR}
function helper private params (vT) {{
  block H0:
    0: CALL vT 1
    returnprivate vT
}}
function f public sig 0x00000001 params (va) {{
  block B0:
    0: CALLPRIVATE helper va
    stop
}}
function g public sig 0x00000002 params (vb) {{
  block G0:
    0: CALLPRIVATE helper vb
    stop
}}
"""
    )
    transfers = infer_transfers(db)
    assert [t.selector for t in transfers] == ["0x00000001", "0x00000002"]
    assert {t.call_site for t in transfers} == {"helper.H0.0"}


SENDER_GUARD = f"""contract {ADDR}
function f public sig 0x00000001 params (vA) {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: vmask = CONST 0xffffffffffffffffffffffffffffffffffffffff
    3: vc2 = AND vc vmask
    4: veq = EQ vo vc2
    jumpi veq B1 B2
  block B1:
    0: SSTORE 1 vA
    stop
  block B2:
    revert
}}
"""


def test_sender_guard_matches_through_mask():
    (g,) = infer_sender_guards(_facts(SENDER_GUARD))
    assert (g.slot, g.selector) == (0, "0x00000001")
    assert g.load_site == "f.B0.0"
    assert g.compare_site == "f.B0.4"


def test_comparison_without_caller_is_no_guard():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vA) {{
  block B0:
    0: vo = SLOAD 0
    1: veq = EQ vo vA
    stop
}}
"""
    )
    assert infer_sender_guards(db) == ()


def test_non_constant_slot_is_no_guard():
    db = _facts(
        f"""contract {ADDR}
function f public sig 0x00000001 params (vS) {{
  block B0:
    0: vo = SLOAD vS
    1: vc = CALLER
    2: veq = EQ vo vc
    stop
}}
"""
    )
    assert infer_sender_guards(db) == ()


def test_owner_role_from_getter_selector():
    db = _facts(
        f"""contract {ADDR}
function ownerOf public sig 0x8da5cb5b params () {{
  block B0:
    0: vo = SLOAD 0
    return vo
}}
"""
    )
    roles = infer_storage_roles(db)
    assert [(r.role, r.slot, r.selector, r.rule) for r in roles] == [
        (StorageRole.OWNER, 0, "0x8da5cb5b", "owner-access")
    ]


def test_owner_role_from_guard_that_controls():
    roles = infer_storage_roles(_facts(SENDER_GUARD))
    assert [(r.role, r.slot) for r in roles] == [(StorageRole.OWNER, 0)]


def test_getter_without_return_flow_is_not_a_role():
    db = _facts(
        f"""contract {ADDR}
function ts public sig 0x18160ddd params () {{
  block B0:
    0: vs = SLOAD 2
    1: vother = CONST 7
    return vother
}}
"""
    )
    assert infer_storage_roles(db) == ()


def test_standard_getter_roles():
    db = _facts(
        f"""contract {ADDR}
function ts public sig 0x18160ddd params () {{
  block B0:
    0: vs = SLOAD 2
    return vs
}}
function pa public sig 0x5c975abb params () {{
  block P0:
    0: vp = SLOAD 3
    return vp
}}
function uri public sig 0xc87b56dd params (vid) {{
  block U0:
    0: vu = SLOAD 4
    return vu
}}
"""
    )
    roles = infer_storage_roles(db)
    assert {(r.role, r.slot) for r in roles} == {
        (StorageRole.SUPPLY, 2),
        (StorageRole.PAUSE, 3),
        (StorageRole.TOKEN_URI, 4),
    }
    assert all(r.rule == "standard-selector" for r in roles)


def test_lock_time_role_needs_timestamp_and_param():
    db = _facts(
        f"""contract {ADDR}
function lk public sig 0xdd467064 params (vtime) {{
  block B0:
    0: vnow = TIMESTAMP
    1: vsum = ADD vnow vtime
    2: SSTORE 5 vsum
    stop
}}
"""
    )
    roles = infer_storage_roles(db)
    assert [(r.role, r.slot, r.rule) for r in roles] == [
        (StorageRole.LOCK_TIME, 5, "time-lock-sum")
    ]
    # Without the public-parameter flow the rule must not fire.
    db2 = _facts(
        f"""contract {ADDR}
function lk public sig 0xdd467064 params (vtime) {{
  block B0:
    0: vnow = TIMESTAMP
    1: vsum = ADD vnow 3600
    2: SSTORE 5 vsum
    stop
}}
"""
    )
    assert infer_storage_roles(db2) == ()


def test_supply_accumulate_role():
    db = _facts(
        f"""contract {ADDR}
function mint public sig 0x00000007 params (vamt) {{
  block B0:
    0: vs = SLOAD 2
    1: vnew = ADD vs vamt
    2: SSTORE 2 vnew
    stop
}}
"""
    )
    roles = infer_storage_roles(db)
    assert [(r.role, r.slot, r.rule) for r in roles] == [
        (StorageRole.SUPPLY, 2, "supply-accumulate")
    ]
    # Same-slot store without the additive load does not mark supply.
    db2 = _facts(
        f"""contract {ADDR}
function setv public sig 0x00000008 params (vamt) {{
  block B0:
    0: SSTORE 2 vamt
    stop
}}
"""
    )
    assert infer_storage_roles(db2) == ()


def test_pause_guard_role_nonzero_constant_is_true():
    db = _facts(
        f"""contract {ADDR}
function pz public sig 0x00000009 params () {{
  block B0:
    0: vp = SLOAD 3
    1: vz = ISZERO vp
    jumpi vz B1 B2
  block B1:
    0: SSTORE 3 1
    stop
  block B2:
    revert
}}
"""
    )
    roles = infer_storage_roles(db)
    assert [(r.role, r.slot, r.rule) for r in roles] == [
        (StorageRole.PAUSE, 3, "pause-guard")
    ]
    # Storing zero clears the flag; that is not a pause setter.
    db2 = _facts(
        f"""contract {ADDR}
function pz public sig 0x00000009 params () {{
  block B0:
    0: vp = SLOAD 3
    1: vz = ISZERO vp
    jumpi vz B1 B2
  block B1:
    0: SSTORE 3 0
    stop
  block B2:
    revert
}}
"""
    )
    assert infer_storage_roles(db2) == ()


def test_pause_rule_grows_linearly_in_slots():
    # n constant slots, each loaded once and set to 1 once.  Matching every
    # load against every store costs n**2: 4x the time per doubling.
    def flags(n: int):
        body = [line for i in range(n) for line in (f"vl{i} = SLOAD {i}", f"SSTORE {i} 1")]
        return _facts(
            "\n".join(
                [
                    f"contract {ADDR}",
                    "function f public sig 0x00000001 params () {",
                    "  block B0:",
                    *(f"    {k}: {line}" for k, line in enumerate(body)),
                    "    stop",
                    "}",
                    "",
                ]
            )
        )

    def wall(db) -> float:
        start = time.perf_counter()
        assert infer_storage_roles(db) == ()
        return time.perf_counter() - start

    small, large = flags(2000), flags(4000)
    best_small = best_large = float("inf")
    # Best of 3, the sizes alternating and the collector off (see the chain
    # tests in test_facts.py).
    gc.disable()
    try:
        for _ in range(3):
            best_small = min(best_small, wall(small))
            best_large = min(best_large, wall(large))
    finally:
        gc.enable()
    assert best_large <= 3 * best_small, (best_small, best_large)


def test_sender_guards_of_the_dense_random_program_are_bounded():
    # 5138 lines of dense dataflow: 502 constant-slot loads, 167 caller
    # defs and 528 comparison rows.  Matching every load against every
    # caller def costs about 3 s; one pass over the rows, about 50 ms.
    text = random_program_text(random.Random(3), 8000)
    assert len(text.splitlines()) == 5138
    program = parse_ir(text)
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            # A fresh database each time, so the dataflow walks are timed too.
            db = build_facts(program)
            start = time.perf_counter()
            infer_sender_guards(db)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    assert best < 0.5, best


def test_role_dedup_prefers_earlier_rule():
    # Slot 2 is both returned by the supply getter and accumulated by mint.
    db = _facts(
        f"""contract {ADDR}
function ts public sig 0x18160ddd params () {{
  block B0:
    0: vs = SLOAD 2
    return vs
}}
function mint public sig 0x00000007 params (vamt) {{
  block M0:
    0: vs2 = SLOAD 2
    1: vnew = ADD vs2 vamt
    2: SSTORE 2 vnew
    stop
}}
"""
    )
    roles = infer_storage_roles(db)
    by_sel = {(r.role, r.slot, r.selector): r.rule for r in roles}
    assert by_sel[(StorageRole.SUPPLY, 2, "0x18160ddd")] == "standard-selector"
    assert by_sel[(StorageRole.SUPPLY, 2, "0x00000007")] == "supply-accumulate"
    assert len(roles) == 2


def _walk_test_program(stored: str) -> str:
    """The caller's value and the parameters meet no comparison and are sent
    away; `stored` goes to slot 1."""
    return f"""contract {ADDR}
function f public sig 0x00000001 params (vA, vB) {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: vnow = TIMESTAMP
    3: vlt = LT vo vA
    4: veq = EQ vB vo
    5: vgt = GT vnow 100
    6: vsum = ADD vnow vA
    7: SSTORE 1 {stored}
    8: CALL vc vB
    stop
}}
"""


def test_guard_and_lock_time_rules_walk_once_from_their_sources(monkeypatch):
    asked: list = []
    reaching = FactDb.reaching
    monkeypatch.setattr(
        FactDb, "reaching", lambda self, vs: asked.append(vs) or reaching(self, vs)
    )
    walks: list[list[str]] = []
    reached_from = FactDb.reached_from

    def recording(self, sources):
        walks.append(sorted(sources))
        return reached_from(self, walks[-1])

    monkeypatch.setattr(FactDb, "reached_from", recording)

    # No caller def reaches a comparison: no side is walked back from.
    db = _facts(_walk_test_program("vA"))
    assert infer_sender_guards(db) == ()
    assert (asked, walks) == ([], [["vc"]])
    # No stored value is timestamp-fed: the parameters are not walked from.
    walks.clear()
    assert infer_storage_roles(db, ()) == ()
    assert walks == [["vnow"]]
    # A timestamp-fed store makes the second walk, and the rule fires.
    walks.clear()
    roles = infer_storage_roles(_facts(_walk_test_program("vsum")), ())
    assert [(r.role, r.slot) for r in roles] == [(StorageRole.LOCK_TIME, 1)]
    assert walks == [["vnow"], ["vA", "vB"]]


def test_selectors_named_matches_a_scan_of_the_table():
    table = load_signatures()
    names = {function_name(sig) for sig in table.values()}
    assert {"owner", "totalSupply", "transfer"} <= names
    for name in [*sorted(names), "noSuchFunction"]:
        scan = {sel for sel, sig in table.items() if function_name(sig) == name}
        assert selectors_named(name) == scan, name


# ---------------------------------------------------------------------------
# Naive premise-enumeration oracles on random programs


def _naive_selectors(program):
    reach = {fn.name: set() for fn in program.functions}
    for fn in program.functions:
        if fn.selector:
            reach[fn.name].add(fn.selector)
    for _ in range(len(program.functions) + 1):
        for fn, _, s in program.statements():
            if s.opcode is Opcode.CALLPRIVATE:
                reach[s.callee] |= reach[fn.name]
    return reach


def _naive_const(program):
    """Recursive constant evaluation (the package folds with a fixpoint)."""
    word = 1 << 256
    defs = {s.defvar: s for _, _, s in program.statements() if s.defvar is not None}
    memo: dict[str, int | None] = {}

    def value(op):
        if isinstance(op, int):
            return op % word
        if op in memo:
            return memo[op]
        memo[op] = None
        s = defs.get(op)
        if s is None:
            return None
        if s.opcode is Opcode.CONST:
            memo[op] = s.args[0] % word
        elif s.opcode.value in ("ADD", "SUB", "MUL", "DIV"):
            a, b = value(s.args[0]), value(s.args[1])
            if a is not None and b is not None:
                if s.opcode is Opcode.ADD:
                    memo[op] = (a + b) % word
                elif s.opcode is Opcode.SUB:
                    memo[op] = (a - b) % word
                elif s.opcode is Opcode.MUL:
                    memo[op] = (a * b) % word
                elif b != 0:
                    memo[op] = a // b
        return memo[op]

    for v in list(defs):
        value(v)
    return {v: c for v, c in memo.items() if c is not None}


def _const_of(consts, op):
    return op if isinstance(op, int) else consts.get(op)


def _naive_transfers(program):
    consts = _naive_const(program)
    reach = _naive_selectors(program)
    shapes = {0xA9059CBB: (0, 1, "erc20_transfer"), 0x23B872DD: (1, 2, "erc20_transfer_from")}
    out = set()
    for fn, _, s in program.statements():
        if s.opcode is not Opcode.CALL:
            continue
        if len(s.args) == 2:
            for sel in reach[fn.name]:
                out.add((s.sid, s.args[0], s.args[1], sel, "ether"))
            continue
        sig = _const_of(consts, s.args[2])
        if sig not in shapes:
            continue
        r, a, kind = shapes[sig]
        abi = s.args[3:]
        if r < len(abi) and a < len(abi):
            for sel in reach[fn.name]:
                out.add((s.sid, abi[r], abi[a], sel, kind))
    return out


def _naive_guards(program):
    consts = _naive_const(program)
    reach = _naive_selectors(program)
    df = floyd_warshall_dataflow(program)

    def flows(a, b):
        return isinstance(a, str) and isinstance(b, str) and (a == b or (a, b) in df)

    callers = [s.defvar for _, _, s in program.statements() if s.opcode is Opcode.CALLER]
    comparisons = [
        s for _, _, s in program.statements() if s.opcode.value in ("LT", "GT", "EQ")
    ]
    out = set()
    for fn, _, s in program.statements():
        if s.opcode is not Opcode.SLOAD:
            continue
        slot = _const_of(consts, s.args[0])
        if slot is None:
            continue
        for c in comparisons:
            l, r = c.args
            for cd in callers:
                if (flows(s.defvar, l) and flows(cd, r)) or (
                    flows(s.defvar, r) and flows(cd, l)
                ):
                    for sel in reach[fn.name]:
                        out.add((slot, sel))
    return out


def _naive_roles(program):
    consts = _naive_const(program)
    reach = _naive_selectors(program)
    df = floyd_warshall_dataflow(program)
    guards = _naive_guards(program)

    def flows(a, b):
        return isinstance(a, str) and isinstance(b, str) and (a == b or (a, b) in df)

    flip = {fn.name: flip_dependence(fn) for fn in program.functions}
    block_of = {}
    for fn in program.functions:
        for b in fn.blocks:
            for s in b.statements:
                block_of[s.sid] = (fn.name, b.bid)

    def controls(x, sid):
        fname, bid = block_of[sid]
        return any(flows(x, cond) for cond in flip[fname][bid])

    out = set()
    timestamps = [s.defvar for _, _, s in program.statements() if s.opcode is Opcode.TIMESTAMP]
    params = [p for fn in program.functions if fn.selector for p in fn.params]
    sloads = [
        (fn, s) for fn, _, s in program.statements() if s.opcode is Opcode.SLOAD
    ]
    sstores = [
        (fn, s) for fn, _, s in program.statements() if s.opcode is Opcode.SSTORE
    ]
    adds = [
        s for _, _, s in program.statements() if s.opcode is Opcode.ADD
    ]

    # owner via getter-return or guard+controls
    for fn, s in sloads:
        slot = _const_of(consts, s.args[0])
        if slot is None:
            continue
        x = s.defvar
        for sel in reach[fn.name]:
            pub = next(f for f in program.functions if f.selector == sel)
            returned = any(
                flows(x, v)
                for b in pub.blocks
                if b.terminator.kind is TermKind.RETURN
                for v in b.terminator.values
            )
            if sel == "0x8da5cb5b" and returned:
                out.add(("owner", slot, sel))
            if (slot, sel) in guards and any(
                controls(x, s2.sid)
                for f2 in program.functions
                for b2 in f2.blocks
                for s2 in b2.statements
            ):
                out.add(("owner", slot, sel))
            getter = {"0x18160ddd": "supply", "0x5c975abb": "pause", "0xc87b56dd": "token_uri"}
            if sel in getter and returned:
                out.add((getter[sel], slot, sel))

    for fn, s in sstores:
        slot = _const_of(consts, s.args[0])
        if slot is None:
            continue
        z = s.args[1]
        if any(flows(t, z) for t in timestamps) and any(flows(p, z) for p in params):
            for sel in reach[fn.name]:
                out.add(("lock_time", slot, sel))
        for add in adds:
            if not flows(add.defvar, z):
                continue
            same_slot_loads = [
                s2.defvar
                for _, s2 in sloads
                if _const_of(consts, s2.args[0]) == slot
            ]
            if any(
                flows(x, v)
                for v in add.args
                if isinstance(v, str)
                for x in same_slot_loads
            ):
                for sel in reach[fn.name]:
                    out.add(("supply", slot, sel))

    for fnl, l in sloads:
        slot = _const_of(consts, l.args[0])
        if slot is None:
            continue
        for fns, st in sstores:
            if _const_of(consts, st.args[0]) != slot:
                continue
            stored = _const_of(consts, st.args[1])
            if stored is None or stored == 0:
                continue
            if controls(l.defvar, st.sid):
                for sel in reach[fnl.name]:
                    out.add(("pause", slot, sel))
    return out


def test_random_programs_match_naive_oracles():
    rng = random.Random(2024)
    for i in range(210):
        program = random_program(rng)
        db = build_facts(program)
        got_t = {
            (t.call_site, t.recipient, t.amount, t.selector, t.kind.value)
            for t in infer_transfers(db)
        }
        assert got_t == _naive_transfers(program), f"transfers, instance {i}"
        got_g = {(g.slot, g.selector) for g in infer_sender_guards(db)}
        assert got_g == _naive_guards(program), f"guards, instance {i}"
        got_r = {(r.role.value, r.slot, r.selector) for r in infer_storage_roles(db)}
        assert got_r == _naive_roles(program), f"roles, instance {i}"


def test_inference_is_function_order_invariant():
    text_a = f"""contract {ADDR}
function a public sig 0x00000001 params (vT) {{
  block A0:
    0: CALL vT 5
    stop
}}
function b public sig 0x00000002 params (vU) {{
  block B0:
    0: CALL vU 6
    stop
}}
"""
    text_b = text_a.replace("function a", "function TMP").replace(
        "function b", "function a"
    ).replace("function TMP", "function b")
    t_a = infer_transfers(_facts(text_a))
    t_b = infer_transfers(_facts(text_b))
    assert {(t.selector, t.amount) for t in t_a} == {(t.selector, t.amount) for t in t_b}
