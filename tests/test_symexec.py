"""Symbolic expressions, feasibility checking and the guided executor.

Hand fixtures pin the rendering conventions, the loop machine and the
capture rules; random programs are cross-checked against the concrete
reference interpreter in helpers.py.
"""
from __future__ import annotations

import itertools
import random

import pytest

from dappaudit.executor import (
    CheckpointState,
    ExecutionResult,
    Limits,
    execute_function,
)
from dappaudit.facts import build_facts
from dappaudit.feasibility import Feasibility, check_feasible
from dappaudit.graphs import build_graphs
from dappaudit.parser import parse_ir
from dappaudit.symexpr import (
    MASK,
    UnboundLeaf,
    binop,
    calldata,
    callvalue,
    caller,
    const,
    eval_concrete,
    fresh,
    iszero,
    leaves,
    render,
    store,
)
from helpers import ADDR, concrete_execute, random_program


# ---------------------------------------------------------------------------
# Expression trees


def test_render_is_canonical_prefix_form():
    e = binop("div", binop("sub", store(1), calldata("0x11223344", 0)), const(100))
    assert render(e) == "div(sub(store(1), calldata(0x11223344,0)), 100)"
    assert render(caller()) == "caller"
    assert render(iszero(callvalue())) == "iszero(callvalue)"


def test_constant_folding():
    assert binop("mul", const(5), const(20)) == const(100)
    assert binop("add", const(MASK), const(1)) == const(0)
    assert binop("sub", const(0), const(1)) == const(MASK)
    # Division by a known zero can fold even with a symbolic left side.
    assert binop("div", callvalue(), const(0)) == const(0)
    assert binop("mod", callvalue(), const(0)) == const(0)
    assert iszero(const(0)) == const(1)
    assert iszero(const(7)) == const(0)
    assert not binop("div", callvalue(), const(20)).is_const


def test_eval_concrete_word_semantics():
    fee = binop("div", binop("mul", callvalue(), const(20)), const(100))
    assert eval_concrete(fee, {"callvalue": 5}) == 1
    wrap = binop("sub", store(0), const(1))
    assert eval_concrete(wrap, {"store(0)": 0}) == MASK
    dynzero = binop("div", callvalue(), store(0))
    assert eval_concrete(dynzero, {"callvalue": 9, "store(0)": 0}) == 0
    cmp = binop("lt", callvalue(), const(3))
    assert eval_concrete(cmp, {"callvalue": 2}) == 1
    assert eval_concrete(cmp, {"callvalue": 3}) == 0


def test_eval_concrete_raises_on_missing_binding():
    with pytest.raises(UnboundLeaf) as err:
        eval_concrete(binop("add", callvalue(), store(2)), {"callvalue": 1})
    assert err.value.name == "store(2)"


def _ref_eval(e, bindings):
    """Independent recursive evaluator used as the arithmetic oracle."""
    if e.op == "const":
        return e.value & MASK
    if e.op == "iszero":
        return 1 if _ref_eval(e.args[0], bindings) == 0 else 0
    if not e.args:
        return bindings[render(e)] & MASK
    x = _ref_eval(e.args[0], bindings)
    y = _ref_eval(e.args[1], bindings)
    if e.op == "add":
        return (x + y) & MASK
    if e.op == "sub":
        return (x - y) & MASK
    if e.op == "mul":
        return (x * y) & MASK
    if e.op == "div":
        return 0 if y == 0 else x // y
    if e.op == "mod":
        return 0 if y == 0 else x % y
    if e.op == "lt":
        return 1 if x < y else 0
    if e.op == "gt":
        return 1 if x > y else 0
    if e.op == "eq":
        return 1 if x == y else 0
    if e.op == "and":
        return x & y
    if e.op == "or":
        return x | y
    raise AssertionError(e.op)


def test_eval_concrete_matches_reference_on_random_trees():
    rng = random.Random(31337)
    pool = [
        callvalue(),
        caller(),
        store(0),
        store(1),
        calldata("0x01020304", 0),
        fresh("x"),
    ]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.3:
                return const(rng.randrange(0, 1 << 256))
            return rng.choice(pool)
        if rng.random() < 0.15:
            return iszero(build(depth - 1))
        op = rng.choice(["add", "sub", "mul", "div", "mod", "lt", "gt", "eq", "and", "or"])
        return binop(op, build(depth - 1), build(depth - 1))

    for _ in range(1000):
        e = build(4)
        bindings = {}
        for k in leaves(e):
            bindings[k] = rng.choice((0, 1, 2, rng.randrange(0, 1 << 256), MASK))
        assert eval_concrete(e, bindings) == _ref_eval(e, bindings)


# ---------------------------------------------------------------------------
# Feasibility


def test_empty_path_is_feasible():
    assert check_feasible(()) is Feasibility.FEASIBLE


def test_contradictory_storage_equalities_are_infeasible():
    path = (
        binop("eq", store(1), const(1000)),
        binop("eq", store(1), const(5)),
    )
    assert check_feasible(path) is Feasibility.INFEASIBLE


def test_simple_lower_bound_is_feasible():
    assert check_feasible((binop("gt", callvalue(), const(0)),)) is Feasibility.FEASIBLE


def test_nonlinear_equality_stays_unknown():
    path = (binop("eq", binop("mul", fresh("a"), fresh("b")), const(100)),)
    assert check_feasible(path) is Feasibility.UNKNOWN


def test_iszero_flips_polarity():
    path = (
        iszero(binop("eq", store(0), const(5))),
        binop("eq", store(0), const(5)),
    )
    assert check_feasible(path) is Feasibility.INFEASIBLE


def test_bitwise_and_requires_both_sides():
    path = (
        binop(
            "and",
            binop("gt", callvalue(), const(10)),
            binop("lt", callvalue(), const(5)),
        ),
    )
    assert check_feasible(path) is Feasibility.INFEASIBLE


def test_zero_disjunction_zeroes_both_sides():
    path = (
        iszero(binop("or", callvalue(), store(0))),
        binop("gt", callvalue(), const(0)),
    )
    assert check_feasible(path) is Feasibility.INFEASIBLE


def test_holes_can_exhaust_an_interval():
    neq0 = iszero(binop("eq", callvalue(), const(0)))
    assert check_feasible((neq0, binop("lt", callvalue(), const(1)))) is Feasibility.INFEASIBLE
    assert check_feasible((neq0, binop("lt", callvalue(), const(2)))) is Feasibility.FEASIBLE


def test_word_boundary_comparisons():
    assert check_feasible((binop("lt", callvalue(), const(0)),)) is Feasibility.INFEASIBLE
    assert check_feasible((binop("gt", callvalue(), const(MASK)),)) is Feasibility.INFEASIBLE


def test_constant_on_left_flips_the_atom():
    assert check_feasible((binop("lt", const(5), callvalue()),)) is Feasibility.FEASIBLE
    assert check_feasible((binop("gt", const(0), callvalue()),)) is Feasibility.INFEASIBLE


def test_impure_constraint_can_still_be_witnessed():
    path = (binop("gt", binop("add", callvalue(), const(1)), const(0)),)
    assert check_feasible(path) is Feasibility.FEASIBLE


def test_feasible_checkpoints_keep_unknown():
    # Downstream consumers treat unknown as feasible to preserve recall.
    cps = tuple(
        CheckpointState(f"f.B0.{i}", "0x01020304", "CALL", (), (), verdict)
        for i, verdict in enumerate(Feasibility)
    )
    kept = ExecutionResult(cps, False, 1).feasible_checkpoints()
    assert [cp.feasibility for cp in kept] == [
        Feasibility.FEASIBLE,
        Feasibility.UNKNOWN,
    ]


def test_verdicts_agree_with_brute_force_on_atom_systems():
    # Single-leaf atoms with constants <= 4: any satisfiable system has a
    # witness inside the small domain, so brute force is complete here.
    rng = random.Random(99)
    pool = [callvalue(), store(0), store(1)]
    domain = (0, 1, 2, 3, 4, 5, MASK)
    infeasible_seen = 0
    for _ in range(400):
        path = []
        for _ in range(rng.randint(1, 4)):
            leaf = rng.choice(pool)
            op = rng.choice(["lt", "gt", "eq"])
            c = const(rng.randint(0, 4))
            atom = binop(op, leaf, c) if rng.random() < 0.7 else binop(op, c, leaf)
            if rng.random() < 0.4:
                atom = iszero(atom)
            path.append(atom)
        verdict = check_feasible(path)
        keys = sorted({k for e in path for k in leaves(e)})
        found = any(
            all(eval_concrete(e, dict(zip(keys, combo))) != 0 for e in path)
            for combo in itertools.product(domain, repeat=len(keys))
        )
        assert found == (verdict is not Feasibility.INFEASIBLE)
        infeasible_seen += verdict is Feasibility.INFEASIBLE
    assert infeasible_seen >= 20


# ---------------------------------------------------------------------------
# Executor: straight-line capture and forking


def _prog_and_plan(text):
    program = parse_ir(text)
    _, _, plan = build_graphs(build_facts(program))
    return program, plan


FEE_SPLIT_LINE = f"""\
contract {ADDR}
function withdraw public sig 0x01020304 params () {{
  block W0:
    0: v1 = CALLVALUE
    1: v2 = DIV v1 0x14
    2: vo = CONST 0xbeef
    3: CALL vo v2
    stop
}}
"""


def test_straight_line_transfer_capture():
    program, plan = _prog_and_plan(FEE_SPLIT_LINE)
    res = execute_function(program, "0x01020304", plan)
    assert not res.budget_exceeded
    assert res.states_explored == 1
    assert len(res.checkpoints) == 1
    cp = res.checkpoints[0]
    assert cp.checkpoint == "withdraw.W0.3"
    assert cp.selector == "0x01020304"
    assert cp.opcode == "CALL"
    assert render(cp.args[0]) == str(0xBEEF)
    assert render(cp.args[1]) == "div(callvalue, 20)"
    assert cp.path == ()
    assert cp.feasibility is Feasibility.FEASIBLE


GUARDED = f"""\
contract {ADDR}
function claim public sig 0x0a0b0c0d params (vamt) {{
  block C0:
    0: vauth = SLOAD 1
    1: vok = EQ vauth 0x3e8
    jumpi vok C1 C2
  block C1:
    0: vto = CALLER
    1: CALL vto vamt
    stop
  block C2:
    revert
}}
"""


def test_guard_becomes_a_path_constraint():
    program, plan = _prog_and_plan(GUARDED)
    res = execute_function(program, "0x0a0b0c0d", plan)
    assert res.states_explored == 2
    assert len(res.checkpoints) == 1
    cp = res.checkpoints[0]
    assert [render(c) for c in cp.path] == ["eq(store(1), 1000)"]
    assert cp.feasibility is Feasibility.FEASIBLE
    assert render(cp.args[0]) == "caller"
    assert render(cp.args[1]) == "calldata(0x0a0b0c0d,0)"


DOUBLE_GUARD = f"""\
contract {ADDR}
function claim public sig 0x0a0b0c0e params (vamt) {{
  block C0:
    0: vauth = SLOAD 1
    1: vok = EQ vauth 0x3e8
    jumpi vok C1 CX
  block C1:
    0: vauth2 = SLOAD 1
    1: vok2 = EQ vauth2 5
    jumpi vok2 C2 CX
  block C2:
    0: vto = CALLER
    1: CALL vto vamt
    stop
  block CX:
    revert
}}
"""


def test_contradictory_guards_mark_checkpoint_infeasible():
    program, plan = _prog_and_plan(DOUBLE_GUARD)
    res = execute_function(program, "0x0a0b0c0e", plan)
    assert len(res.checkpoints) == 1
    cp = res.checkpoints[0]
    assert [render(c) for c in cp.path] == [
        "eq(store(1), 1000)",
        "eq(store(1), 5)",
    ]
    assert cp.feasibility is Feasibility.INFEASIBLE
    assert res.feasible_checkpoints() == ()


WRITE_THEN_READ = f"""\
contract {ADDR}
function set public sig 0x0000000a params (vx) {{
  block S0:
    0: SSTORE 2 vx
    1: vy = SLOAD 2
    2: vo = CONST 0xbeef
    3: CALL vo vy
    stop
}}
"""


def test_storage_reads_see_earlier_writes():
    program, plan = _prog_and_plan(WRITE_THEN_READ)
    res = execute_function(program, "0x0000000a", plan)
    (cp,) = [c for c in res.checkpoints if c.opcode == "CALL"]
    assert render(cp.args[1]) == "calldata(0x0000000a,0)"


FORK = f"""\
contract {ADDR}
function pick public sig 0x0000000b params (vx) {{
  block P0:
    0: vc = GT vx 5
    1: va = CONST 0xaaa1
    2: vb = CONST 0xaaa2
    jumpi vc P1 P2
  block P1:
    0: CALL va vx
    stop
  block P2:
    0: CALL vb vx
    stop
}}
"""


def test_symbolic_branches_fork_with_complementary_constraints():
    program, plan = _prog_and_plan(FORK)
    res = execute_function(program, "0x0000000b", plan)
    assert res.states_explored == 2
    by_site = {cp.checkpoint: cp for cp in res.checkpoints}
    assert set(by_site) == {"pick.P1.0", "pick.P2.0"}
    cond = "gt(calldata(0x0000000b,0), 5)"
    assert [render(c) for c in by_site["pick.P1.0"].path] == [cond]
    assert [render(c) for c in by_site["pick.P2.0"].path] == [f"iszero({cond})"]
    assert all(cp.feasibility is Feasibility.FEASIBLE for cp in res.checkpoints)


CONST_COND = f"""\
contract {ADDR}
function go public sig 0x0000000c params (vx) {{
  block G0:
    0: vone = CONST 1
    1: va = CONST 0xaaa1
    2: vb = CONST 0xaaa2
    jumpi vone G1 G2
  block G1:
    0: CALL va vx
    stop
  block G2:
    0: CALL vb vx
    stop
}}
"""


def test_constant_conditions_do_not_fork():
    program, plan = _prog_and_plan(CONST_COND)
    res = execute_function(program, "0x0000000c", plan)
    assert res.states_explored == 1
    assert [cp.checkpoint for cp in res.checkpoints] == ["go.G1.0"]
    assert res.checkpoints[0].path == ()


def test_unplanned_selector_yields_empty_result():
    program, plan = _prog_and_plan(FORK)
    res = execute_function(program, "0xdeadbeef", plan)
    assert res.checkpoints == ()
    assert not res.budget_exceeded


# ---------------------------------------------------------------------------
# Executor: loop machine


CONCRETE_LOOP = f"""\
contract {ADDR}
function drip public sig 0x0000000d params () {{
  block L0:
    0: v0 = CONST 0
    jump L1
  block L1:
    0: vi = PHI vn v0
    1: vn = ADD vi 1
    2: vc = LT vn 3
    jumpi vc L1 L2
  block L2:
    0: vo = CONST 0xbeef
    1: CALL vo vn
    stop
}}
"""


def test_concrete_loop_exits_naturally_within_bound():
    program, plan = _prog_and_plan(CONCRETE_LOOP)
    res = execute_function(program, "0x0000000d", plan)
    assert res.states_explored == 1
    assert len(res.checkpoints) == 1
    cp = res.checkpoints[0]
    assert render(cp.args[1]) == "3"
    assert cp.path == ()


def test_concrete_loop_checkpoint_is_stable_under_larger_bounds():
    program, plan = _prog_and_plan(CONCRETE_LOOP)
    base = execute_function(program, "0x0000000d", plan)
    wide = execute_function(program, "0x0000000d", plan, Limits(loop_bound=10))
    key = [(cp.checkpoint, render(cp.args[1])) for cp in base.checkpoints]
    assert key == [(cp.checkpoint, render(cp.args[1])) for cp in wide.checkpoints]
    # A bound below the trip count prunes the path before its exit.
    narrow = execute_function(program, "0x0000000d", plan, Limits(loop_bound=2))
    assert narrow.checkpoints == ()


SYMBOLIC_LOOP = f"""\
contract {ADDR}
function pump public sig 0x0000000e params (vlim) {{
  block S0:
    0: v0 = CONST 0
    jump S1
  block S1:
    0: vi = PHI vn v0
    1: vn = ADD vi 1
    2: vc = LT vn vlim
    jumpi vc S1 S2
  block S2:
    0: vo = CONST 0xbeef
    1: CALL vo vi
    stop
}}
"""


def test_symbolic_loop_forks_one_exit_per_iteration():
    program, plan = _prog_and_plan(SYMBOLIC_LOOP)
    res = execute_function(program, "0x0000000e", plan)
    assert len(res.checkpoints) == 4
    exits = sorted(res.checkpoints, key=lambda cp: len(cp.path))
    assert [render(cp.args[1]) for cp in exits] == ["0", "1", "2", "0"]
    assert [len(cp.path) for cp in exits] == [1, 2, 3, 4]
    # The rolled-over exit reuses the first-iteration condition, which
    # contradicts the continuation constraints already on the path.
    assert exits[3].feasibility is Feasibility.INFEASIBLE
    assert [cp.feasibility for cp in exits[:3]] == [Feasibility.FEASIBLE] * 3
    lim = "calldata(0x0000000e,0)"
    assert [render(c) for c in exits[3].path] == [
        f"lt(1, {lim})",
        f"lt(2, {lim})",
        f"lt(3, {lim})",
        f"iszero(lt(1, {lim}))",
    ]


# ---------------------------------------------------------------------------
# Executor: private calls


PRIVATE_SUM = f"""\
contract {ADDR}
function helper private params (vpa, vpb) {{
  block H0:
    0: vps = ADD vpa vpb
    returnprivate vpa vps
}}
function pay public sig 0x0000000f params (vx, vy) {{
  block Y0:
    0: vsum = CALLPRIVATE helper vx vy
    1: vo = CONST 0xbeef
    2: CALL vo vsum
    stop
}}
"""


def test_private_call_inlines_and_binds_return_value():
    program, plan = _prog_and_plan(PRIVATE_SUM)
    res = execute_function(program, "0x0000000f", plan)
    (cp,) = res.checkpoints
    assert render(cp.args[1]) == "add(calldata(0x0000000f,0), calldata(0x0000000f,1))"


PRIVATE_FAN = f"""\
contract {ADDR}
function helper private params (vpa) {{
  block H0:
    0: vo2 = CONST 0xbeef
    1: CALL vo2 vpa
    returnprivate vpa 0
}}
function fan public sig 0x00000010 params () {{
  block F0:
    0: vr1 = CALLPRIVATE helper 1
    1: vr2 = CALLPRIVATE helper 2
    2: vr3 = CALLPRIVATE helper 3
    3: vr4 = CALLPRIVATE helper 4
    4: vr5 = CALLPRIVATE helper 5
    stop
}}
"""


def test_private_block_counters_reset_per_invocation():
    # Five sequential invocations exceed loop_bound+1 visits of the helper
    # entry block; the per-call reset keeps every invocation alive.
    program, plan = _prog_and_plan(PRIVATE_FAN)
    res = execute_function(program, "0x00000010", plan)
    assert res.states_explored == 1
    assert [cp.checkpoint for cp in res.checkpoints] == ["helper.H0.1"] * 5
    assert [render(cp.args[1]) for cp in res.checkpoints] == ["1", "2", "3", "4", "5"]


# ---------------------------------------------------------------------------
# Executor: limits and capture discipline


def test_state_budget_truncates_with_flag():
    program, plan = _prog_and_plan(FORK)
    res = execute_function(program, "0x0000000b", plan, Limits(max_states=1))
    assert res.budget_exceeded
    assert res.states_explored == 1
    assert [cp.checkpoint for cp in res.checkpoints] == ["pick.P1.0"]


DEEP_CHAIN = f"""\
contract {ADDR}
function walk public sig 0x00000011 params (vx) {{
  block A0:
    jump A1
  block A1:
    jump A2
  block A2:
    jump A3
  block A3:
    0: vo = CONST 0xbeef
    1: CALL vo vx
    stop
}}
"""


def test_depth_limit_prunes_long_paths():
    program, plan = _prog_and_plan(DEEP_CHAIN)
    assert len(execute_function(program, "0x00000011", plan).checkpoints) == 1
    shallow = execute_function(program, "0x00000011", plan, Limits(max_depth=2))
    assert shallow.checkpoints == ()


MINT = f"""\
contract {ADDR}
function mint public sig 0x00000012 params (vamt) {{
  block M0:
    0: vs = SLOAD 3
    1: vns = ADD vs vamt
    2: SSTORE 3 vns
    stop
}}
"""


def test_role_store_captured_before_the_write():
    program, plan = _prog_and_plan(MINT)
    res = execute_function(program, "0x00000012", plan)
    (cp,) = res.checkpoints
    assert cp.checkpoint == "mint.M0.2"
    assert cp.opcode == "SSTORE"
    assert render(cp.args[0]) == "3"
    assert render(cp.args[1]) == "add(store(3), calldata(0x00000012,0))"


def test_runs_are_deterministic():
    program, plan = _prog_and_plan(SYMBOLIC_LOOP)

    def snapshot():
        res = execute_function(program, "0x0000000e", plan)
        return [
            (cp.checkpoint, tuple(render(a) for a in cp.args), tuple(render(c) for c in cp.path), cp.feasibility)
            for cp in res.checkpoints
        ]

    assert snapshot() == snapshot()


def test_raising_limits_never_drops_feasible_checkpoints():
    rng = random.Random(77)
    checked = 0
    for _ in range(80):
        program = random_program(rng)
        _, _, plan = build_graphs(build_facts(program))
        for sel in plan.selectors():
            small = execute_function(program, sel, plan, Limits(max_states=2))
            big = execute_function(program, sel, plan)

            def keys(res):
                return {
                    (cp.checkpoint, tuple(render(c) for c in cp.path))
                    for cp in res.feasible_checkpoints()
                }

            assert keys(small) <= keys(big)
            checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# Oracle: symbolic checkpoints replay concretely


def _match_one_input(program, sel, res, targets, rng):
    bindings: dict[str, int] = {}

    def need(name: str) -> int:
        if name not in bindings:
            bindings[name] = rng.choice((0, 1, 2, 3, 7, 100, MASK))
        return bindings[name]

    def eval_extending(e):
        while True:
            try:
                return eval_concrete(e, bindings)
            except UnboundLeaf as missing:
                need(missing.name)

    visits = concrete_execute(program, sel, need)
    concrete_cp = [(sid, args) for sid, args in visits if sid in targets]
    matched = [
        cp for cp in res.checkpoints if all(eval_extending(c) != 0 for c in cp.path)
    ]
    assert len(matched) == len(concrete_cp)
    for cp, (sid, cargs) in zip(matched, concrete_cp):
        assert cp.checkpoint == sid
        # The input is a live witness for this path, so an infeasible
        # verdict here would be a soundness bug.
        assert cp.feasibility is not Feasibility.INFEASIBLE
        assert tuple(eval_extending(a) for a in cp.args) == cargs


def test_checkpoints_match_concrete_interpreter():
    rng = random.Random(4242)
    cases = 0
    attempts = 0
    while cases < 250:
        attempts += 1
        assert attempts < 3000
        program = random_program(rng)
        _, _, plan = build_graphs(build_facts(program))
        for sel in plan.selectors():
            res = execute_function(program, sel, plan)
            assert not res.budget_exceeded
            targets = set(plan.entry(sel).checkpoints)
            for _ in range(4):
                _match_one_input(program, sel, res, targets, rng)
                cases += 1
    assert cases >= 250


# ---------------------------------------------------------------------------
# Witness property: a feasible verdict is backed by a real concrete witness


def _expr_consts(e) -> set[int]:
    if e.op == "const":
        return {e.value}
    out: set[int] = set()
    for a in e.args:
        out |= _expr_consts(a)
    return out


def _find_witness(path, rng, attempts=800):
    """Bounded search for concrete leaf values satisfying every constraint.

    Candidate values are the constants mentioned in the constraints plus
    their wrap-safe neighbours and a few universal probes. Values ruled out
    by a constraint over a single leaf are pruned from that leaf's pool up
    front; the remaining space is sampled randomly, then enumerated up to a
    fixed budget.
    """
    pool: set[int] = {0, 1, 2, MASK}
    for c in path:
        for v in _expr_consts(c):
            pool |= {v, (v + 1) & MASK, (v - 1) & MASK}
    candidates = sorted(pool)
    names = sorted(set().union(*(leaves(c) for c in path)))

    def satisfies(w):
        return all(eval_concrete(c, w) != 0 for c in path)

    if not names:
        return {} if satisfies({}) else None
    per = {}
    for n in names:
        mine = [c for c in path if leaves(c) == frozenset((n,))]
        keep = [v for v in candidates if all(eval_concrete(c, {n: v}) != 0 for c in mine)]
        per[n] = keep or candidates
    for _ in range(attempts):
        w = {n: rng.choice(per[n]) for n in names}
        if satisfies(w):
            return w
    for combo in itertools.islice(itertools.product(*(per[n] for n in names)), 20000):
        w = dict(zip(names, combo))
        if satisfies(w):
            return w
    return None


def test_feasible_checkpoints_have_concrete_witness():
    rng = random.Random(777)
    exercised = 0

    def check(program, plan):
        nonlocal exercised
        for sel in plan.selectors():
            res = execute_function(program, sel, plan)
            for cp in res.checkpoints:
                if cp.feasibility is not Feasibility.FEASIBLE or not cp.path:
                    continue
                witness = _find_witness(list(cp.path), rng)
                assert witness is not None, [render(c) for c in cp.path]
                exercised += 1

    for text in (GUARDED, FORK, SYMBOLIC_LOOP):
        check(*_prog_and_plan(text))
    while exercised < 80:
        program = random_program(rng)
        _, _, plan = build_graphs(build_facts(program))
        check(program, plan)
    assert exercised >= 80
