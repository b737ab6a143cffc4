"""Symbolic expressions, feasibility checking and the guided executor.

Hand fixtures pin the rendering conventions, the loop machine and the
capture rules; random programs are cross-checked against the concrete
reference interpreter in helpers.py.
"""
from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from dappaudit.executor import (
    CheckpointState,
    ExecutionResult,
    Limits,
    execute_function,
)
from dappaudit.facts import build_facts
from dappaudit.feasibility import Feasibility, check_feasible
from dappaudit.graphs import AnalysisPlan, build_graphs
from dappaudit.parser import parse_ir
from dappaudit.pipeline import analyze_ir
from dappaudit.symexpr import (
    MASK,
    SymExpr,
    UnboundLeaf,
    balance_self,
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
    timestamp,
)
from helpers import ADDR, concrete_execute, counted_loop_text, random_program


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


def test_eval_concrete_walks_a_deep_chain_without_recursion():
    # Far deeper than the interpreter's recursion limit; the unbound leaf
    # sits at the bottom, on the right.
    e = callvalue()
    for _ in range(5000):
        e = binop("add", e, binop("mul", const(2), store(1)))
    value = eval_concrete(e, {"callvalue": 7, "store(1)": 3})
    assert value == 7 + 5000 * 6
    with pytest.raises(UnboundLeaf) as err:
        eval_concrete(e, {"callvalue": 7})
    assert err.value.name == "store(1)"


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


# Naive tree walks: the references for the cached DAG queries.  They visit
# a shared subterm once per use, so keep their inputs small.

_REF_LEAF_TEXT = {
    "caller": "caller",
    "callvalue": "callvalue",
    "timestamp": "timestamp",
    "balance_self": "balance(self)",
}


def _ref_render(e):
    if e.op == "const":
        return str(e.value)
    if e.op == "fresh":
        return e.name
    if e.op in _REF_LEAF_TEXT:
        return _REF_LEAF_TEXT[e.op]
    if e.op == "store":
        return f"store({e.value})"
    if e.op == "calldata":
        return f"calldata({e.name},{e.value})"
    return e.op + "(" + ", ".join(_ref_render(a) for a in e.args) + ")"


def _ref_leaves(e):
    if e.op == "const":
        return set()
    if not e.args:
        return {_ref_render(e)}
    return set().union(*(_ref_leaves(a) for a in e.args))


def _ref_size(e):
    return 1 + sum(_ref_size(a) for a in e.args)


def _ref_equal(a, b):
    return (
        a.op == b.op
        and a.value == b.value
        and a.name == b.name
        and len(a.args) == len(b.args)
        and all(_ref_equal(x, y) for x, y in zip(a.args, b.args))
    )


_DAG_LEAVES = (
    callvalue,
    caller,
    timestamp,
    balance_self,
    lambda: store(0),
    lambda: store(1),
    lambda: calldata("0x01020304", 0),
    lambda: fresh("x"),
    lambda: fresh("caller"),  # renders like caller(), yet a different leaf
    lambda: const(0),
    lambda: const(3),
    lambda: const(MASK),
)
_DAG_OPS = ("add", "sub", "mul", "div", "mod", "lt", "gt", "eq", "and", "or", "iszero")

# A DAG as a recipe: each step makes a leaf or applies an operator to
# earlier nodes by index, so later nodes share earlier ones freely.
_dag_steps = st.lists(
    st.one_of(
        st.tuples(st.just("leaf"), st.integers(0, len(_DAG_LEAVES) - 1)),
        st.tuples(st.sampled_from(_DAG_OPS), st.integers(0, 63), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=12,
)


def _build_dag(steps):
    nodes = []
    for step in steps:
        if step[0] == "leaf" or not nodes:
            nodes.append(_DAG_LEAVES[step[1] if step[0] == "leaf" else 0]())
            continue
        if step[0] == "iszero":
            args = (nodes[step[1] % len(nodes)],)
            e = iszero(*args)
        else:
            args = (nodes[step[1] % len(nodes)], nodes[step[2] % len(nodes)])
            e = binop(step[0], *args)
        # The constructor must build the node asked for, or a folded constant.
        assert e.is_const or (e.op, e.args) == (step[0], args)
        nodes.append(e)
    return nodes


_ORACLE = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@seed(20261018)
@_ORACLE
@given(steps=_dag_steps, order=st.randoms(use_true_random=False))
def test_cached_queries_match_tree_walks_on_shared_dags(steps, order):
    nodes = _build_dag(steps)
    # Query in a random order, so some nodes are asked while only part of
    # the DAG below them has cached values.
    order.shuffle(nodes)
    for e in nodes:
        assert e.size == _ref_size(e)
        assert render(e) == _ref_render(e)
        assert leaves(e) == _ref_leaves(e)
        bindings = {k: order.choice((0, 1, 2, 1 << 255, MASK)) for k in _ref_leaves(e)}
        assert eval_concrete(e, bindings) == _ref_eval(e, bindings)


@seed(20261019)
@_ORACLE
@given(steps=_dag_steps)
def test_equal_expressions_compare_and_hash_alike(steps):
    first = _build_dag(steps)
    again = _build_dag(steps)
    for a, b in zip(first, again):
        assert a == b and hash(a) == hash(b)
    for a, b in itertools.product(first, again):
        equal = _ref_equal(a, b)
        assert (a == b) == equal
        if equal:
            assert hash(a) == hash(b)


def test_equality_stays_structural_without_interning():
    # A copy made field by field equals and hashes like the original.
    e = binop("add", callvalue(), store(1))
    twin = SymExpr(e.op, e.args, e.value, e.name)
    assert twin is not e
    assert twin == e and hash(twin) == hash(e)
    assert binop("mul", twin, const(2)) == binop("mul", e, const(2))
    assert twin != binop("add", store(1), callvalue())


def test_doubling_chain_queries_stay_linear():
    # 40 levels of add(v, v): the tree has 2**41 - 1 nodes, the DAG 41.
    start = time.perf_counter()
    v = callvalue()
    for _ in range(40):
        v = binop("add", v, v)
    assert binop("add", v, v).args[0] is v
    assert v.size == 2**41 - 1
    assert hash(v) == hash(SymExpr(v.op, v.args, v.value, v.name))
    assert leaves(v) == frozenset({"callvalue"})
    assert eval_concrete(v, {"callvalue": 3}) == (3 << 40) % (MASK + 1)
    # The text itself doubles per level, so render a 14-level prefix of the
    # same chain: 32,767 tree nodes through 15 cached strings.
    w = callvalue()
    for _ in range(14):
        w = binop("add", w, w)
    text = render(w)
    assert text == f"add({render(w.args[0])}, {render(w.args[0])})"
    assert text.count("callvalue") == 2**14
    assert time.perf_counter() - start < 2.0


def _add_chain(n, operand):
    v = callvalue()
    for i in range(n):
        v = binop("add", v, operand(i))
    return v


def _traced_peak(query, e):
    tracemalloc.start()
    try:
        query(e)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "query, operand",
    [(render, lambda i: const(1)), (leaves, lambda i: calldata("0x01020304", i))],
    ids=["render", "leaves"],
)
def test_queries_on_a_linear_chain_hold_memory_linear_in_depth(query, operand):
    # A query that kept the text or leaf set of every node below the root
    # would hold about depth**2 / 2 entries: a peak 4x as high per doubling.
    small, large = (_traced_peak(query, _add_chain(n, operand)) for n in (2000, 4000))
    assert large <= 2.5 * small
    assert large < 4_000_000


def _chain_copies(leaf):
    """A 5000-deep linear add chain and a 22-level doubling chain over
    `leaf`, built node by node with SymExpr rather than binop."""
    linear = leaf
    for i in range(5000):
        linear = SymExpr("add", (linear, SymExpr("calldata", (), i, "0x01020304")), None, None)
    doubling = leaf
    for _ in range(22):
        doubling = SymExpr("add", (doubling, doubling), None, None)
    return linear, doubling


def test_deep_and_doubling_chains_compare_without_recursion():
    # Two copies share no node, so == must walk both: a recursive walk
    # overflows the stack on the linear chain and visits the 2**23 - 1
    # tree nodes of the doubling one.
    start = time.perf_counter()
    linear = _add_chain(5000, lambda i: calldata("0x01020304", i))
    doubling = callvalue()
    for _ in range(22):
        doubling = binop("add", doubling, doubling)
    copies = _chain_copies(SymExpr("callvalue", (), None, None))
    others = _chain_copies(SymExpr("caller", (), None, None))
    for e, copy, other in zip((linear, doubling), copies, others):
        assert copy is not e
        assert copy == e and e == copy
        assert hash(copy) == hash(e)
        assert copy != other and e != other
    assert time.perf_counter() - start < 1.0


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


def test_long_conjunction_chain_needs_no_recursion():
    # 1500 nested and nodes, each adding one bound on its own leaf.
    atoms = [binop("lt", calldata("0x01020304", i), const(10)) for i in range(1500)]
    chain = atoms[0]
    for atom in atoms[1:]:
        chain = binop("and", chain, atom)
    assert check_feasible((chain,)) is Feasibility.FEASIBLE
    clash = binop("gt", calldata("0x01020304", 0), const(20))
    assert check_feasible((binop("and", clash, chain),)) is Feasibility.INFEASIBLE


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
    assert narrow.budget_exceeded
    assert not base.budget_exceeded and not wide.budget_exceeded


@pytest.mark.parametrize("k, captured", [(3, 1), (4, 0)])
def test_loop_bound_cut_is_reported(k, captured):
    # For k = 4 the visit after loop_bound (3) iterations takes the PHI's
    # out-loop operand, which restarts the count, and the next entry of H
    # is cut: no path reaches the transfer, and the run says so.
    program, plan = _prog_and_plan(counted_loop_text(k))
    res = execute_function(program, "0x0000000f", plan)
    assert res.states_explored == 1
    assert len(res.checkpoints) == captured
    assert res.budget_exceeded is (captured == 0)


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
# Executor: modelling conventions


COMPUTED_SLOT_LOAD = f"""\
contract {ADDR}
function sweep public sig 0x00000013 params (vx) {{
  block L0:
    0: v0 = CONST 0
    jump L1
  block L1:
    0: vi = PHI vn v0
    1: vacc = PHI vsum v0
    2: vk = ADD vx vi
    3: vl = SLOAD vk
    4: vsum = ADD vacc vl
    5: vn = ADD vi 1
    6: vc = LT vn 3
    jumpi vc L1 L2
  block L2:
    0: vo = CONST 0xbeef
    1: CALL vo vsum
    stop
}}
"""

COMPUTED_SLOT_STORE = f"""\
contract {ADDR}
function poke public sig 0x00000014 params (vx, vamt) {{
  block K0:
    0: SSTORE vx vamt
    1: vy = SLOAD 3
    2: vo = CONST 0xbeef
    3: CALL vo vy
    stop
}}
"""

OTHER_BALANCE = f"""\
contract {ADDR}
function drain public sig 0x00000015 params (vx) {{
  block B0:
    0: va = BALANCE 0xbeef
    1: vb = BALANCE vx
    2: vc = BALANCE {ADDR}
    3: vab = ADD va vb
    4: vt = ADD vab vc
    5: vo = CALLER
    6: CALL vo vt
    stop
}}
"""


@pytest.mark.parametrize(
    "text, selector, amount",
    [
        # Each visit of the load binds a new unknown, numbered by how often
        # the path has run the statement so far.
        (
            COMPUTED_SLOT_LOAD,
            "0x00000013",
            "add(add(add(0, sload(sweep.L1.3#0)), sload(sweep.L1.3#1)),"
            " sload(sweep.L1.3#2))",
        ),
        # The store names no slot, so it is dropped.
        (COMPUTED_SLOT_STORE, "0x00000014", "store(3)"),
        # Only the contract's own address reads the balance of self.
        (
            OTHER_BALANCE,
            "0x00000015",
            "add(add(balance(48879), balance(calldata(0x00000015,0))),"
            " balance(self))",
        ),
    ],
)
def test_modelling_conventions_of_loads_stores_and_balances(text, selector, amount):
    program, plan = _prog_and_plan(text)
    res = execute_function(program, selector, plan)
    assert not res.budget_exceeded
    (cp,) = [c for c in res.checkpoints if c.opcode == "CALL"]
    assert render(cp.args[1]) == amount


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
    assert shallow.budget_exceeded


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


# ---------------------------------------------------------------------------
# Executor: dataflow-guided pruning


def _unpruned(plan):
    """The same plan with every branch forking again."""
    return AnalysisPlan(tuple(e._replace(follow=frozenset()) for e in plan.entries))


def _kept(res):
    """Distinct (checkpoint, rendered args) of the checkpoints semantics reads."""
    return {
        (cp.checkpoint, tuple(render(a) for a in cp.args))
        for cp in res.feasible_checkpoints()
    }


ARM_FEEDS_AMOUNT = f"""\
contract {ADDR}
function pay public sig 0x00000101 params (vx) {{
  block A0:
    0: vc = LT vx 10
    jumpi vc A1 A2
  block A1:
    0: va = ADD vx 1
    jump A3
  block A2:
    0: vb = SUB vx 1
    jump A3
  block A3:
    0: vm = PHI va vb
    1: vw = CALLER
    2: CALL vw vm
    stop
}}
"""


def test_branch_whose_arm_feeds_the_amount_runs_both_arms():
    program, plan = _prog_and_plan(ARM_FEEDS_AMOUNT)
    assert plan.entry("0x00000101").follow == frozenset()
    res = execute_function(program, "0x00000101", plan)
    assert res.states_explored == 2
    x = "calldata(0x00000101,0)"
    assert {render(cp.args[1]) for cp in res.checkpoints} == {f"add({x}, 1)", f"sub({x}, 1)"}


ARM_STORES_LOADED_SLOT = f"""\
contract {ADDR}
function pay public sig 0x00000102 params (vx) {{
  block S0:
    0: vc = LT vx 10
    jumpi vc S1 S2
  block S1:
    0: SSTORE 7 vx
    jump S2
  block S2:
    0: vy = SLOAD 7
    1: vw = CALLER
    2: CALL vw vy
    stop
}}
"""


def test_arm_storing_a_slot_the_amount_loads_forks():
    program, plan = _prog_and_plan(ARM_STORES_LOADED_SLOT)
    assert plan.entry("0x00000102").follow == frozenset()
    res = execute_function(program, "0x00000102", plan)
    assert res.states_explored == 2
    assert {render(cp.args[1]) for cp in res.checkpoints} == {
        "calldata(0x00000102,0)",
        "store(7)",
    }
    # Without the load the store decides nothing, and one arm is followed.
    program, plan = _prog_and_plan(
        ARM_STORES_LOADED_SLOT.replace("vy = SLOAD 7", "vy = CALLVALUE")
    )
    assert plan.entry("0x00000102").follow == {("pay", "S0", "S2")}
    res = execute_function(program, "0x00000102", plan)
    assert res.states_explored == 1
    assert [render(cp.args[1]) for cp in res.checkpoints] == ["callvalue"]


UNNAMED_SLOT = f"""\
contract {ADDR}
function pay public sig 0x00000105 params (vx) {{
  block S0:
    0: vk = MOD 7 4
    1: vc = LT vx 10
    jumpi vc S1 S2
  block S1:
    0: SSTORE STORED vx
    jump S2
  block S2:
    0: vy = SLOAD LOADED
    1: vw = CALLER
    2: CALL vw vy
    stop
}}
"""


@pytest.mark.parametrize("stored, loaded", [("vk", "3"), ("3", "vk")])
def test_slot_the_facts_cannot_name_counts_as_any_slot(stored, loaded):
    # MOD does not fold in the facts, but the executor folds vk to 3.
    text = UNNAMED_SLOT.replace("STORED", stored).replace("LOADED", loaded)
    program, plan = _prog_and_plan(text)
    assert plan.entry("0x00000105").follow == frozenset()
    res = execute_function(program, "0x00000105", plan)
    assert {render(cp.args[1]) for cp in res.checkpoints} == {
        "calldata(0x00000105,0)",
        "store(3)",
    }


IRRELEVANT_LOOP = f"""\
contract {ADDR}
function pay public sig 0x00000103 params (vx) {{
  block L0:
    0: vc = LT vx 10
    jumpi vc L1 L3
  block L1:
    0: v0 = CONST 0
    jump L2
  block L2:
    0: vi = PHI vn v0
    1: vn = ADD vi 1
    2: vl = LT vn vx
    jumpi vl L2 L3
  block L3:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_irrelevant_region_with_a_loop_follows_the_exit_arm():
    program, plan = _prog_and_plan(IRRELEVANT_LOOP)
    # Both the branch into the loop and the loop's own branch exit to L3.
    assert plan.entry("0x00000103").follow == {("pay", "L0", "L3"), ("pay", "L2", "L3")}
    res = execute_function(program, "0x00000103", plan)
    assert res.states_explored == 1
    (cp,) = res.checkpoints
    assert cp.checkpoint == "pay.L3.2"
    assert [render(a) for a in cp.args] == ["caller", "callvalue"]
    assert cp.path == ()
    assert cp.feasibility is Feasibility.FEASIBLE
    full = execute_function(program, "0x00000103", _unpruned(plan))
    assert full.states_explored > 1
    assert _kept(full) == _kept(res)


def _diamond_refund(k: int) -> str:
    """A refund of CALLVALUE to CALLER behind k independent diamonds."""
    params = ", ".join(f"vp{i}" for i in range(k))
    lines = [f"contract {ADDR}", f"function refund public sig 0x00000104 params ({params}) {{"]
    for i in range(k):
        lines += [
            f"  block B{i}:",
            f"    0: vc{i} = LT vp{i} {i + 3}",
            f"    jumpi vc{i} T{i} E{i}",
            f"  block T{i}:",
            f"    0: vt{i} = ADD vp{i} 1",
            f"    jump B{i + 1}",
            f"  block E{i}:",
            f"    0: ve{i} = SUB vp{i} 1",
            f"    jump B{i + 1}",
        ]
    lines += [
        f"  block B{k}:",
        "    0: vwho = CALLER",
        "    1: vamt = CALLVALUE",
        "    2: CALL vwho vamt",
        "    stop",
        "}",
    ]
    return "\n".join(lines) + "\n"


def test_diamond_refund_runs_one_state_within_budget():
    analysis = analyze_ir(_diamond_refund(10))
    (res,) = analysis.executions
    assert res.states_explored == 1
    assert not res.budget_exceeded
    assert not analysis.semantics.budget_exceeded
    (cp,) = res.checkpoints
    assert [render(a) for a in cp.args] == ["caller", "callvalue"]
    # Forking on every diamond would need 1024 states.
    full = execute_function(analysis.program, "0x00000104", _unpruned(analysis.plan))
    assert full.budget_exceeded
    assert _kept(full) == _kept(res)


LOOP_ON_THE_SHORTER_ARM = f"""\
contract {ADDR}
function pay public sig 0x00000106 params (vx) {{
  block L0:
    0: vc = LT vx 10
    jumpi vc H A1
  block H:
    0: vi = PHI vn 0
    1: vn = ADD vi 1
    2: vl = LT vn 10
    jumpi vl H P
  block A1:
    jump A2
  block A2:
    jump P
  block P:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_branch_whose_fewer_blocks_loop_forks():
    # H is one block from P against two through A1, but the loop's trip
    # count outlasts loop_bound, so every path through H is cut; following
    # H would lose the transfer that the path through A1 reaches.
    program, plan = _prog_and_plan(LOOP_ON_THE_SHORTER_ARM)
    assert ("pay", "L0", "H") not in plan.entry("0x00000106").follow
    res = execute_function(program, "0x00000106", plan)
    full = execute_function(program, "0x00000106", _unpruned(plan))
    assert _kept(res) == _kept(full) == {("pay.P.2", ("caller", "callvalue"))}


LONGER_NESTED_ARM = f"""\
contract {ADDR}
function pay public sig 0x00000107 params (vx) {{
  block B0:
    0: vc = LT vx 10
    1: vd = CONST 1
    jumpi vc A O
  block A:
    jumpi vd X P
  block X:
    jump X2
  block X2:
    jump P
  block O:
    jump P
  block P:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_branch_whose_tied_arm_can_run_longer_forks():
    # A and O both reach P after one block, but the constant vd sends the
    # path through A across three, past max_depth.
    program, plan = _prog_and_plan(LONGER_NESTED_ARM)
    assert ("pay", "B0", "A") not in plan.entry("0x00000107").follow
    limits = Limits(max_depth=3)
    res = execute_function(program, "0x00000107", plan, limits)
    full = execute_function(program, "0x00000107", _unpruned(plan), limits)
    assert _kept(res) == _kept(full) == {("pay.P.2", ("caller", "callvalue"))}


ARM_SETS_A_LATER_TRIP_COUNT = f"""\
contract {ADDR}
function pay public sig 0x00000108 params (vx) {{
  block B0:
    0: vc = LT vx 10
    jumpi vc T E
  block T:
    0: vk = CONST 9
    jump P
  block E:
    0: vj = CONST 1
    jump P
  block P:
    0: vm = PHI vk vj
    1: v0 = CONST 0
    jump H
  block H:
    0: vi = PHI vn v0
    1: vn = ADD vi 1
    2: vl = LT vn vm
    jumpi vl H X
  block X:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_branch_whose_arm_sets_a_later_loop_bound_forks():
    # Through T the loop runs past loop_bound and the path is cut; through
    # E it exits at once.  The loop decides nothing, but vk and vj reach its
    # condition, which is constant on each path, so B0 must fork.
    program, plan = _prog_and_plan(ARM_SETS_A_LATER_TRIP_COUNT)
    assert plan.entry("0x00000108").follow == {("pay", "H", "X")}
    res = execute_function(program, "0x00000108", plan)
    full = execute_function(program, "0x00000108", _unpruned(plan))
    assert _kept(res) == _kept(full) == {("pay.X.2", ("caller", "callvalue"))}


BRANCH_IN_A_COUNTED_LOOP = f"""\
contract {ADDR}
function pay public sig 0x00000109 params (vx) {{
  block B0:
    0: v0 = CONST 0
    jump H
  block H:
    0: vi = PHI vn v0
    1: vl = LT vi 2
    jumpi vl B X
  block B:
    0: vc = LT vx 10
    jumpi vc T E
  block T:
    0: vt = ADD vx 1
    jump P
  block E:
    0: ve = SUB vx 1
    jump P
  block P:
    0: vn = ADD vi 1
    jump H
  block X:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def test_branch_inside_a_counted_loop_is_followed_on_every_iteration():
    program, plan = _prog_and_plan(BRANCH_IN_A_COUNTED_LOOP)
    assert ("pay", "B", "T") in plan.entry("0x00000109").follow
    res = execute_function(program, "0x00000109", plan)
    full = execute_function(program, "0x00000109", _unpruned(plan))
    assert (res.states_explored, full.states_explored) == (1, 4)
    assert _kept(res) == _kept(full) == {("pay.X.2", ("caller", "callvalue"))}


def _pruned_against_full(rng, limits, **program_args):
    """(pruned run, full run) pairs per plan entry of random programs, and
    how many entries follow some branch."""
    runs = []
    pruned = 0
    for _ in range(400):
        program = random_program(rng, **program_args)
        _, _, plan = build_graphs(build_facts(program))
        full_plan = _unpruned(plan)
        for entry in plan.entries:
            res = execute_function(program, entry.selector, plan, limits)
            full = execute_function(program, entry.selector, full_plan, limits)
            assert res.states_explored <= full.states_explored
            runs.append((res, full))
            pruned += bool(entry.follow)
    return runs, pruned


def test_pruned_plans_keep_the_checkpoints_of_full_exploration():
    runs, pruned = _pruned_against_full(random.Random(2024), Limits())
    for res, full in runs:
        assert _kept(res) == _kept(full)
    assert pruned >= 20


@pytest.mark.parametrize("limits", [Limits(), Limits(max_depth=5, loop_bound=1)])
def test_pruning_loses_no_checkpoint_when_bounds_cut_paths(limits):
    # Loops whose trip count outlasts loop_bound, and max_depth, cut paths.
    # The followed arm is never cut earlier than the other; when the other
    # is cut, the full search keeps only the followed arm's states, whose
    # extra constraint may make them infeasible, so pruning can keep more.
    runs, pruned = _pruned_against_full(random.Random(2024), limits, with_loops=True)
    for res, full in runs:
        assert _kept(full) <= _kept(res)
    assert pruned >= 20
