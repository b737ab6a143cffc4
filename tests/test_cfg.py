"""Control dependence over each function's control-flow graph."""
from __future__ import annotations

import random
import time

from dappaudit.cfg import EXIT, _post_dominators, _with_sink_exits, branch_structure
from dappaudit.parser import parse_ir
from helpers import ADDR, flip_dependence, random_cfg_text


def _fn(text: str):
    return parse_ir(text).functions[0]


def control_dependence(fn):
    return branch_structure(fn)[0]


def test_single_block():
    fn = _fn(
        f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v0 = CONST 1
    stop
}}
"""
    )
    assert control_dependence(fn) == {"f.B0.0": frozenset()}


DIAMOND = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    jumpi vc B1 B2
  block B1:
    0: v1 = CONST 1
    jump B3
  block B2:
    0: v2 = CONST 2
    jump B3
  block B3:
    0: v3 = CONST 3
    stop
}}
"""


def test_diamond_dependence():
    deps = control_dependence(_fn(DIAMOND))
    assert deps["f.B1.0"] == frozenset({("vc", True)})
    assert deps["f.B2.0"] == frozenset({("vc", False)})
    assert deps["f.B3.0"] == frozenset()
    assert deps["f.B0.0"] == frozenset()


NESTED = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block A:
    0: vc1 = CALLVALUE
    1: vc2 = CALLVALUE
    jumpi vc1 B X
  block B:
    jumpi vc2 X Y
  block X:
    0: vx = CONST 1
    jump E
  block Y:
    0: vy = CONST 2
    jump E
  block E:
    stop
}}
"""


def test_nested_chain_is_transitive():
    # Y executes only when vc1 picks B and vc2 picks Y: holding vc2 fixed at
    # the Y branch, flipping vc1 toggles Y, so Y depends on both conditions.
    deps = control_dependence(_fn(NESTED))
    assert deps["f.Y.0"] == frozenset({("vc1", True), ("vc2", False)})
    # X is reachable under either vc1 outcome, depending on vc2.
    assert deps["f.X.0"] == frozenset(
        {("vc1", True), ("vc1", False), ("vc2", True)}
    )


LOOP = f"""contract {ADDR}
function f public sig 0x00000001 params (vn) {{
  block B0:
    0: v0 = CONST 0
    jump L
  block L:
    0: v2 = PHI v3 v0
    1: v3 = ADD v2 1
    2: v4 = LT v3 vn
    jumpi v4 L X
  block X:
    return v3
}}
"""


def test_loop_body_depends_on_its_own_condition():
    deps = control_dependence(_fn(LOOP))
    assert deps["f.L.0"] == frozenset({("v4", True)})
    assert deps["f.B0.0"] == frozenset()


def test_unreachable_branch_controls_nothing():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    jump B2
  block B1:
    0: vc = CALLVALUE
    jumpi vc B2 B3
  block B2:
    0: v1 = CONST 1
    stop
  block B3:
    0: v2 = CONST 2
    stop
}}
"""
    # vc's branch never runs, so nothing may depend on it.
    for sid, deps in control_dependence(_fn(text)).items():
        assert all(c != "vc" for c, _ in deps), sid


def test_dead_end_loop_depends_on_the_branch_into_it():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    jumpi vc B1 B2
  block B1:
    0: vx = CONST 1
    jump B1
  block B2:
    0: vy = CONST 2
    stop
}}
"""
    deps = control_dependence(_fn(text))
    assert deps["f.B1.0"] == frozenset({("vc", True)})
    # Every path that leaves the function passes B2, so B2 post-dominates
    # the branch and depends on nothing.
    assert deps["f.B2.0"] == frozenset()


def test_whole_dead_end_region_depends_on_the_branch_into_it():
    # B3 runs only when vc is true, although it lies past the first block
    # that cannot reach the exit.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    jumpi vc B1 B2
  block B1:
    0: vx = CONST 1
    jump B3
  block B3:
    0: vy = CONST 2
    jump B3
  block B2:
    stop
}}
"""
    deps = control_dependence(_fn(text))
    assert deps["f.B1.0"] == frozenset({("vc", True)})
    assert deps["f.B3.0"] == frozenset({("vc", True)})


def test_branch_inside_a_dead_end_region_controls_its_arms():
    # No path from B1 reaches the exit, yet vd decides whether B3 or B4
    # runs; post-dominance over sink regions with a virtual exit edge
    # gives B1 the virtual exit as its immediate post-dominator.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    1: vd = CALLVALUE
    jumpi vc B1 B2
  block B1:
    0: v1 = CONST 1
    jumpi vd B3 B4
  block B3:
    0: v3 = CONST 3
    jump B3
  block B4:
    0: v4 = CONST 4
    jump B4
  block B2:
    0: v2 = CONST 2
    stop
}}
"""
    deps = control_dependence(_fn(text))
    assert deps["f.B1.0"] == frozenset({("vc", True)})
    assert deps["f.B3.0"] == frozenset({("vc", True), ("vd", True)})
    assert deps["f.B4.0"] == frozenset({("vc", True), ("vd", False)})
    assert deps["f.B2.0"] == frozenset()


def test_dead_end_arms_that_meet_share_the_meeting_block():
    # Both arms of vd fall into the one sink loop M, which runs whatever
    # vd is; only the arms themselves depend on it.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    1: vd = CALLVALUE
    jumpi vc B1 B2
  block B1:
    jumpi vd X Y
  block X:
    0: vx = CONST 1
    jump M
  block Y:
    0: vy = CONST 2
    jump M
  block M:
    0: vm = CONST 3
    jump M
  block B2:
    stop
}}
"""
    deps = control_dependence(_fn(text))
    assert deps["f.X.0"] == frozenset({("vc", True), ("vd", True)})
    assert deps["f.Y.0"] == frozenset({("vc", True), ("vd", False)})
    assert deps["f.M.0"] == frozenset({("vc", True)})


def _short_arms(text: str) -> dict[str, str | None]:
    return {b: arm and arm[0] for b, arm in branch_structure(_fn(text))[1].items()}


def test_short_arm_has_the_fewest_blocks_to_the_post_dominator():
    # The diamond's arms tie, so the then-successor is taken.
    assert branch_structure(_fn(DIAMOND))[1] == {"B0": ("B1", {"B1", "B2"})}
    # From A, X meets E after one block and B after two; B's arms tie.
    assert _short_arms(NESTED) == {"A": "X", "B": "X"}
    # The loop's exit arm is the post-dominator itself.
    assert _short_arms(LOOP) == {"L": "X"}


def test_short_arm_skips_an_arm_that_never_meets_the_post_dominator():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    jumpi vc B1 B2
  block B1:
    0: vx = CONST 1
    jump B1
  block B2:
    0: vy = CONST 2
    stop
}}
"""
    assert _short_arms(text) == {"B0": "B2"}


def test_branch_without_a_real_post_dominator_has_no_short_arm():
    # vd's branch cannot reach the exit; ve's arms meet only at the
    # synthetic exit; the constant branch is not recorded.  vc's branch
    # still has B2 as its post-dominator, and its dead-end arm is longer.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vc = CALLVALUE
    1: vd = CALLVALUE
    2: ve = CALLVALUE
    jumpi vc B1 B2
  block B1:
    jumpi vd B3 B4
  block B3:
    jump B3
  block B4:
    jump B4
  block B2:
    jumpi ve B5 B6
  block B5:
    jumpi 1 B7 B6
  block B6:
    revert
  block B7:
    stop
}}
"""
    assert _short_arms(text) == {"B0": "B2", "B1": None, "B2": None}


def test_short_arm_that_loops_is_no_short_arm():
    # H is one block from P and A1 two, but H loops; H's own exit arm is
    # P itself.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vx) {{
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
    stop
}}
"""
    assert _short_arms(text) == {"L0": None, "H": "P"}


def test_short_arm_must_cross_no_more_blocks_than_the_other_arm():
    # A and O tie at one block to P, but A can also cross X and X2.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vc, vd) {{
  block B0:
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
    stop
}}
"""
    assert _short_arms(text) == {"B0": None, "A": "P"}
    # With the arms swapped the tie goes to O, whose one path is as short.
    assert _short_arms(text.replace("jumpi vc A O", "jumpi vc O A")) == {
        "B0": "O",
        "A": "P",
    }


def test_unreachable_branch_has_no_record():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    jump B2
  block B1:
    0: vc = CALLVALUE
    jumpi vc B2 B2
  block B2:
    stop
}}
"""
    assert _short_arms(text) == {}


def test_control_dependence_matches_flip_oracle():
    # Spec-level invariant: on acyclic CFGs the relation must equal the
    # "flip one branch outcome, all else fixed" definition.
    rng = random.Random(20260819)
    for i in range(220):
        fn = _fn(random_cfg_text(rng))
        deps = control_dependence(fn)
        oracle = flip_dependence(fn)
        for b in fn.blocks:
            got = {c for c, _ in deps[b.statements[0].sid]}
            assert got == oracle[b.bid], f"instance {i}, block {b.bid}"


def _random_graph(rng: random.Random) -> tuple[list[str], dict]:
    """A random CFG of up to 12 blocks: any block may exit, jump or branch
    to any block, itself included."""
    order = [f"B{i}" for i in range(rng.randint(1, 12))]
    succ = {}
    for n in order:
        r = rng.random()
        if r < 0.2:
            succ[n] = [(EXIT, None)]
        elif r < 0.5:
            succ[n] = [(rng.choice(order), None)]
        else:
            succ[n] = [(rng.choice(order), True), (rng.choice(order), False)]
    return order, succ


def _targets(succ: dict) -> dict[str, list[str]]:
    """The (successor, outcome) pairs of `succ` as the successor lists that
    `cfg` takes."""
    return {n: [d for d, _ in edges] for n, edges in succ.items()}


def _reference_post_dominators(order, succ) -> dict[str, str]:
    """Immediate post-dominators from the definition: d post-dominates n
    when n cannot reach the exit once d is removed, and the immediate one
    is the strict post-dominator that all the others post-dominate."""
    preds = {n: [] for n in [*order, EXIT]}
    for n in order:
        for d, _ in succ[n]:
            preds[d].append(n)

    def reaching_exit(removed):
        seen, work = set(), [EXIT]
        while work:
            n = work.pop()
            if n != removed and n not in seen:
                seen.add(n)
                work.extend(preds[n])
        return seen

    live = reaching_exit(None)
    avoiding = {d: reaching_exit(d) for d in order}
    pdom = {EXIT: {EXIT}}
    for n in live - {EXIT}:
        pdom[n] = {n, EXIT} | {d for d in order if n not in avoiding[d]}
    ipdom = {}
    for n in order:
        if n in live:
            strict = pdom[n] - {n}
            (ipdom[n],) = [c for c in strict if strict - {c} <= pdom[c]]
    return ipdom


def test_post_dominators_match_the_definition_on_cyclic_graphs():
    rng = random.Random(20261018)
    seen = {"back edge": 0, "self-loop": 0, "dead end": 0}
    for i in range(2000):
        order, succ = _random_graph(rng)
        want = _reference_post_dominators(order, succ)
        assert _post_dominators(order, _targets(succ)) == want, f"graph {i}: {succ}"
        want_aug = _reference_post_dominators(order, _reference_sink_exits(order, succ, want))
        assert set(want_aug) == set(order), f"graph {i}"
        aug = _with_sink_exits(order, _targets(succ), want)
        assert _post_dominators(order, aug) == want_aug, f"graph {i}: {aug}"
        rank = {n: j for j, n in enumerate(order)}
        edges = [(n, d) for n in order for d, _ in succ[n] if d != EXIT]
        seen["back edge"] += any(rank[d] < rank[n] for n, d in edges)
        seen["self-loop"] += any(d == n for n, d in edges)
        seen["dead end"] += len(want) < len(order)
    # The generator covers every shape the test is for.
    assert all(count > 200 for count in seen.values()), seen


def _reference_sink_exits(order, succ, live):
    """succ plus an exit edge from the first block of each sink region, from
    the definition: a strongly connected set of blocks that cannot reach
    the exit and has no edge out."""
    dead = [n for n in order if n not in live]
    reach = {n: _reach_all(n, succ) for n in dead}
    aug = dict(succ)
    for n in dead:
        component = {m for m in reach[n] if n in reach[m]}
        out = {d for m in component for d, _ in succ[m]} - component
        if not out and n == min(component, key=order.index):
            aug[n] = succ[n] + [(EXIT, None)]
    return aug


def _reach_all(start, succ):
    seen, work = set(), [start]
    while work:
        n = work.pop()
        if n not in seen:
            seen.add(n)
            work.extend(d for d, _ in succ[n] if d != EXIT)
    return seen


def test_sink_exits_match_the_definition_on_random_graphs():
    rng = random.Random(20261018)
    for i in range(2000):
        order, succ = _random_graph(rng)
        targets = _targets(succ)
        live = _post_dominators(order, targets)
        want = _reference_sink_exits(order, succ, live)
        assert _with_sink_exits(order, targets, live) == _targets(want), f"graph {i}: {succ}"


def test_long_dead_end_region_is_linear():
    # A branch into a dead-end chain of n blocks whose last block branches
    # back to its head: every block of the chain is a sink-region member.
    n = 2000
    lines = [
        f"contract {ADDR}",
        "function f public sig 0x00000001 params () {",
        "  block B0:",
        "    0: vc = CALLVALUE",
        "    jumpi vc D0 X",
        "  block X:",
        "    stop",
    ]
    for i in range(n):
        lines += [f"  block D{i}:", f"    0: vd{i} = CONST {i}", f"    jump D{i + 1}"]
    lines[-1] = "    jumpi vc D0 D1"
    fn = _fn("\n".join([*lines, "}"]) + "\n")
    start = time.perf_counter()
    deps, arms = branch_structure(fn)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    # The region's own branch controls the blocks its else-arm runs
    # before the head, which takes the virtual exit edge.
    assert deps["f.D0.0"] == {("vc", True)}
    assert deps[f"f.D{n - 1}.0"] == {("vc", True), ("vc", False)}
    assert arms["B0"][0] == "X" and arms[f"D{n - 1}"] is None


def _graph_text(order, succ) -> str:
    """The IR of a `_random_graph` shape: block n defines `vc<n>` and
    stops, jumps, or branches on it."""
    lines = [f"contract {ADDR}", "function f public sig 0x00000001 params () {"]
    for n in order:
        lines += [f"  block {n}:", f"    0: vc{n} = CALLVALUE"]
        targets = [d for d, _ in succ[n]]
        if targets == [EXIT]:
            lines.append("    stop")
        elif len(targets) == 1:
            lines.append(f"    jump {targets[0]}")
        else:
            lines.append(f"    jumpi vc{n} {targets[0]} {targets[1]}")
    return "\n".join([*lines, "}"]) + "\n"


def _region(start, stop, succ) -> set[str]:
    """The blocks reachable from start without entering stop or the exit."""
    seen, work = set(), [start]
    while work:
        n = work.pop()
        if n not in seen and n != stop and n != EXIT:
            seen.add(n)
            work.extend(d for d, _ in succ[n])
    return seen


def _blocks_before(start, stop, succ) -> float:
    """How many blocks the shortest path from start to stop crosses."""
    level, seen, depth = [start], set(), 0
    while level:
        if stop in level:
            return depth
        seen.update(level)
        level = [d for n in level if n != EXIT for d, _ in succ[n] if d not in seen]
        depth += 1
    return float("inf")


def _most_blocks(start, region, succ) -> int | None:
    """The most blocks a path from start crosses inside region, over every
    simple path; None when the region holds a cycle."""
    inner = {n: [(d, None) for d, _ in succ[n] if d in region] for n in region}
    # n lies on a cycle when one of its inner successors leads back to it.
    if any(n in _reach_all(d, inner) for n in region for d, _ in inner[n]):
        return None

    def longest(n, path):
        return 1 + max(
            (longest(d, path | {d}) for d, _ in inner[n] if d not in path), default=0
        )

    return longest(start, {start}) if start in region else 0


def _reference_branch_structure(order, succ):
    """Block -> (condition, outcome) pairs controlling it, and the arms of
    each reachable branch, from the module docstring."""
    live = _reference_post_dominators(order, succ)
    sink = _reference_post_dominators(order, _reference_sink_exits(order, succ, live))
    reachable = _reach_all(order[0], succ)
    deps = {n: set() for n in order}
    arms = {}
    for n in order:
        if n not in reachable or len(succ[n]) != 2:
            continue
        post = live if n in live else sink
        regions = [_region(d, post[n], succ) for d, _ in succ[n]]
        for (_, outcome), region in zip(succ[n], regions):
            for m in region:
                deps[m].add((f"vc{n}", outcome))
        arms[n] = None
        if post is live and post[n] != EXIT:
            targets = [d for d, _ in succ[n]]
            dist = [_blocks_before(d, post[n], succ) for d in targets]
            i = 1 if dist[1] < dist[0] else 0
            most = _most_blocks(targets[i], regions[i], succ)
            if most is not None and most <= dist[1 - i]:
                arms[n] = targets[i], regions[0] | regions[1]
    return deps, arms


def test_branch_structure_matches_the_definition_on_cyclic_graphs():
    # Control dependence and short arms of random graphs with self-loops,
    # back edges and dead ends, against the module docstring read plainly.
    rng = random.Random(20261020)
    seen = dict.fromkeys(
        [
            "short arm",
            "short arm over three blocks or more",
            "no short arm",
            "branch into a back edge",
            "branch that cannot reach the exit",
        ],
        0,
    )
    for i in range(1500):
        order, succ = _random_graph(rng)
        fn = _fn(_graph_text(order, succ))
        deps_of, arms = branch_structure(fn)
        want_deps, want_arms = _reference_branch_structure(order, succ)
        assert {n: deps_of[f"f.{n}.0"] for n in order} == want_deps, f"graph {i}: {succ}"
        assert arms == want_arms, f"graph {i}: {succ}"
        rank = {n: j for j, n in enumerate(order)}
        live = _reference_post_dominators(order, succ)
        for n, arm in arms.items():
            seen["short arm" if arm else "no short arm"] += 1
            seen["short arm over three blocks or more"] += bool(arm) and len(arm[1]) > 2
            seen["branch into a back edge"] += any(rank[d] <= rank[n] for d, _ in succ[n])
            seen["branch that cannot reach the exit"] += n not in live
    # The generator covers every shape the test is for.
    assert min(seen.values()) > 100, dict(seen)
