"""Control dependence over each function's control-flow graph."""
from __future__ import annotations

import random

from dappaudit.cfg import control_dependence
from dappaudit.parser import parse_ir
from helpers import ADDR, flip_dependence, random_cfg_text


def _fn(text: str):
    return parse_ir(text).functions[0]


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
