"""Base-relation derivation against brute-force oracles."""
from __future__ import annotations

import gc
import random
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest

from dappaudit.facts import build_facts, dataflow_closure, derive_base_facts, dump_facts
from dappaudit.inference import infer_sender_guards
from dappaudit.model import Opcode
from dappaudit.parser import parse_ir
from dappaudit.pipeline import analyze_ir
from helpers import ADDR, floyd_warshall_dataflow, random_program, random_program_text
from test_inference import _naive_selectors

ERC20_CALL = f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vV, vR, vA) {{
  block B0:
    0: v1 = CONST 0xa9059cbb
    1: v9 = CALL vT vV v1 vR vA
    stop
}}
"""


def test_abi_call_relations():
    db = build_facts(parse_ir(ERC20_CALL))
    assert db.constant["v1"] == 0xA9059CBB
    assert db.external_call == (("f.B0.1", "vT", "v1"),)
    assert set(db.call_arg) == {("f.B0.1", "vR", 0), ("f.B0.1", "vA", 1)}


def test_plain_call_has_no_abi_relations():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vT, vV) {{
  block B0:
    0: CALL vT vV
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert db.external_call == ()
    assert db.call_arg == ()
    assert len(db.plain_calls) == 1


def test_constant_folding_fixpoint():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vx) {{
  block B0:
    0: v1 = CONST 2
    1: v2 = CONST 3
    2: v3 = MUL v1 v2
    3: v4 = ADD v3 7
    4: v5 = DIV v4 v1
    5: v6 = SUB v5 v4
    6: v7 = ADD vx v1
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert db.constant["v3"] == 6
    assert db.constant["v4"] == 13
    assert db.constant["v5"] == 6
    assert db.constant["v6"] == (6 - 13) % (1 << 256)
    assert "v7" not in db.constant  # vx is not constant


def test_division_by_zero_is_not_constant():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v1 = CONST 5
    1: v2 = CONST 0
    2: v3 = DIV v1 v2
    3: v4 = ADD v3 1
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert "v3" not in db.constant
    assert "v4" not in db.constant


def test_dataflow_through_phi_and_private_call():
    text = f"""contract {ADDR}
function helper private params (vp) {{
  block H0:
    0: vr = ADD vp 1
    returnprivate vp vr
}}
function f public sig 0x00000001 params (va, vb) {{
  block B0:
    0: vm = PHI va vb
    1: vd = CALLPRIVATE helper vm
    2: SSTORE 1 vd
    3: vl = SLOAD 1
    stop
}}
"""
    db = build_facts(parse_ir(text))
    # PHI merges both operands.
    assert "va" in db.reaching(("vm",)) and "vb" in db.reaching(("vm",))
    # Actual -> formal -> returned -> call-site def.
    assert "vm" in db.reaching(("vp",)) and "vp" in db.reaching(("vr",))
    assert "vr" in db.reaching(("vd",))
    assert "va" in db.reaching(("vd",))
    # Influence does not tunnel through storage.
    assert "vd" not in db.reaching(("vl",))
    assert "vl" in db.reaching(("vl",))  # reflexive


def test_external_call_returns_are_fresh():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vT) {{
  block B0:
    0: v1 = CONST 0xa9059cbb
    1: v9 = CALL vT 0 v1 vT 5
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert "vT" not in db.reaching(("v9",))
    assert "v1" not in db.reaching(("v9",))


def test_statement_selectors_through_shared_helper():
    text = f"""contract {ADDR}
function helper private params (vp) {{
  block H0:
    0: vr = ADD vp 1
    returnprivate vp vr
}}
function f public sig 0x00000001 params (va) {{
  block B0:
    0: vx = CALLPRIVATE helper va
    stop
}}
function g public sig 0x00000002 params (vb) {{
  block G0:
    0: vy = CALLPRIVATE helper vb
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert db.selectors_of("helper.H0.0") == frozenset({"0x00000001", "0x00000002"})
    assert db.selectors_of("f.B0.0") == frozenset({"0x00000001"})


def _lookup_programs():
    """The 14 corpus contracts and the 200 random programs of criterion 2."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    for ir in sorted(corpus.glob("*.ir")):
        yield ir.stem, parse_ir(ir.read_text())
    rng = random.Random(1202)
    for i in range(200):
        yield f"random {i}", random_program(rng)


def test_statement_lookups_agree_with_the_program():
    for name, program in _lookup_programs():
        db = build_facts(program)
        stmt_func = db.stmt_func
        reach = _naive_selectors(program)
        for fn, b, s in program.statements():
            assert db.selectors_of(s.sid) == stmt_func[s.sid] == reach[fn.name], (name, s.sid)
            assert program.statement(s.sid) is s, (name, s.sid)
        for fn in program.functions:
            b = next((b for b in fn.blocks if b.statements), None)
            if b is None:
                continue
            for sid in (
                f"nofn.{b.bid}.0",
                f"{fn.name}.noblock.0",
                f"{fn.name}.{b.bid}.{len(b.statements)}",
                f"{fn.name}.{b.bid}.-1",
                f"{fn.name}.{b.bid}",
                f"{fn.name}.{b.bid}.0.0",
                f"{fn.name}.{b.bid}.00",
            ):
                with pytest.raises(KeyError):
                    program.statement(sid)
    with pytest.raises(KeyError):
        parse_ir(ERC20_CALL).statement("f.B0.-1")


def test_func_arg_indexes_public_params_only():
    text = f"""contract {ADDR}
function helper private params (vp) {{
  block H0:
    returnprivate vp
}}
function f public sig 0x00000001 params (va, vb) {{
  block B0:
    stop
}}
"""
    db = build_facts(parse_ir(text))
    assert db.func_arg == (("0x00000001", "va", 0), ("0x00000001", "vb", 1))


def test_comparison_matching_uses_dataflow_not_syntax():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vo = SLOAD 0
    1: vc = CALLER
    2: vmask = CONST 0xffff
    3: vc2 = AND vc vmask
    4: veq = EQ vo vc2
    5: vts = TIMESTAMP
    6: vl = SLOAD 1
    7: vlt = LT vl vts
    stop
}}
"""
    # The caller reaches the EQ only through the AND mask.  The load of
    # slot 1 meets the TIMESTAMP, not the caller, so it guards nothing.
    (g,) = infer_sender_guards(build_facts(parse_ir(text)))
    assert (g.slot, g.load_site, g.compare_site) == (0, "f.B0.0", "f.B0.4")


def test_deciders_through_iszero():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: vp = SLOAD 3
    1: vz = ISZERO vp
    jumpi vz B1 B2
  block B1:
    0: SSTORE 3 1
    stop
  block B2:
    stop
}}
"""
    db = build_facts(parse_ir(text))
    # The loaded flag feeds the branch condition, so it decides the store.
    assert "vp" in db.deciders("f.B1.0")
    assert "vp" not in db.deciders("f.B0.0")


def test_empty_contract_facts():
    db = build_facts(parse_ir(f"contract {ADDR}\n"))
    assert db.external_call == () and db.dataflow == frozenset()
    assert db.constant == {} and db.stmt_func == {}


def test_dataflow_matches_floyd_warshall_oracle():
    rng = random.Random(99)
    for i in range(210):
        program = random_program(rng)
        got = {
            (a, b)
            for (a, b) in build_facts(program).dataflow
        }
        want = floyd_warshall_dataflow(program)
        assert got == want, f"instance {i}"


def test_influencers_match_reversed_floyd_warshall_oracle():
    rng = random.Random(99)
    for i in range(210):
        program = random_program(rng)
        db = build_facts(program)
        closure = floyd_warshall_dataflow(program)
        for v in {a for a, _ in closure}:
            want = frozenset(a for a, b in closure if b == v)
            assert db.reaching((v,)) == want, f"instance {i}, {v}"
        assert db.reaching((7,)) == set()


def test_influencers_of_a_star_grow_linearly():
    # n leaves `vi = ADD v0 i` over one CALLVALUE; each leaf's influencers
    # are itself and v0, so asking for all of them should cost O(n).
    def star(n: int):
        lines = [
            f"contract {ADDR}",
            "function f public sig 0x00000001 params () {",
            "  block B0:",
            "    0: v0 = CALLVALUE",
            *(f"    {i}: v{i} = ADD v0 {i}" for i in range(1, n + 1)),
            "    stop",
            "}",
        ]
        db = build_facts(parse_ir("\n".join(lines) + "\n"))
        assert db.reaching((f"v{n}",)) == {"v0", f"v{n}"}
        return db, [f"v{i}" for i in range(1, n + 1)]

    def wall(db, leaves) -> float:
        start = time.perf_counter()
        for v in leaves:
            db.reaching((v,))
        return time.perf_counter() - start

    small, large = star(2000), star(4000)
    best_small = best_large = float("inf")
    # Best of 5.  The sizes alternate, so a slow spell of the machine hits
    # both, and the collector is off, so its pauses land in neither.
    gc.disable()
    try:
        for _ in range(5):
            best_small = min(best_small, wall(*small))
            best_large = min(best_large, wall(*large))
    finally:
        gc.enable()
    assert best_large <= 3 * best_small, (best_small, best_large)


def test_queries_in_any_order_match_the_oracle():
    # No query keeps a memo, and the closure cache is read by `dataflow`
    # alone, so no answer, and not the whole closure read afterwards, may
    # depend on what was asked first or on when the cache was filled.
    rng = random.Random(99)
    for i in range(210):
        program = random_program(rng)
        closure = floyd_warshall_dataflow(program)
        db = build_facts(program)
        variables = sorted({a for a, _ in closure})
        fwd = {v: frozenset(b for a, b in closure if a == v) for v in variables}
        back = {v: frozenset(a for a, b in closure if b == v) for v in variables}
        operands = [*variables, 7]

        order = random.Random(i)

        def some(xs, k: int) -> list:
            return order.sample(sorted(xs, key=str), order.randint(0, min(k, len(xs))))

        def union(sets, keys) -> frozenset:
            return frozenset().union(*(sets.get(k, ()) for k in keys))

        queries = [
            *((db.reached_from, ([v],), union(fwd, [v])) for v in operands),
            *((db.reaching, ([v],), union(back, [v])) for v in operands),
        ]
        # The conditions each statement depends on, from the `controls` rows.
        conditions = defaultdict(set)
        for cond, sid, _ in db.controls:
            conditions[sid].add(cond)
        queries += [
            (db.deciders, (s.sid,), union(back, conditions[s.sid]))
            for _, _, s in program.statements()
        ]
        for v in operands:
            # One walk from many sources, or to many targets, some of them
            # literals.
            sources = some(operands, 4)
            queries.append((db.reached_from, (sources,), union(fwd, sources)))
            targets = some(operands, 4)
            queries.append((db.reaching, (targets,), union(back, targets)))
            # Through a random set that may hold an influencer of v, and
            # through the ADD defs.  The sources may hold an influencer of
            # a member of `via`, the member itself, or v.
            for via in (some(operands, 3) + some(back.get(v, ()), 1), db.adds):
                sources = some(operands, 2) + [v] * order.randint(0, 1)
                for m in some(via, 1):
                    sources += some(back.get(m, {m}), 1)
                want = any(
                    (s, m) in closure and (m, v) in closure for s in sources for m in via
                )
                queries.append((db.flows_through, (sources, via, v), want))
        order.shuffle(queries)
        # Filling the cache at some point in between must change no answer.
        queries.insert(order.randint(0, len(queries)), (dataflow_closure, (db,), db))
        for query, args, want in queries:
            assert query(*args) == want, f"instance {i}, {query.__name__}{args}"
        assert set(db.dataflow) == closure, f"instance {i}"


def _chain_text(n: int, loads: bool, returns: bool, stores: bool = False) -> str:
    """One public function: an n-long chain of ADDs from CALLVALUE, each
    adding 1 or a load of its own slot and maybe stored back to that slot,
    sent to the caller by plain CALL."""
    body = ["v0 = CALLVALUE"]
    for i in range(1, n + 1):
        if loads:
            body += [f"vl{i} = SLOAD {i}", f"v{i} = ADD v{i - 1} vl{i}"]
        else:
            body.append(f"v{i} = ADD v{i - 1} 1")
        if stores:
            body.append(f"SSTORE {i} v{i}")
    body += ["vc = CALLER", f"CALL vc v{n}"]
    return "\n".join(
        [
            f"contract {ADDR}",
            "function f public sig 0x00000001 params () {",
            "  block B0:",
            *(f"    {k}: {line}" for k, line in enumerate(body)),
            f"    return v{n}" if returns else "    stop",
            "}",
            "",
        ]
    )


@pytest.mark.parametrize(
    "loads, returns, stores",
    [(False, False, False), (True, False, False), (True, True, False), (True, False, True)],
    ids=["add", "sum_of_loads", "sum_of_loads_returned", "stores"],
)
def test_audit_of_a_chain_grows_linearly(loads, returns, stores):
    # A dataflow closure built for every variable would hold about n**2 / 2
    # entries: a peak 4x as high, and a wall time 4x as long, per doubling.
    # With `stores`, every link is a supply candidate of its own slot.
    small, large = (_chain_text(n, loads, returns, stores) for n in (2000, 4000))

    def peak(text: str) -> int:
        tracemalloc.start()
        try:
            analyze_ir(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def wall(text: str) -> float:
        start = time.perf_counter()
        analyze_ir(text)
        return time.perf_counter() - start

    assert peak(large) <= 2.5 * peak(small)
    best_small = best_large = float("inf")
    # Best of 3, the sizes alternating and the collector off (see the star
    # test above).
    gc.disable()
    try:
        for _ in range(3):
            best_small = min(best_small, wall(small))
            best_large = min(best_large, wall(large))
    finally:
        gc.enable()
    assert best_large <= 3 * best_small, (best_small, best_large)
    if not loads:
        assert best_large < 0.5, best_large


def test_audit_of_the_dense_random_program_is_bounded():
    # The largest of 40 random programs of up to 2000 statements (seed 0):
    # dense dataflow with private calls, analysed in about 70 ms.
    text = max(
        (random_program_text(random.Random(s), 2000) for s in range(40)),
        key=lambda t: len(t.splitlines()),
    )
    assert len(text.splitlines()) == 1986
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            analyze_ir(text)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    assert best < 1.0, best


def test_base_fact_naive_rederivation():
    # Independent single-pass scan for EC/CA/MathOp/Comp and the storage and
    # environment relations on random programs.
    rng = random.Random(5)
    for _ in range(60):
        program = random_program(rng)
        db = derive_base_facts(program)
        ec, ca, mo, cmp_ = set(), set(), set(), set()
        loads, stores, callers, stamps, plain = [], [], [], [], []
        for _, _, s in program.statements():
            if s.opcode is Opcode.CALL and len(s.args) >= 3:
                ec.add((s.sid, s.args[0], s.args[2]))
                for i, a in enumerate(s.args[3:]):
                    ca.add((s.sid, a, i))
            if s.opcode is Opcode.CALL and len(s.args) == 2:
                plain.append(s)
            if s.opcode.value in ("ADD", "SUB", "MUL", "DIV", "MOD") and s.defvar:
                mo.add((s.defvar, s.opcode.value.lower(), s.args))
            if s.opcode.value in ("LT", "GT", "EQ"):
                cmp_.add((s.sid, s.opcode.value.lower(), s.args[0], s.args[1], s.defvar))
            # Random programs address storage by literal slots only.
            slot = s.args[0] if s.args and isinstance(s.args[0], int) else None
            if s.opcode is Opcode.SLOAD and slot is not None:
                loads.append((s.sid, slot, s.defvar))
            if s.opcode is Opcode.SSTORE and slot is not None:
                stores.append((s.sid, slot, s.args[1]))
            if s.opcode is Opcode.CALLER:
                callers.append(s.defvar)
            if s.opcode is Opcode.TIMESTAMP:
                stamps.append(s.defvar)
        assert set(db.external_call) == ec
        assert set(db.call_arg) == ca
        assert set(db.math_op) == mo
        assert set(db.comp) == cmp_
        assert [(o.sid, o.slot, o.value) for o in db.sloads] == loads
        assert [(o.sid, o.slot, o.value) for o in db.sstores] == stores
        assert db.slot_loads == {
            k: tuple(v for _, slot, v in loads if slot == k)
            for k in {slot for _, slot, _ in loads}
        }
        assert list(db.caller_defs) == callers
        assert list(db.timestamp_defs) == stamps
        assert list(db.plain_calls) == plain
        assert db.constant == _naive_constants(program)


def _naive_constants(program) -> dict[str, int]:
    """CONST defs, then ADD/SUB/MUL/DIV folded by whole passes until one
    folds nothing; a zero divisor folds nothing."""
    word = 1 << 256
    const: dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for _, _, s in program.statements():
            if s.defvar in const:
                continue
            vals = [a % word if isinstance(a, int) else const.get(a) for a in s.args]
            op = s.opcode.value
            if op == "CONST":
                const[s.defvar] = vals[0]
            elif op not in ("ADD", "SUB", "MUL", "DIV") or None in vals:
                continue
            elif op == "ADD":
                const[s.defvar] = (vals[0] + vals[1]) % word
            elif op == "SUB":
                const[s.defvar] = (vals[0] - vals[1]) % word
            elif op == "MUL":
                const[s.defvar] = (vals[0] * vals[1]) % word
            elif vals[1] == 0:
                continue
            else:
                const[s.defvar] = vals[0] // vals[1]
            changed = True
    return const


def test_constant_chain_folds_in_linear_time():
    # Listed against execution order, a pass over the statements folds one
    # link of the chain, so folding to fixpoint by passes costs n passes.
    n = 1000
    for order in (range(n, 0, -1), range(1, n + 1)):
        lines = [
            f"contract {ADDR}",
            "function f public sig 0x00000001 params () {",
            "  block E:",
            "    0: va0 = CONST 1",
            "    jump C1",
        ]
        for i in order:
            lines += [
                f"  block C{i}:",
                f"    0: va{i} = ADD va{i - 1} 1",
                "    stop" if i == n else f"    jump C{i + 1}",
            ]
        program = parse_ir("\n".join(lines + ["}", ""]))
        start = time.perf_counter()
        db = derive_base_facts(program)
        assert time.perf_counter() - start < 0.25
        assert db.constant == {f"va{i}": i + 1 for i in range(n + 1)}


def test_storage_and_balance_relations_keep_only_resolved_rows():
    other = "0x" + "bb" * 20
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vK, vV) {{
  block B0:
    0: vs = CONST 4
    1: v1 = SLOAD vK
    2: SSTORE vK vV
    3: v2 = SLOAD vs
    4: SSTORE vs v2
    5: vmine = BALANCE {ADDR}
    6: vtheirs = BALANCE {other}
    7: vp = BALANCE vK
    stop
}}
"""
    db = derive_base_facts(parse_ir(text))
    assert [(o.sid, o.slot, o.value) for o in db.sloads] == [("f.B0.3", 4, "v2")]
    assert [(o.sid, o.slot, o.value) for o in db.sstores] == [("f.B0.4", 4, "v2")]
    assert db.slot_loads == {4: ("v2",)}



def test_slots_are_named_after_folding():
    # Block U, listed first after the entry, loads and stores a slot that
    # block S, listed after it and dominating it, defines as ADD of two
    # CONSTs: the walk meets the storage before the slot's constant.
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vV) {{
  block E:
    jump S
  block U:
    0: vl = SLOAD vs
    1: SSTORE vs vV
    stop
  block S:
    0: va = CONST 2
    1: vb = CONST 3
    2: vs = ADD va vb
    jump U
}}
"""
    program = parse_ir(text)
    db = derive_base_facts(program)
    assert [(o.sid, o.slot, o.value) for o in db.sloads] == [("f.U.0", 5, "vl")]
    assert [(o.sid, o.slot, o.value) for o in db.sstores] == [("f.U.1", 5, "vV")]
    assert db.slot_loads == {5: ("vl",)}
    assert db.constant == _naive_constants(program)

def test_fact_dump_is_deterministic(tmp_path):
    program = parse_ir(ERC20_CALL)
    db = build_facts(program)
    first = {p.name: p.read_text() for p in dump_facts(db, tmp_path / "a")}
    second = {p.name: p.read_text() for p in dump_facts(build_facts(program), tmp_path / "b")}
    assert first == second
    assert "external_call.tsv" in first
    assert first["external_call.tsv"] == "f.B0.1\tvT\tv1\n"


def test_controls_indexes_agree_with_the_relation():
    rng = random.Random(31)
    for _ in range(60):
        db = build_facts(random_program(rng))
        by_sid: dict[str, set[str]] = {}
        by_cond: dict[str, set[str]] = {}
        for cond, sid, _ in db.controls:
            by_sid.setdefault(sid, set()).add(cond)
            by_cond.setdefault(cond, set()).add(sid)
        assert db.controlled_by == by_sid
        assert db.conditions == set(by_cond)
        for _, _, s in db.program.statements():
            assert db.conditions_controlling(s.sid) == by_sid.get(s.sid, set())


def test_region_sets_the_loads_its_stores_may_feed():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (vx, vk) {{
  block B0:
    0: vc = LT vx 5
    1: vd = LT vx 9
    jumpi vc B1 B2
  block B1:
    0: SSTORE 1 vx
    jump B2
  block B2:
    jumpi vd B3 B4
  block B3:
    0: SSTORE vk vx
    jump B4
  block B4:
    0: va = SLOAD 1
    1: vb = SLOAD 2
    2: vu = SLOAD vk
    stop
}}
"""
    sets = {b.cond: b.sets for b in build_facts(parse_ir(text)).branches["0x00000001"]}
    # A store to slot 1 may feed the load of slot 1 and the load whose slot
    # has no constant; a store to an unnamed slot may feed every load.
    assert sets == {"vc": {"va", "vu"}, "vd": {"va", "vb", "vu"}}


def test_branches_are_listed_under_every_selector_that_reaches_them(tmp_path):
    text = f"""contract {ADDR}
function helper private params (vp) {{
  block H0:
    0: vq = LT vp 5
    jumpi vq H1 H2
  block H1:
    0: vr = ADD vp 1
    jump H2
  block H2:
    returnprivate vp vp
}}
function f public sig 0x00000001 params (va) {{
  block B0:
    0: vx = CALLPRIVATE helper va
    1: vg = GT va 9
    jumpi vg B1 B2
  block B1:
    stop
  block B2:
    revert
}}
function g public sig 0x00000002 params (vb) {{
  block G0:
    0: vy = CALLPRIVATE helper vb
    stop
}}
"""
    db = build_facts(parse_ir(text))
    brs = {
        sel: [(b.function, b.block, b.cond, b.short_arm, b.sets) for b in v]
        for sel, v in db.branches.items()
    }
    assert brs == {
        "0x00000001": [("helper", "H0", "vq", "H2", {"vr"}), ("f", "B0", "vg", None, None)],
        "0x00000002": [("helper", "H0", "vq", "H2", {"vr"})],
    }
    # The record is not a relation, so the dumps leave it out.
    names = {p.name for p in dump_facts(db, tmp_path)}
    assert names == {
        f"{r}.tsv"
        for r in ("constant", "external_call", "call_arg", "math_op", "func_arg",
                  "controls", "stmt_func", "comp", "dataflow")
    }
