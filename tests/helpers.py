"""Shared generators, reference oracles and a loopback HTTP endpoint for
the test suite.

Everything here is deliberately independent of the package internals: the
oracles re-derive results from the IR text/model by brute force so the
implementation under test cannot share bugs with them.
"""
from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from dappaudit.model import IrFunction, IrProgram, Opcode, TermKind
from dappaudit.parser import parse_ir

ADDR = "0x00000000000000000000000000000000000000aa"


@contextmanager
def local_endpoint(reply):
    """Serve POSTs on a loopback port; `reply(body)` gives the status and
    the bytes of each answer.  Yields the URL and a list that gets one
    (Content-Type, body) pair per request received."""
    log: list[tuple[str, bytes]] = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            log.append((self.headers["Content-Type"], body))
            status, data = reply(body)
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval lets shutdown() return promptly.
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", log
    finally:
        server.shutdown()
        server.server_close()


def padded(reply: bytes, size: int) -> bytes:
    """`reply` with blanks appended up to `size` bytes: the same JSON."""
    return reply + b" " * (size - len(reply))


def counted_loop_text(k: int) -> str:
    """A loop whose header runs until its counter reaches k, then a refund
    of CALLVALUE to the caller; selector 0x0000000f."""
    return f"""contract {ADDR}
function refund public sig 0x0000000f params () {{
  block L0:
    0: v0 = CONST 0
    jump H
  block H:
    0: vi = PHI vn v0
    1: vn = ADD vi 1
    2: vl = LT vn {k}
    jumpi vl H P
  block P:
    0: vw = CALLER
    1: vv = CALLVALUE
    2: CALL vw vv
    stop
}}
"""


def doubling_chain_text(n: int) -> str:
    """A refund to the caller of CALLVALUE doubled n times by ADD v v."""
    lines = [
        f"contract {ADDR}",
        "function refund public sig 0x0badf00d params () {",
        "  block R0:",
        "    0: v0 = CALLVALUE",
    ]
    lines += [f"    {i}: v{i} = ADD v{i - 1} v{i - 1}" for i in range(1, n + 1)]
    lines += [f"    {n + 1}: vwho = CALLER", f"    {n + 2}: CALL vwho v{n}", "    stop", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random branchy CFGs (acyclic, one fresh condition per branch)


def random_cfg_text(rng: random.Random, max_blocks: int = 8) -> str:
    n = rng.randint(2, max_blocks)
    conds = [f"vc{i}" for i in range(n)]
    lines = [f"contract {ADDR}", "function f public sig 0x01020304 params () {"]
    lines.append("  block B0:")
    for i, c in enumerate(conds):
        lines.append(f"    {i}: {c} = CALLVALUE")
    body: list[str] = []
    for i in range(n):
        if i > 0:
            body.append(f"  block B{i}:")
            body.append(f"    0: vm{i} = CONST {i}")  # marker statement
        last = i == n - 1
        kind = "stop" if last else rng.choice(["jump", "jumpi", "jumpi", "stop"])
        if kind == "jump":
            body.append(f"    jump B{rng.randint(i + 1, n - 1)}")
        elif kind == "jumpi":
            t = rng.randint(i + 1, n - 1)
            e = rng.randint(i + 1, n - 1)
            body.append(f"    jumpi {conds[i]} B{t} B{e}")
        else:
            body.append("    stop")
    lines.extend(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_blocks(fn: IrFunction, assign: dict[str, bool]) -> list[str]:
    """Concrete path of block ids under a branch-outcome assignment."""
    path = []
    bid = fn.blocks[0].bid
    while True:
        path.append(bid)
        t = fn.block(bid).terminator
        if t.kind is TermKind.JUMP:
            bid = t.targets[0]
        elif t.kind is TermKind.JUMPI:
            bid = t.targets[0] if assign[t.cond] else t.targets[1]
        else:
            return path


def flip_dependence(fn: IrFunction) -> dict[str, set[str]]:
    """Brute-force oracle: block -> conditions whose outcome can, with all
    other outcomes held fixed, change whether the block executes."""
    conds = sorted(
        {
            b.terminator.cond
            for b in fn.blocks
            if b.terminator.kind is TermKind.JUMPI and isinstance(b.terminator.cond, str)
        }
    )
    deps: dict[str, set[str]] = {b.bid: set() for b in fn.blocks}
    for flip in conds:
        others = [c for c in conds if c != flip]
        for bits in range(2 ** len(others)):
            assign = {c: bool((bits >> i) & 1) for i, c in enumerate(others)}
            hi = set(trace_blocks(fn, {**assign, flip: True}))
            lo = set(trace_blocks(fn, {**assign, flip: False}))
            for bid in hi.symmetric_difference(lo):
                deps[bid].add(flip)
    return deps


# ---------------------------------------------------------------------------
# Random programs over the full statement vocabulary, loop-free unless asked


def random_program(
    rng: random.Random,
    max_stmts: int = 30,
    with_calls: bool = True,
    with_private: bool = True,
    with_loops: bool = False,
) -> IrProgram:
    return parse_ir(
        random_program_text(rng, max_stmts, with_calls, with_private, with_loops)
    )


def random_program_text(
    rng: random.Random,
    max_stmts: int = 30,
    with_calls: bool = True,
    with_private: bool = True,
    with_loops: bool = False,
    with_slot_flow: bool = False,
) -> str:
    """A public function (optionally calling one private helper).  It is
    loop-free unless with_loops, which allows up to 5 blocks instead of 3
    and may send an arm of a branch through a loop of a constant trip count
    of 1 to 6 before its target.  With with_slot_flow it has 3 to 5 blocks,
    each but the last ending in a branch when it can, and every block after
    the first stores to slot 6 and loads it back; the load is the block's
    branch condition, or else it is sent.  What an arm stores then reaches
    later branch conditions and checkpoint operands through storage."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    lines = [f"contract {ADDR}"]
    helper_params: list[str] = []
    helper_ret = ""
    if with_private and rng.random() < 0.6:
        helper_params = [fresh(), fresh()]
        p0, p1 = helper_params
        helper_ret = fresh()
        lines += [
            f"function helper private params ({p0}, {p1}) {{",
            "  block H0:",
            f"    0: {helper_ret} = ADD {p0} {p1}",
            f"    returnprivate {p0} {helper_ret}",
            "}",
        ]

    params = [fresh() for _ in range(rng.randint(0, 3))]
    sel = f"0x{rng.randrange(16**8):08x}"
    lines.append(f"function f public sig {sel} params ({', '.join(params)}) {{")

    defined: list[str] = list(params)
    budget = rng.randint(1, max_stmts)
    if with_slot_flow:
        n_blocks = rng.randint(3, 5)
    else:
        n_blocks = rng.randint(1, 5 if with_loops else 3)
    per_block = max(1, budget // n_blocks)

    def emit_stmt(i: int) -> str:
        choices = ["const", "arith", "env", "sload", "cmp", "logic", "iszero"]
        if defined:
            choices += ["sstore"]
        if with_calls and defined:
            choices += ["call"]
        if helper_params and defined:
            choices += ["callprivate"]
        kind = rng.choice(choices)

        def operand() -> str | int:
            if defined and rng.random() < 0.7:
                return rng.choice(defined)
            return rng.randrange(0, 1000)

        if kind == "const":
            v = fresh()
            defined.append(v)
            return f"    {i}: {v} = CONST {rng.randrange(0, 2**32)}"
        if kind == "arith":
            v = fresh()
            op = rng.choice(["ADD", "SUB", "MUL", "DIV", "MOD"])
            line = f"    {i}: {v} = {op} {operand()} {operand()}"
            defined.append(v)
            return line
        if kind == "env":
            v = fresh()
            defined.append(v)
            return f"    {i}: {v} = {rng.choice(['CALLER', 'CALLVALUE', 'TIMESTAMP'])}"
        if kind == "sload":
            v = fresh()
            line = f"    {i}: {v} = SLOAD {rng.randrange(0, 6)}"
            defined.append(v)
            return line
        if kind == "sstore":
            return f"    {i}: SSTORE {rng.randrange(0, 6)} {operand()}"
        if kind == "cmp":
            v = fresh()
            op = rng.choice(["LT", "GT", "EQ"])
            line = f"    {i}: {v} = {op} {operand()} {operand()}"
            defined.append(v)
            return line
        if kind == "logic":
            v = fresh()
            op = rng.choice(["AND", "OR"])
            line = f"    {i}: {v} = {op} {operand()} {operand()}"
            defined.append(v)
            return line
        if kind == "iszero":
            v = fresh()
            line = f"    {i}: {v} = ISZERO {operand()}"
            defined.append(v)
            return line
        if kind == "callprivate":
            v = fresh()
            line = f"    {i}: {v} = CALLPRIVATE helper {operand()} {operand()}"
            defined.append(v)
            return line
        # External call: half plain sends, half ABI calls.
        if rng.random() < 0.5:
            return f"    {i}: CALL {operand()} {operand()}"
        v = fresh()
        sig = rng.choice([0xA9059CBB, 0x23B872DD, 0x11112222])
        line = f"    {i}: {v} = CALL {operand()} {operand()} {sig} {operand()} {operand()}"
        defined.append(v)
        return line

    loops: list[str] = []
    for b in range(n_blocks):
        lines.append(f"  block B{b}:")
        for i in range(per_block):
            lines.append(emit_stmt(i))
        k = per_block  # the index of the block's next statement
        loaded = None
        if with_slot_flow and b:
            v = fresh()
            lines += [
                f"    {k}: SSTORE 6 {rng.choice(defined) if defined else 1}",
                f"    {k + 1}: {v} = SLOAD 6",
            ]
            k += 2
            if b < n_blocks - 1 and rng.random() < 0.7:
                loaded = v
            else:
                lines.append(f"    {k}: CALL {v} {v}")
                k += 1
                defined.append(v)
        last = b == n_blocks - 1
        if last:
            ret = rng.choice(defined) if defined and rng.random() < 0.7 else None
            lines.append(f"    return {ret}" if ret else "    stop")
        elif defined and (with_slot_flow or rng.random() < 0.5):
            arms = [f"B{rng.randint(b + 1, n_blocks - 1)}" for _ in range(2)]
            if with_loops and rng.random() < 0.5:
                # The loop's variables stay out of `defined`: only the
                # paths through the loop define them.
                arm = rng.randrange(2)
                start, i, n, go = fresh(), fresh(), fresh(), fresh()
                lines.append(f"    {k}: {start} = CONST 0")
                loops += [
                    f"  block L{b}:",
                    f"    0: {i} = PHI {n} {start}",
                    f"    1: {n} = ADD {i} 1",
                    f"    2: {go} = LT {n} {rng.randint(1, 6)}",
                    f"    jumpi {go} L{b} {arms[arm]}",
                ]
                arms[arm] = f"L{b}"
            cond = loaded or rng.choice(defined)
            lines.append(f"    jumpi {cond} {arms[0]} {arms[1]}")
        else:
            lines.append(f"    jump B{b + 1}")
    lines += loops
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference dataflow: Floyd-Warshall closure over independently derived seeds


def seed_dataflow_edges(program: IrProgram) -> set[tuple[str, str]]:
    edges: set[tuple[str, str]] = set()
    call_defs: dict[str, list[tuple[str, str | None]]] = {}
    for _, _, s in program.statements():
        if s.opcode is Opcode.CALLPRIVATE:
            call_defs.setdefault(s.callee, []).append((s.sid, s.defvar))
    for fn, _, s in program.statements():
        if s.opcode is Opcode.CALLPRIVATE:
            callee = program.function(s.callee)
            for actual, formal in zip(s.args[1:], callee.params):
                if isinstance(actual, str):
                    edges.add((actual, formal))
        elif s.opcode in (Opcode.CALL, Opcode.SSTORE, Opcode.CONST):
            continue
        elif s.defvar is not None:
            for v in s.uses:
                edges.add((v, s.defvar))
    for fn in program.functions:
        for b in fn.blocks:
            t = b.terminator
            if t.kind is TermKind.RETURNPRIVATE:
                for _, d in call_defs.get(fn.name, []):
                    if d is not None:
                        for v in t.values:
                            if isinstance(v, str):
                                edges.add((v, d))
    return edges


def floyd_warshall_dataflow(program: IrProgram) -> set[tuple[str, str]]:
    variables: set[str] = set()
    for fn in program.functions:
        variables.update(fn.params)
    for _, _, s in program.statements():
        if s.defvar:
            variables.add(s.defvar)
        variables.update(s.uses)
    idx = sorted(variables)
    reach = {(a, b): False for a in idx for b in idx}
    for a in idx:
        reach[(a, a)] = True
    for a, b in seed_dataflow_edges(program):
        reach[(a, b)] = True
    for k in idx:
        for i in idx:
            if reach[(i, k)]:
                for j in idx:
                    if reach[(k, j)]:
                        reach[(i, j)] = True
    return {(a, b) for (a, b), ok in reach.items() if ok}


# ---------------------------------------------------------------------------
# Concrete reference interpreter for the bounded symbolic machine

WORD = 1 << 256


def _word_op(op: str, a: int, b: int) -> int:
    if op == "ADD":
        return (a + b) % WORD
    if op == "SUB":
        return (a - b) % WORD
    if op == "MUL":
        return (a * b) % WORD
    if op == "DIV":
        return a // b if b else 0
    if op == "MOD":
        return a % b if b else 0
    if op == "LT":
        return int(a < b)
    if op == "GT":
        return int(a > b)
    if op == "EQ":
        return int(a == b)
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    raise AssertionError(op)


def concrete_execute(
    program: IrProgram,
    selector: str,
    need,
    loop_bound: int = 3,
    max_depth: int = 64,
):
    """Run one public function concretely, mirroring the symbolic machine's
    modeling conventions: identical leaf naming (calldata/caller/callvalue/
    timestamp/store/undef/ext keys), write-before-read storage, private-call
    inlining with per-invocation counters, and the same loop/depth pruning.
    `need(name)` supplies the value of each input leaf on first use; callers
    back it with a dict so repeated reads agree.  Returns the ordered list of
    (sid, operand value tuple) for every CALL and SSTORE visited.

    Storage and balance operands must be literals (true of the random
    corpus); anything else raises NotImplementedError.
    """
    fn = program.function_of_selector(selector)
    assert fn is not None
    env: dict[str, int] = {}
    for i, p in enumerate(fn.params):
        env[p] = need(f"calldata({selector},{i})") % WORD
    storage: dict[int, int] = {}
    occ: dict[str, int] = {}
    frames: list[tuple[str, str, int, str | None]] = []
    visits: list[tuple[str, tuple[int, ...]]] = []
    counts = {(fn.name, fn.entry.bid): 1}
    depth = 1
    bid, idx = fn.entry.bid, 0

    def val(op) -> int:
        if isinstance(op, int):
            return op % WORD
        if op not in env:
            env[op] = need(f"undef({op})") % WORD
        return env[op]

    def enter(target: str) -> bool:
        nonlocal bid, idx, depth
        if depth + 1 > max_depth:
            return False
        key = (fn.name, target)
        count = counts.get(key, 0) + 1
        if count > loop_bound + 1:
            return False
        counts[key] = count
        depth += 1
        bid = target
        idx = 0
        return True

    while True:
        block = fn.block(bid)
        if idx < len(block.statements):
            s = block.statements[idx]
            idx += 1
            op = s.opcode
            if op is Opcode.CALL or op is Opcode.SSTORE:
                visits.append((s.sid, tuple(val(a) for a in s.args)))
            if op is Opcode.CONST:
                env[s.defvar] = s.args[0] % WORD
            elif op.value in ("ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GT", "EQ", "AND", "OR"):
                env[s.defvar] = _word_op(op.value, val(s.args[0]), val(s.args[1]))
            elif op is Opcode.ISZERO:
                env[s.defvar] = int(val(s.args[0]) == 0)
            elif op is Opcode.CALLER:
                env[s.defvar] = need("caller") % WORD
            elif op is Opcode.CALLVALUE:
                env[s.defvar] = need("callvalue") % WORD
            elif op is Opcode.TIMESTAMP:
                env[s.defvar] = need("timestamp") % WORD
            elif op is Opcode.BALANCE:
                a = s.args[0]
                if not isinstance(a, int):
                    raise NotImplementedError("balance of a computed address")
                key = "balance(self)" if a == program.address_int() else f"balance({a % WORD})"
                env[s.defvar] = need(key) % WORD
            elif op is Opcode.SLOAD:
                a = s.args[0]
                if not isinstance(a, int):
                    raise NotImplementedError("non-literal load slot")
                if a in storage:
                    env[s.defvar] = storage[a]
                else:
                    env[s.defvar] = need(f"store({a})") % WORD
            elif op is Opcode.SSTORE:
                a = s.args[0]
                if not isinstance(a, int):
                    raise NotImplementedError("non-literal store slot")
                storage[a] = val(s.args[1])
            elif op is Opcode.PHI:
                in_op, out_op = s.args
                count = counts.get((fn.name, bid), 1)
                in_bound = isinstance(in_op, int) or in_op in env
                pick = in_op if (count <= loop_bound and in_bound) else out_op
                env[s.defvar] = val(pick)
            elif op is Opcode.CALL:
                if s.defvar is not None:
                    n = occ.get(s.sid, 0)
                    occ[s.sid] = n + 1
                    env[s.defvar] = need(f"ext({s.sid}#{n})") % WORD
            elif op is Opcode.CALLPRIVATE:
                callee = program.function(s.callee)
                for formal, actual in zip(callee.params, s.args[1:]):
                    env[formal] = val(actual)
                frames.append((fn.name, bid, idx, s.defvar))
                for b2 in callee.blocks:
                    counts[(callee.name, b2.bid)] = 0
                fn = callee
                if not enter(fn.entry.bid):
                    return visits
            continue

        t = block.terminator
        if t.kind is TermKind.JUMP:
            if not enter(t.targets[0]):
                return visits
        elif t.kind is TermKind.JUMPI:
            target = t.targets[0] if val(t.cond) != 0 else t.targets[1]
            if not enter(target):
                return visits
        elif t.kind is TermKind.RETURNPRIVATE:
            if not frames:
                return visits
            fname, fbid, fidx, fdef = frames.pop()
            if fdef is not None:
                env[fdef] = val(t.values[0]) if t.values else 0
            fn = program.function(fname)
            bid, idx = fbid, fidx
        else:
            return visits
