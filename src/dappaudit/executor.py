"""Depth-first symbolic execution over the IR, guided by an analysis plan.

Only planned selectors run; state is captured immediately before each plan
checkpoint (a transfer call or a role-slot store), so the captured operand
expressions are unclobbered by the statement itself.  Paths fork on
symbolic branch conditions, appending the condition (then) or its negation
(else) to the path constraints; constant conditions do not fork.

Loops are bounded per path: entering a block increments its counter, PHI
statements take the in-loop operand (first) while the counter is at most
loop_bound, falling back to the out-loop operand (second) when the in-loop
variable is not yet bound, and take the out-loop operand on the visit
after loop_bound full iterations; edges that would push a counter past
that final visit are pruned, as are paths past max_depth blocks.

Modeling conventions: external call results and loads from non-constant
slots are fresh unknowns (named by site and occurrence); stores to
non-constant slots are dropped; BALANCE of the contract's own address is
the balance-of-self leaf, of any other address a stable unknown; a
variable read on a path that never defined it is an unknown named after
the variable; private calls are inlined with their block counters reset
per invocation, and the first value of a returning block binds the call's
definition (no returned values bind zero).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .feasibility import Feasibility, check_feasible
from .graphs import AnalysisPlan
from .model import (
    ARITH_OPS,
    COMPARE_OPS,
    IrFunction,
    IrProgram,
    LOGIC_OPS,
    Opcode,
    Operand,
    TermKind,
)
from .symexpr import (
    SymExpr,
    balance_self,
    binop,
    calldata,
    caller,
    callvalue,
    const,
    fresh,
    iszero,
    render,
    store,
    timestamp,
)


@dataclass(frozen=True)
class Limits:
    max_depth: int = 64
    loop_bound: int = 3
    max_states: int = 512


@dataclass(frozen=True)
class CheckpointState:
    """Pre-statement snapshot at a plan checkpoint."""

    checkpoint: str
    selector: str
    opcode: str
    # Symbolic value of each statement operand, in operand order.
    args: tuple[SymExpr, ...]
    path: tuple[SymExpr, ...]
    feasibility: Feasibility


@dataclass(frozen=True)
class ExecutionResult:
    checkpoints: tuple[CheckpointState, ...]
    budget_exceeded: bool
    states_explored: int

    def feasible_checkpoints(self) -> tuple[CheckpointState, ...]:
        return tuple(
            c for c in self.checkpoints if c.feasibility is not Feasibility.INFEASIBLE
        )


@dataclass
class _Frame:
    fn_name: str
    bid: str
    idx: int
    defvar: str | None


@dataclass
class _State:
    fn: IrFunction
    bid: str
    idx: int
    env: dict[str, SymExpr]
    storage: dict[int, SymExpr]
    path: tuple[SymExpr, ...]
    depth: int
    counts: dict[tuple[str, str], int]
    stack: list[_Frame]
    occ: dict[str, int]

    def clone(self) -> "_State":
        return _State(
            fn=self.fn,
            bid=self.bid,
            idx=self.idx,
            env=dict(self.env),
            storage=dict(self.storage),
            path=self.path,
            depth=self.depth,
            counts=dict(self.counts),
            stack=[replace(f) for f in self.stack],
            occ=dict(self.occ),
        )


def execute_function(
    program: IrProgram,
    selector: str,
    plan: AnalysisPlan,
    limits: Limits = Limits(),
) -> ExecutionResult:
    """Explore the public function `selector`, returning the checkpoint
    states the plan asked for."""
    fn = program.function_of_selector(selector)
    entry = plan.entry(selector)
    if fn is None or entry is None:
        return ExecutionResult((), False, 0)
    targets = frozenset(entry.checkpoints)

    env = {p: calldata(selector, i) for i, p in enumerate(fn.params)}
    first = _State(
        fn=fn,
        bid=fn.entry.bid,
        idx=0,
        env=env,
        storage={},
        path=(),
        depth=1,
        counts={(fn.name, fn.entry.bid): 1},
        stack=[],
        occ={},
    )

    captured: list[CheckpointState] = []
    stack = [first]
    processed = 0
    budget_exceeded = False
    while stack:
        if processed >= limits.max_states:
            budget_exceeded = True
            break
        st = stack.pop()
        processed += 1
        _run_path(program, st, selector, targets, limits, captured, stack)
    return ExecutionResult(tuple(captured), budget_exceeded, processed)


def _resolve(st: _State, op: Operand) -> SymExpr:
    if isinstance(op, int):
        return const(op)
    got = st.env.get(op)
    if got is None:
        got = fresh(f"undef({op})")
        st.env[op] = got
    return got


def _transition(st: _State, limits: Limits, target: str) -> bool:
    """Move st to the target block; False when the edge is pruned."""
    if st.depth + 1 > limits.max_depth:
        return False
    key = (st.fn.name, target)
    count = st.counts.get(key, 0) + 1
    if count > limits.loop_bound + 1:
        return False
    st.counts[key] = count
    st.depth += 1
    st.bid = target
    st.idx = 0
    return True


def _run_path(
    program: IrProgram,
    st: _State,
    selector: str,
    targets: frozenset[str],
    limits: Limits,
    captured: list[CheckpointState],
    stack: list[_State],
) -> None:
    while True:
        block = st.fn.block(st.bid)
        if st.idx < len(block.statements):
            s = block.statements[st.idx]
            st.idx += 1
            if s.sid in targets:
                captured.append(
                    CheckpointState(
                        checkpoint=s.sid,
                        selector=selector,
                        opcode=s.opcode.value,
                        args=tuple(_resolve(st, a) for a in s.args),
                        path=st.path,
                        feasibility=check_feasible(st.path),
                    )
                )
            if not _exec_statement(program, st, s, limits):
                return
            continue

        t = block.terminator
        if t.kind is TermKind.JUMP:
            if not _transition(st, limits, t.targets[0]):
                return
            continue
        if t.kind is TermKind.JUMPI:
            cond = _resolve(st, t.cond)
            if cond.is_const:
                target = t.targets[0] if cond.value != 0 else t.targets[1]
                if not _transition(st, limits, target):
                    return
                continue
            other = st.clone()
            other.path = other.path + (iszero(cond),)
            if _transition(other, limits, t.targets[1]):
                stack.append(other)
            st.path = st.path + (cond,)
            if not _transition(st, limits, t.targets[0]):
                return
            continue
        if t.kind is TermKind.RETURNPRIVATE:
            if not st.stack:
                return
            frame = st.stack.pop()
            if frame.defvar is not None:
                st.env[frame.defvar] = (
                    _resolve(st, t.values[0]) if t.values else const(0)
                )
            st.fn = program.function(frame.fn_name)
            st.bid = frame.bid
            st.idx = frame.idx
            continue
        # RETURN / REVERT / STOP end the path.
        return


def _exec_statement(program, st: _State, s, limits: Limits) -> bool:
    op = s.opcode
    if op is Opcode.CONST:
        st.env[s.defvar] = const(s.args[0])
    elif op in ARITH_OPS or op in COMPARE_OPS or op in LOGIC_OPS:
        st.env[s.defvar] = binop(
            op.value.lower(), _resolve(st, s.args[0]), _resolve(st, s.args[1])
        )
    elif op is Opcode.ISZERO:
        st.env[s.defvar] = iszero(_resolve(st, s.args[0]))
    elif op is Opcode.CALLER:
        st.env[s.defvar] = caller()
    elif op is Opcode.CALLVALUE:
        st.env[s.defvar] = callvalue()
    elif op is Opcode.TIMESTAMP:
        st.env[s.defvar] = timestamp()
    elif op is Opcode.BALANCE:
        addr = _resolve(st, s.args[0])
        if addr.is_const and addr.value == program.address_int():
            st.env[s.defvar] = balance_self()
        else:
            st.env[s.defvar] = fresh(f"balance({render(addr)})")
    elif op is Opcode.SLOAD:
        slot = _resolve(st, s.args[0])
        if slot.is_const:
            st.env[s.defvar] = st.storage.get(slot.value, store(slot.value))
        else:
            st.env[s.defvar] = fresh(f"sload({s.sid}#{_occ(st, s.sid)})")
    elif op is Opcode.SSTORE:
        slot = _resolve(st, s.args[0])
        if slot.is_const:
            st.storage[slot.value] = _resolve(st, s.args[1])
    elif op is Opcode.PHI:
        in_op, out_op = s.args
        count = st.counts.get((st.fn.name, st.bid), 1)
        in_bound = isinstance(in_op, int) or in_op in st.env
        if count <= limits.loop_bound and in_bound:
            st.env[s.defvar] = _resolve(st, in_op)
        else:
            st.env[s.defvar] = _resolve(st, out_op)
    elif op is Opcode.CALL:
        if s.defvar is not None:
            st.env[s.defvar] = fresh(f"ext({s.sid}#{_occ(st, s.sid)})")
    elif op is Opcode.CALLPRIVATE:
        callee = program.function(s.callee)
        for formal, actual in zip(callee.params, s.args[1:]):
            st.env[formal] = _resolve(st, actual)
        st.stack.append(_Frame(st.fn.name, st.bid, st.idx, s.defvar))
        for b in callee.blocks:
            st.counts[(callee.name, b.bid)] = 0
        st.fn = callee
        if not _transition(st, limits, callee.entry.bid):
            return False
    return True


def _occ(st: _State, sid: str) -> int:
    n = st.occ.get(sid, 0)
    st.occ[sid] = n + 1
    return n
