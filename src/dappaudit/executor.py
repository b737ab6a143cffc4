"""Depth-first symbolic execution over the IR, guided by an analysis plan.

Only planned selectors run; state is captured immediately before each plan
checkpoint (a transfer call or a role-slot store), so the captured operand
expressions are unclobbered by the statement itself.  Paths fork on
symbolic branch conditions, appending the condition (then) or its negation
(else) to the path constraints; constant conditions do not fork.

Dataflow-guided pruning: at a symbolic branch the plan entry lists in
`follow` (one that no checkpoint of the selector depends on; see
`graphs`), the path moves to the listed short arm without forking and
without a path constraint.  Both arms reach the branch's post-dominator
with the same values for everything the checkpoints and the remaining
branches read, so the states captured there are those of either arm.
Dropping the condition leaves the other constraints P and R of a path:
(P and c and R) or (P and not c and R) is P and R, and because
`check_feasible` proves infeasibility only from single-leaf atoms, the
constraints of the followed path are infeasible exactly when those of
every arm combination were.  A branch has a short arm only when every
path through it enters each of its blocks once and crosses no more blocks
than any path through the other arm (see `cfg`), and the blocks after the
post-dominator do not depend on the arm taken (see `graphs`), so loop and
depth pruning cut the followed path no earlier than any path the full
search would take through the other arm.  When they cut every path
through the other arm,
the full search captures only the short arm's states, each constrained
by the condition, and the followed path can keep a checkpoint those
constraints made infeasible; it never drops one the full search keeps.

Loops are bounded per path: entering a block increments its counter, PHI
statements take the in-loop operand (first) while the counter is at most
loop_bound, falling back to the out-loop operand (second) when the in-loop
variable is not yet bound, and take the out-loop operand on the visit
after loop_bound full iterations; edges that would push a counter past
that final visit are pruned, as are paths past max_depth blocks, and
either cut makes the run report budget_exceeded.

Modeling conventions: external call results and loads from non-constant
slots are fresh unknowns (named by site and occurrence); stores to
non-constant slots are dropped; BALANCE of the contract's own address is
the balance-of-self leaf, of any other address a stable unknown; a
variable read on a path that never defined it is an unknown named after
the variable; private calls are inlined with their block counters reset
per invocation, and the first value of a returning block binds the call's
definition (no returned values bind zero).

Expression-size budget: an operator statement whose value, read as a tree,
has more than MAX_EXPR_NODES nodes binds an opaque unknown named after its
site and occurrence instead (``opaque(<sid>#<n>)``), and the run reports
budget_exceeded, as it does when max_states, loop_bound or max_depth cuts
the search short.  The value's DAG stays small however large its tree
grows, but the rendered checkpoint operands grow with the tree, so the
budget keeps reports and `symexec` dumps bounded.
"""
from __future__ import annotations

from typing import NamedTuple

from .feasibility import Feasibility, check_feasible
from .graphs import AnalysisPlan
from .model import (
    IrFunction,
    IrProgram,
    OP_NAMES,
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

# Largest tree size an operator statement may bind; see the module docstring.
# A doubling chain of 15 levels (65,535 nodes) still fits.
MAX_EXPR_NODES = 1 << 16


class _Limits(NamedTuple):
    max_depth: int = 64
    loop_bound: int = 3
    max_states: int = 512


class Limits(_Limits):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Limits:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value < 1:
                raise ValueError(f"{name} must be positive")
        return self


class CheckpointState(NamedTuple):
    """Pre-statement snapshot at a plan checkpoint."""

    checkpoint: str
    selector: str
    opcode: str
    # Symbolic value of each statement operand, in operand order.
    args: tuple[SymExpr, ...]
    path: tuple[SymExpr, ...]
    feasibility: Feasibility


class ExecutionResult(NamedTuple):
    checkpoints: tuple[CheckpointState, ...]
    budget_exceeded: bool
    states_explored: int

    def feasible_checkpoints(self) -> tuple[CheckpointState, ...]:
        return tuple(
            c for c in self.checkpoints if c.feasibility is not Feasibility.INFEASIBLE
        )


class _State:
    """The mutable state of one path; a fork explores a `clone`."""

    fn: IrFunction
    bid: str
    idx: int
    env: dict[str, SymExpr]
    storage: dict[int, SymExpr]
    path: tuple[SymExpr, ...]
    depth: int
    counts: dict[tuple[str, str], int]
    # Private-call frames: (caller, block id, next statement, definition).
    stack: list[tuple[IrFunction, str, int, str | None]]
    occ: dict[str, int]
    # A budget cut this path, a fork of it, or a value it bound.
    budget_hit: bool
    __slots__ = tuple(__annotations__)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def clone(self) -> _State:
        return _State(
            self.fn,
            self.bid,
            self.idx,
            dict(self.env),
            dict(self.storage),
            self.path,
            self.depth,
            dict(self.counts),
            list(self.stack),
            dict(self.occ),
            self.budget_hit,
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
    follow = {(f, b): arm for f, b, arm in entry.follow}

    env = {p: calldata(selector, i) for i, p in enumerate(fn.params)}
    first = _State(fn, fn.entry.bid, 0, env, {}, (), 1, {(fn.name, fn.entry.bid): 1}, [], {}, False)

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
        _run_path(program, st, selector, targets, follow, limits, captured, stack)
        budget_exceeded = budget_exceeded or st.budget_hit
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
    """Move st to the target block; False, with the budget hit, when the
    edge is pruned."""
    key = (st.fn.name, target)
    count = st.counts.get(key, 0) + 1
    if st.depth + 1 > limits.max_depth or count > limits.loop_bound + 1:
        st.budget_hit = True
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
    follow: dict[tuple[str, str], str],
    limits: Limits,
    captured: list[CheckpointState],
    stack: list[_State],
) -> None:
    JUMP, JUMPI, RETURNPRIVATE = TermKind.JUMP, TermKind.JUMPI, TermKind.RETURNPRIVATE
    ISZERO, CONST, SLOAD, SSTORE = Opcode.ISZERO, Opcode.CONST, Opcode.SLOAD, Opcode.SSTORE
    CALLER, CALLVALUE, TIMESTAMP = Opcode.CALLER, Opcode.CALLVALUE, Opcode.TIMESTAMP
    BALANCE, PHI, CALL = Opcode.BALANCE, Opcode.PHI, Opcode.CALL
    env = st.env
    while True:
        block = st.fn.block(st.bid)
        if st.idx < len(block.statements):
            sid, op, d, args, _ = block.statements[st.idx]
            st.idx += 1
            if sid in targets:
                captured.append(
                    CheckpointState(
                        checkpoint=sid,
                        selector=selector,
                        opcode=op.value,
                        args=tuple(_resolve(st, a) for a in args),
                        path=st.path,
                        feasibility=check_feasible(st.path),
                    )
                )
            name = OP_NAMES.get(op)
            if name is not None or op is ISZERO:
                x = _resolve(st, args[0])
                value = iszero(x) if name is None else binop(name, x, _resolve(st, args[1]))
                if value.size > MAX_EXPR_NODES:
                    value = fresh(f"opaque({sid}#{_occ(st, sid)})")
                    st.budget_hit = True
                env[d] = value
            elif op is CONST:
                env[d] = const(args[0])
            elif op is SLOAD:
                slot = _resolve(st, args[0])
                if slot.is_const:
                    env[d] = st.storage.get(slot.value, store(slot.value))
                else:
                    env[d] = fresh(f"sload({sid}#{_occ(st, sid)})")
            elif op is SSTORE:
                slot = _resolve(st, args[0])
                if slot.is_const:
                    st.storage[slot.value] = _resolve(st, args[1])
            elif op is CALLER:
                env[d] = caller()
            elif op is CALLVALUE:
                env[d] = callvalue()
            elif op is TIMESTAMP:
                env[d] = timestamp()
            elif op is BALANCE:
                addr = _resolve(st, args[0])
                if addr.is_const and addr.value == program.address_int():
                    env[d] = balance_self()
                else:
                    env[d] = fresh(f"balance({render(addr)})")
            elif op is PHI:
                in_op, out_op = args
                count = st.counts.get((st.fn.name, st.bid), 1)
                if count <= limits.loop_bound and (isinstance(in_op, int) or in_op in env):
                    env[d] = _resolve(st, in_op)
                else:
                    env[d] = _resolve(st, out_op)
            elif op is CALL:
                if d is not None:
                    env[d] = fresh(f"ext({sid}#{_occ(st, sid)})")
            else:  # CALLPRIVATE
                callee = program.function(args[0])
                for formal, actual in zip(callee.params, args[1:]):
                    env[formal] = _resolve(st, actual)
                st.stack.append((st.fn, st.bid, st.idx, d))
                for b in callee.blocks:
                    st.counts[(callee.name, b.bid)] = 0
                st.fn = callee
                if not _transition(st, limits, callee.entry.bid):
                    return
            continue

        t = block.terminator
        if t.kind is JUMP:
            if not _transition(st, limits, t.targets[0]):
                return
            continue
        if t.kind is JUMPI:
            cond = _resolve(st, t.cond)
            target = None
            if cond.is_const:
                target = t.targets[0] if cond.value != 0 else t.targets[1]
            elif follow:
                target = follow.get((st.fn.name, st.bid))
            if target is not None:
                if not _transition(st, limits, target):
                    return
                continue
            other = st.clone()
            other.path = other.path + (iszero(cond),)
            if _transition(other, limits, t.targets[1]):
                stack.append(other)
            else:
                st.budget_hit = True
            st.path = st.path + (cond,)
            if not _transition(st, limits, t.targets[0]):
                return
            continue
        if t.kind is RETURNPRIVATE:
            if not st.stack:
                return
            st.fn, st.bid, st.idx, d = st.stack.pop()
            if d is not None:
                env[d] = _resolve(st, t.values[0]) if t.values else const(0)
            continue
        # RETURN / REVERT / STOP end the path.
        return


def _occ(st: _State, sid: str) -> int:
    n = st.occ.get(sid, 0)
    st.occ[sid] = n + 1
    return n
