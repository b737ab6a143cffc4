"""Per-function control-flow graphs and control dependence.

Post-dominators are computed by an iterative set fixpoint over a graph
augmented with a synthetic exit node; control-dependence base edges come
from post-dominance frontiers, and the exposed relation is their
block-level transitive closure: a statement depends on every branch whose
outcome can change whether the statement executes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import IrFunction, Operand, TermKind

EXIT = "__exit__"

# Terminators that leave the function (edges to the synthetic exit).
_EXITING = {TermKind.RETURN, TermKind.RETURNPRIVATE, TermKind.REVERT, TermKind.STOP}


@dataclass(frozen=True)
class Cfg:
    function: str
    nodes: tuple[str, ...]
    # (src, dst, branch): branch is True/False for jumpi edges, None for jump.
    edges: tuple[tuple[str, str, bool | None], ...]
    ipdom: dict[str, str]
    # Transitive block-level control dependence: block -> {(cond, branch)}.
    block_deps: dict[str, frozenset[tuple[Operand, bool]]]
    # Statement-level view of the same relation, keyed by sid.
    stmt_controls: dict[str, frozenset[tuple[Operand, bool]]]
    unreachable: tuple[str, ...]


def _successors(fn: IrFunction) -> dict[str, list[tuple[str, bool | None]]]:
    succ: dict[str, list[tuple[str, bool | None]]] = {}
    for b in fn.blocks:
        t = b.terminator
        if t.kind is TermKind.JUMP:
            succ[b.bid] = [(t.targets[0], None)]
        elif t.kind is TermKind.JUMPI:
            succ[b.bid] = [(t.targets[0], True), (t.targets[1], False)]
        elif t.kind in _EXITING:
            succ[b.bid] = [(EXIT, None)]
        else:  # pragma: no cover - enum is closed
            raise AssertionError(t.kind)
    return succ


def build_cfg(fn: IrFunction) -> Cfg:
    order = [b.bid for b in fn.blocks]
    succ = _successors(fn)
    edges = tuple((src, dst, br) for src in order for dst, br in succ[src])

    reachable = _forward_reachable(order[0], succ)
    unreachable = tuple(b for b in order if b not in reachable)

    ipdom = _post_dominators(order, succ)
    base = _frontier_deps(fn, order, succ, ipdom, reachable)
    block_deps = _transitive(fn, base)

    stmt_controls: dict[str, frozenset[tuple[Operand, bool]]] = {}
    for b in fn.blocks:
        deps = block_deps.get(b.bid, frozenset())
        for s in b.statements:
            stmt_controls[s.sid] = deps

    return Cfg(
        function=fn.name,
        nodes=tuple(order),
        edges=edges,
        ipdom=ipdom,
        block_deps=block_deps,
        stmt_controls=stmt_controls,
        unreachable=unreachable,
    )


def _forward_reachable(entry: str, succ: dict[str, list[tuple[str, bool | None]]]) -> set[str]:
    seen = {entry}
    work = [entry]
    while work:
        for dst, _ in succ[work.pop()]:
            if dst != EXIT and dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen


def _post_dominators(
    order: list[str], succ: dict[str, list[tuple[str, bool | None]]]
) -> dict[str, str]:
    """Immediate post-dominator of each block that can reach the exit."""
    universe = set(order) | {EXIT}
    pdom: dict[str, set[str]] = {n: set(universe) for n in order}
    pdom[EXIT] = {EXIT}

    changed = True
    while changed:
        changed = False
        for n in reversed(order):
            succs = [d for d, _ in succ[n]]
            sets = [pdom[d] for d in succs]
            new = set.intersection(*sets) | {n} if sets else {n}
            if new != pdom[n]:
                pdom[n] = new
                changed = True

    # A block that cannot reach the exit has no defined ipdom and takes no
    # part in control dependence.
    reaches_exit = {EXIT}
    changed = True
    while changed:
        changed = False
        for n in order:
            if n not in reaches_exit and any(d in reaches_exit for d, _ in succ[n]):
                reaches_exit.add(n)
                changed = True
    ipdom: dict[str, str] = {}
    for n in order:
        if n not in reaches_exit:
            continue
        strict = pdom[n] - {n}
        # The immediate post-dominator is the strict post-dominator that is
        # post-dominated by all the others.
        for c in strict:
            others = strict - {c}
            cpd = pdom.get(c, {EXIT}) if c != EXIT else {EXIT}
            if all(o in cpd for o in others):
                ipdom[n] = c
                break
    return ipdom


def _frontier_deps(
    fn: IrFunction,
    order: list[str],
    succ: dict[str, list[tuple[str, bool | None]]],
    ipdom: dict[str, str],
    reachable: set[str],
) -> dict[str, set[tuple[str, Operand, bool]]]:
    """Base control dependence: walk the post-dominator tree per branch edge."""
    deps: dict[str, set[tuple[str, Operand, bool]]] = {n: set() for n in order}
    for a in order:
        # A branch that never executes controls nothing.
        if a not in reachable:
            continue
        block = fn.block(a)
        if block.terminator.kind is not TermKind.JUMPI:
            continue
        cond = block.terminator.cond
        stop = ipdom.get(a)
        if stop is None:
            continue
        for dst, br in succ[a]:
            runner = dst
            while runner != stop and runner != EXIT:
                deps[runner].add((a, cond, br))
                nxt = ipdom.get(runner)
                if nxt is None:
                    break
                runner = nxt
    return deps


def _transitive(
    fn: IrFunction, base: dict[str, set[tuple[str, Operand, bool]]]
) -> dict[str, frozenset[tuple[Operand, bool]]]:
    # A branch statement is itself subject to its block's dependences, so a
    # dependent block inherits the dependences of each controlling block.
    full: dict[str, set[tuple[str, Operand, bool]]] = {b: set(d) for b, d in base.items()}
    changed = True
    while changed:
        changed = False
        for b in full:
            add: set[tuple[str, Operand, bool]] = set()
            for src, _, _ in full[b]:
                add |= full.get(src, set())
            if not add <= full[b]:
                full[b] |= add
                changed = True
    return {b: frozenset((c, br) for _, c, br in d) for b, d in full.items()}
