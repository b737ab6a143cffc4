"""Per-function control dependence.

Post-dominators are computed by an iterative set fixpoint over the
control-flow graph augmented with a synthetic exit node. Control
dependence takes the region form of Ferrante, Ottenstein & Warren (1987):
a branch at block A with immediate post-dominator P controls, under an
outcome, every block that the successor for that outcome reaches before
P. The relation is transitive by construction: a statement depends on
every branch whose outcome can change whether the statement executes,
including statements in a region that never reaches the exit.

A branch from which no path reaches the exit has no immediate
post-dominator in that graph. Its post-dominators are taken instead over
the graph augmented with a virtual exit edge from each sink region (a
strongly connected set of blocks that cannot reach the exit and has no
edge out), so it controls the blocks each outcome leads to before the two
paths meet or settle in their sink regions. Branches that can reach the
exit keep the post-dominators of the unaugmented graph, in which a path
into a dead end never passes a post-dominator.
"""
from __future__ import annotations

from .model import IrFunction, Operand, TermKind

EXIT = "__exit__"

# Terminators that leave the function (edges to the synthetic exit).
_EXITING = {TermKind.RETURN, TermKind.RETURNPRIVATE, TermKind.REVERT, TermKind.STOP}


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


def control_dependence(fn: IrFunction) -> dict[str, frozenset[tuple[Operand, bool]]]:
    """Statement id -> every (condition, outcome) that controls it."""
    order = [b.bid for b in fn.blocks]
    succ = _successors(fn)
    ipdom = _post_dominators(order, succ)
    reachable = _reach(order[0], succ)

    # Built on the first branch that cannot reach the exit.
    sink_exits: tuple[dict, dict[str, str]] | None = None

    deps: dict[str, set[tuple[Operand, bool]]] = {n: set() for n in order}
    for b in fn.blocks:
        # A branch that never executes controls nothing.
        if b.terminator.kind is not TermKind.JUMPI or b.bid not in reachable:
            continue
        graph, post = succ, ipdom
        if b.bid not in ipdom:
            if sink_exits is None:
                aug = _with_sink_exits(order, succ, ipdom)
                sink_exits = aug, _post_dominators(order, aug)
            graph, post = sink_exits
        for dst, branch in graph[b.bid]:
            for n in _reach(dst, graph, stop=post[b.bid]):
                deps[n].add((b.terminator.cond, branch))

    return {
        s.sid: frozenset(deps[b.bid]) for b in fn.blocks for s in b.statements
    }


def _with_sink_exits(
    order: list[str],
    succ: dict[str, list[tuple[str, bool | None]]],
    live: dict[str, str],
) -> dict[str, list[tuple[str, bool | None]]]:
    """succ plus a virtual exit edge from the first block of each sink
    region; `live` holds the blocks that can reach the exit."""
    reach = {n: _reach(n, succ) for n in order if n not in live}
    aug = dict(succ)
    covered: set[str] = set()
    for n in order:
        if n in reach and n not in covered and all(n in reach[m] for m in reach[n]):
            covered |= reach[n]
            aug[n] = succ[n] + [(EXIT, None)]
    return aug


def _reach(
    start: str, succ: dict[str, list[tuple[str, bool | None]]], stop: str = EXIT
) -> set[str]:
    """Blocks reachable from `start` without entering `stop` or the exit."""
    seen: set[str] = set()
    work = [start]
    while work:
        n = work.pop()
        if n in seen or n == stop or n == EXIT:
            continue
        seen.add(n)
        work.extend(d for d, _ in succ[n])
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

    # A block that cannot reach the exit has no defined ipdom.
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
