"""Per-function control dependence.

Immediate post-dominators come from the iterative algorithm of Cooper,
Harvey & Kennedy ("A Simple, Fast Dominance Algorithm", 2001) run on the
reversed control-flow graph from a synthetic exit node: one depth-first
walk over predecessor edges ranks the blocks that can reach the exit in
postorder, and a block's immediate post-dominator is the nearest common
post-dominator of its successors, found by climbing both by rank. Passes
over the blocks in reverse postorder repeat until none changes, except that
a first pass which meets no back edge (a successor that can reach the exit
but is not yet set) is final. They are built only for a function with a
reachable branch, found in one stack walk from the entry: most functions
have none, and without one no statement has a controlling branch. A
block's successors are a plain list of block ids; a branch's two outcomes
come from its JUMPI targets, the then-target first.

Control dependence takes the region form of Ferrante, Ottenstein &
Warren (1987): a branch at block A with immediate post-dominator P
controls, under an outcome, every block that the successor for that
outcome reaches before P. The relation is transitive by construction: a
statement depends on every branch whose outcome can change whether the
statement executes, including statements in a region that never reaches
the exit.

A branch from which no path reaches the exit has no immediate
post-dominator in that graph. Its post-dominators are taken instead over
the graph augmented with a virtual exit edge from each sink region (a
strongly connected set of blocks that cannot reach the exit and has no
edge out), so it controls the blocks each outcome leads to before the two
paths meet or settle in their sink regions. The sink regions are the
strongly connected components with no edge out among the blocks that
cannot reach the exit, found in one iterative pass of Tarjan's algorithm;
the first block of each, in function order, takes the virtual edge. The regions are still walked
on the unaugmented graph: no walk enters the exit, so the virtual edges
add no block to one. Branches that can reach the exit keep the
post-dominators of the unaugmented graph, in which a path into a dead end
never passes a post-dominator.

The same walk over each branch's arms measures how many blocks the
shortest path from each successor crosses before the immediate
post-dominator P. The successor with the fewer (the then-successor on a
tie) is the branch's short arm when P is a real block of the unaugmented
graph, the blocks the short arm reaches before P form no cycle, and no
path through the short arm crosses more blocks before P than the shortest
path through the other arm. A path that takes the short arm then enters
each of those blocks once and reaches P with no more blocks behind it than
any path through the other arm. Any other branch has no short arm.
"""
from __future__ import annotations

from typing import Iterator

from .model import IrFunction, Operand, TermKind

EXIT = "__exit__"


def _successors(fn: IrFunction) -> dict[str, list[str]]:
    """Block id -> successor block ids; every terminator but a jump leaves
    the function, an edge to the synthetic exit."""
    return {b.bid: list(b.terminator.targets) or [EXIT] for b in fn.blocks}


def branch_structure(
    fn: IrFunction,
) -> tuple[
    dict[str, frozenset[tuple[Operand, bool]]],
    dict[str, tuple[str, frozenset[str]] | None],
]:
    """Statement id -> every (condition, outcome) that controls it, and
    block id -> (short arm, blocks either arm reaches before the immediate
    post-dominator) for every reachable branch on a variable, None for one
    without a short arm."""
    order = [b.bid for b in fn.blocks]
    succ = _successors(fn)
    # The blocks the entry reaches, in one stack walk that never enters the exit.
    reachable, work = {order[0], EXIT}, [order[0]]
    while work:
        for d in succ[work.pop()]:
            if d not in reachable:
                reachable.add(d)
                work.append(d)

    # Built on the first reachable branch, and on the first that cannot
    # reach the exit: most functions have neither.
    ipdom: dict[str, str] | None = None
    sink_ipdom: dict[str, str] | None = None

    JUMPI = TermKind.JUMPI
    deps: dict[str, set[tuple[Operand, bool]]] = {}
    arms: dict[str, tuple[str, frozenset[str]] | None] = {}
    for b in fn.blocks:
        t = b.terminator
        # A branch that never executes controls nothing.
        if t.kind is not JUMPI or b.bid not in reachable:
            continue
        if ipdom is None:
            ipdom = _post_dominators(order, succ)
        post = ipdom
        if b.bid not in ipdom:
            if sink_ipdom is None:
                aug = _with_sink_exits(order, succ, ipdom)
                sink_ipdom = _post_dominators(order, aug)
            post = sink_ipdom
        regions: list[set[str]] = []
        dist: list[float] = []
        for dst, branch in zip(t.targets, (True, False)):
            region, steps = _reach(dst, succ, post[b.bid])
            for n in region:
                deps.setdefault(n, set()).add((t.cond, branch))
            regions.append(region)
            dist.append(float("inf") if steps is None else steps)
        if isinstance(t.cond, str):
            arms[b.bid] = None
            if post is ipdom and post[b.bid] != EXIT:
                arm = _short_arm(t.targets, regions, dist, post[b.bid], succ)
                if arm is not None:
                    arms[b.bid] = arm, frozenset(regions[0] | regions[1])

    # One frozen set per block of a region, shared by its statements; one
    # empty set for the statements of every other block.
    frozen = {bid: frozenset(d) for bid, d in deps.items()}
    none: frozenset[tuple[Operand, bool]] = frozenset()
    deps_of = {s.sid: frozen.get(b.bid, none) for b in fn.blocks for s in b.statements}
    return deps_of, arms


def _short_arm(
    targets: tuple[str, ...],
    regions: list[set[str]],
    dist: list[float],
    stop: str,
    succ: dict[str, list[str]],
) -> str | None:
    """The arm with the fewest blocks before `stop`, or None when it breaks
    a condition of the module docstring."""
    i = 1 if dist[1] < dist[0] else 0
    longest = _longest_path(targets[i], regions[i], stop, succ)
    if longest is None or longest > dist[1 - i]:
        return None
    return targets[i]


def _longest_path(
    start: str,
    region: set[str],
    stop: str,
    succ: dict[str, list[str]],
) -> int | None:
    """Most blocks of `region` a path from `start` crosses before `stop`;
    None when the region holds a cycle."""
    if start == stop:
        return 0
    if len(region) == 1:
        # The region is `start` alone: a cycle only through a self-loop.
        return None if start in succ[start] else 1
    longest: dict[str, int] = {}
    on_path: set[str] = set()
    work = [(start, False)]
    while work:
        n, done = work.pop()
        inner = [d for d in succ[n] if d in region]
        if done:
            on_path.discard(n)
            longest[n] = 1 + max((longest[d] for d in inner), default=0)
        elif n in on_path:
            return None
        elif n not in longest:
            on_path.add(n)
            work.append((n, True))
            work.extend((d, False) for d in inner)
    return longest[start]


def _with_sink_exits(
    order: list[str],
    succ: dict[str, list[str]],
    live: dict[str, str],
) -> dict[str, list[str]]:
    """succ plus a virtual exit edge from the first block of each sink
    region; `live` holds the blocks that can reach the exit."""
    # One iterative pass of Tarjan's algorithm over the blocks that cannot
    # reach the exit (their successors cannot either).
    rank = {n: i for i, n in enumerate(order)}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    walk: list[tuple[str, Iterator[str]]] = []
    aug = dict(succ)

    def visit(n: str) -> None:
        index[n] = low[n] = len(index)
        stack.append(n)
        on_stack.add(n)
        walk.append((n, iter(succ[n])))

    for root in order:
        if root in live or root in index:
            continue
        visit(root)
        while walk:
            n, rest = walk[-1]
            for d in rest:
                if d not in index:
                    visit(d)
                    break
                if d in on_stack:
                    low[n] = min(low[n], index[d])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[n])
                if low[n] != index[n]:
                    continue
                # n roots a component; it is a sink region when no edge
                # leaves it.
                component: set[str] = set()
                while n not in component:
                    component.add(stack.pop())
                on_stack -= component
                if all(d in component for m in component for d in succ[m]):
                    first = min(component, key=rank.__getitem__)
                    aug[first] = succ[first] + [EXIT]
    return aug


def _reach(
    start: str, succ: dict[str, list[str]], stop: str
) -> tuple[set[str], int | None]:
    """Blocks reachable from `start` without entering `stop` or the exit,
    and how many of them the shortest path to `stop` crosses (None when no
    path gets there); a breadth-first walk, one level at a time."""
    if start == stop:
        return set(), 0
    seen = {start}
    steps = None
    level = [start]
    depth = 1
    while level:
        nxt = []
        for n in level:
            for d in succ[n]:
                if d == stop:
                    if steps is None:
                        steps = depth
                elif d != EXIT and d not in seen:
                    seen.add(d)
                    nxt.append(d)
        level = nxt
        depth += 1
    return seen, steps


def _post_dominators(order: list[str], succ: dict[str, list[str]]) -> dict[str, str]:
    """Immediate post-dominator of each block that can reach the exit."""
    preds: dict[str, list[str]] = {n: [] for n in order}
    preds[EXIT] = []
    for n in order:
        for d in succ[n]:
            preds[d].append(n)

    # Postorder of a depth-first walk from the exit over predecessor edges;
    # it holds exactly the blocks that can reach the exit, the exit last.
    post: list[str] = []
    seen = {EXIT}
    walk = [(EXIT, iter(preds[EXIT]))]
    while walk:
        n, rest = walk[-1]
        for p in rest:
            if p not in seen:
                seen.add(p)
                walk.append((p, iter(preds[p])))
                break
        else:
            walk.pop()
            post.append(n)
    rank = {n: i for i, n in enumerate(post)}
    rpo = post[-2::-1]  # reverse postorder, the exit left out

    # A block's walk parent comes before it in reverse postorder, so every
    # block meets at least one successor with a post-dominator already set.
    ipdom = {EXIT: EXIT}
    changed = True
    while changed:
        changed = False
        for n in rpo:
            new = None
            for d in succ[n]:
                if d not in ipdom:
                    if d in rank:
                        changed = True
                    continue
                if new is None:
                    new = d
                    continue
                # Climb both chains to their nearest common post-dominator.
                a = d
                while a != new:
                    while rank[a] < rank[new]:
                        a = ipdom[a]
                    while rank[new] < rank[a]:
                        new = ipdom[new]
            old = ipdom.get(n)
            if old != new:
                ipdom[n] = new
                changed = changed or old is not None
    del ipdom[EXIT]
    return ipdom
