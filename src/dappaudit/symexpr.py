"""Symbolic expressions over 256-bit words, as DAGs of plain value nodes.

Leaves name transaction inputs (caller, callvalue, timestamp, calldata
arguments), environment reads (the contract's own balance, initial storage
words) and unconstrained unknowns.  Interior nodes are the IR operators.
Every expression renders to a canonical prefix form, e.g.
``div(sub(store(1), calldata(0x11223344,0)), 100)``; leaf renderings double
as the binding keys for concrete evaluation.

A node is a plain value: its constructor sets every field, its tree size
among them (``1 + sum(child sizes)``), and nothing writes it afterwards.
Subterms are shared because the executor binds each variable to one node,
so a value like ``add(v, v)`` holds ``v`` twice instead of copying it.
``==`` and ``hash`` are structural.  The queries keep no state on the
nodes; each handles every distinct node once per pass, without recursion:

- ``==`` compares each pair of distinct nodes once, from a work stack;
- ``render`` first counts the uses of each operator node inside the
  expression, then writes the text into one list.  A subterm used more
  than once is rendered once and its text reused; every other node is
  written inline, so the cost is linear in the text produced;
- ``leaves`` walks the DAG with a seen-set;
- ``eval_concrete`` evaluates each distinct node once.
"""
from __future__ import annotations

from .model import WORD, WORD_OPS

MASK = WORD - 1


class UnboundLeaf(KeyError):
    """A concrete evaluation met a leaf with no binding."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class SymExpr:
    """One expression node; build it with the constructors below."""

    __slots__ = ("op", "args", "value", "name", "size", "_hash")

    def __init__(
        self,
        op: str,
        args: tuple[SymExpr, ...] = (),
        value: int | None = None,
        name: str | None = None,
    ) -> None:
        self.op = op
        self.args = args
        self.value = value
        self.name = name
        # Nodes of the expression read as a tree, shared subterms counted
        # once per use.
        size = 1
        for a in args:
            size += a.size
        self.size = size
        self._hash = hash((op, args, value, name))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpr):
            return NotImplemented
        # Pairs of nodes still to compare; a pair of distinct nodes met
        # again through a shared subterm is compared once.
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if (
                a._hash != b._hash
                or a.op != b.op
                or a.value != b.value
                or a.name != b.name
                or len(a.args) != len(b.args)
            ):
                return False
            seen.add((id(a), id(b)))
            stack += zip(a.args, b.args)
        return True

    def __repr__(self) -> str:
        return f"SymExpr({render(self)})"

    @property
    def is_const(self) -> bool:
        return self.op == "const"


def const(value: int) -> SymExpr:
    return SymExpr("const", value=value % WORD)


def fresh(name: str) -> SymExpr:
    return SymExpr("fresh", name=name)


def caller() -> SymExpr:
    return SymExpr("caller")


def callvalue() -> SymExpr:
    return SymExpr("callvalue")


def timestamp() -> SymExpr:
    return SymExpr("timestamp")


def balance_self() -> SymExpr:
    return SymExpr("balance_self")


def store(slot: int) -> SymExpr:
    """The word sitting in storage slot `slot` when the call starts."""
    return SymExpr("store", value=slot)


def calldata(selector: str, index: int) -> SymExpr:
    return SymExpr("calldata", value=index, name=selector)


def binop(op: str, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    """Build an operator node, folding constants.  Division or modulo by a
    constant zero folds to 0 outright, so such a node is never built."""
    if op not in WORD_OPS:
        raise ValueError(f"unknown operator {op!r}")
    if lhs.is_const and rhs.is_const:
        return const(WORD_OPS[op](lhs.value, rhs.value))
    if op in ("div", "mod") and rhs.is_const and rhs.value == 0:
        return const(0)
    return SymExpr(op, (lhs, rhs))


def iszero(x: SymExpr) -> SymExpr:
    if x.is_const:
        return const(int(x.value == 0))
    return SymExpr("iszero", (x,))


def _text_of(n: SymExpr) -> str:
    """The text of a leaf."""
    op = n.op
    if op == "const":
        return str(n.value)
    if op == "fresh":
        return n.name
    if op == "balance_self":
        return "balance(self)"
    if op == "store":
        return f"store({n.value})"
    if op == "calldata":
        return f"calldata({n.name},{n.value})"
    return op


def render(e: SymExpr) -> str:
    """The canonical prefix form of e, written in one pass into one list.
    An operator node used more than once inside e is rendered once and its
    text reused; every other node is written inline where it stands."""
    if not e.args:
        return _text_of(e)
    # id(operator node below e) -> its number of parents inside e.
    uses: dict[int, int] = {}
    stack = [e]
    while stack:
        for a in stack.pop().args:
            if a.args:
                uses[id(a)] = k = uses.get(id(a), 0) + 1
                if k == 1:
                    stack.append(a)
    # The work stack holds nodes to write, literal text, and (node, start)
    # marks that close a shared node: its pieces from `start` on are joined,
    # kept in `shared` and left in `out` as one string.
    shared: dict[int, str] = {}
    out: list[str] = []
    work: list = [e]
    while work:
        n = work.pop()
        if type(n) is str:
            out.append(n)
        elif type(n) is tuple:
            n, start = n
            shared[id(n)] = text = "".join(out[start:])
            out[start:] = (text,)
        elif not n.args:
            out.append(_text_of(n))
        elif id(n) in shared:
            out.append(shared[id(n)])
        else:
            if uses.get(id(n), 1) > 1:
                work.append((n, len(out)))
            out.append(n.op + "(")
            if len(n.args) == 1:
                work += (")", n.args[0])
            else:
                work += (")", n.args[1], ", ", n.args[0])
    return "".join(out)


def leaves(e: SymExpr) -> frozenset[str]:
    """Rendered names of all non-constant leaves."""
    found: set[str] = set()
    seen = {id(e)}
    stack = [e]
    while stack:
        n = stack.pop()
        if n.args:
            for a in n.args:
                if id(a) not in seen:
                    seen.add(id(a))
                    stack.append(a)
        elif n.op != "const":
            found.add(_text_of(n))
    return frozenset(found)


def eval_concrete(e: SymExpr, bindings: dict[str, int]) -> int:
    """Evaluate under 256-bit wrapping semantics; division and modulo by
    zero yield 0; comparisons yield 0/1.  Non-constant leaves are looked up
    by their rendered name, and the first unbound one met left to right
    raises UnboundLeaf.  Each distinct node is evaluated once, children
    before parents and without recursion."""
    # id(node) -> value; every node stays alive through `e`.  The stack is
    # a path from `e`: its top is evaluated once its children are, left
    # child first, so a node is never on it twice.
    done: dict[int, int] = {}
    stack = [e]
    while stack:
        n = stack[-1]
        args = n.args
        if args:
            a = args[0]
            if id(a) not in done:
                stack.append(a)
                continue
            if len(args) == 1:
                val = int(done[id(a)] == 0)
            else:
                b = args[1]
                if id(b) not in done:
                    stack.append(b)
                    continue
                val = WORD_OPS[n.op](done[id(a)], done[id(b)])
        elif n.op == "const":
            val = n.value
        else:
            key = _text_of(n)
            if key not in bindings:
                raise UnboundLeaf(key)
            val = bindings[key] % WORD
        done[id(n)] = val
        stack.pop()
    return done[id(e)]
