"""Symbolic expressions over 256-bit words, hash-consed into a DAG.

Leaves name transaction inputs (caller, callvalue, timestamp, calldata
arguments), environment reads (the contract's own balance, initial storage
words) and unconstrained unknowns.  Interior nodes are the IR operators.
Every expression renders to a canonical prefix form, e.g.
``div(sub(store(1), calldata(0x11223344,0)), 100)``; leaf renderings double
as the binding keys for concrete evaluation.

Nodes are interned (Filliâtre & Conchon, "Type-safe modular hash-consing",
ML 2006).  Every constructor below looks its node up in one table keyed on
the operator, the identities of the already-interned arguments, the value
and the name, so equal expressions built on different paths are one object
and a value like ``add(v, v)`` shares ``v`` instead of copying it.  A node
is a plain value: its constructor sets every field, its tree size among
them (``1 + sum(child sizes)``), and nothing writes it afterwards.  The
queries keep no state on the nodes; each handles every distinct node once
per pass, without recursion:

- ``render`` first counts the uses of each operator node inside the
  expression, then writes the text into one list.  A subterm used more
  than once is rendered once and its text reused; every other node is
  written inline, so the cost is linear in the text produced;
- ``leaves`` walks the DAG with a seen-set;
- ``eval_concrete`` evaluates each distinct node once.

Interning is an optimisation, not an invariant: ``==`` and ``hash`` stay
structural, so two equal nodes built by threads racing on the same table
entry still compare equal.  The table holds its nodes weakly, so an entry
lives exactly as long as some expression still uses its node and the
table does not grow from one audit to the next.
"""
from __future__ import annotations

import weakref
from functools import partial

from .model import WORD

MASK = WORD - 1

# Each binary operator under 256-bit wrapping semantics: division and
# modulo by zero yield 0, comparisons yield 0 or 1.
_BINARY = {
    "add": lambda a, b: (a + b) % WORD,
    "sub": lambda a, b: (a - b) % WORD,
    "mul": lambda a, b: (a * b) % WORD,
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else 0,
    "lt": lambda a, b: int(a < b),
    "gt": lambda a, b: int(a > b),
    "eq": lambda a, b: int(a == b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


class UnboundLeaf(KeyError):
    """A concrete evaluation met a leaf with no binding."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class SymExpr:
    """One interned expression node; build it with the constructors below."""

    __slots__ = ("op", "args", "value", "name", "size", "_hash", "__weakref__")

    def __init__(
        self, op: str, args: tuple[SymExpr, ...], value: int | None, name: str | None
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
        if self is other:
            return True
        if not isinstance(other, SymExpr):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.value == other.value
            and self.name == other.name
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"SymExpr({render(self)})"

    def render(self) -> str:
        return render(self)

    @property
    def is_const(self) -> bool:
        return self.op == "const"


# (op, value, name, *ids of args) -> weak reference to the node.  A node
# holds its args, so their ids cannot be reused while it lives; when it
# dies, its reference's callback drops the entry.
_table: dict[tuple, weakref.ref] = {}


def _intern(
    op: str, args: tuple[SymExpr, ...] = (), value: int | None = None, name: str | None = None
) -> SymExpr:
    key = (op, value, name, *map(id, args))
    ref = _table.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = SymExpr(op, args, value, name)
        _table[key] = weakref.ref(node, partial(_forget, key))
    return node


def _forget(key: tuple, ref: weakref.ref) -> None:
    # A racing thread may have replaced the entry meanwhile; keep its node.
    if _table.get(key) is ref:
        _table.pop(key, None)


def const(value: int) -> SymExpr:
    return _intern("const", value=value % WORD)


def fresh(name: str) -> SymExpr:
    return _intern("fresh", name=name)


def caller() -> SymExpr:
    return _intern("caller")


def callvalue() -> SymExpr:
    return _intern("callvalue")


def timestamp() -> SymExpr:
    return _intern("timestamp")


def balance_self() -> SymExpr:
    return _intern("balance_self")


def store(slot: int) -> SymExpr:
    """The word sitting in storage slot `slot` when the call starts."""
    return _intern("store", value=slot)


def calldata(selector: str, index: int) -> SymExpr:
    return _intern("calldata", value=index, name=selector)


def binop(op: str, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    """Build an operator node, folding constants.  Division or modulo by a
    constant zero folds to 0 outright, so such a node is never built."""
    if op not in _BINARY:
        raise ValueError(f"unknown operator {op!r}")
    if lhs.is_const and rhs.is_const:
        return const(_BINARY[op](lhs.value, rhs.value))
    if op in ("div", "mod") and rhs.is_const and rhs.value == 0:
        return const(0)
    return _intern(op, (lhs, rhs))


def iszero(x: SymExpr) -> SymExpr:
    if x.is_const:
        return const(int(x.value == 0))
    return _intern("iszero", (x,))


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
                val = _BINARY[n.op](done[id(a)], done[id(b)])
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
