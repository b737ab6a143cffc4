"""Bounded feasibility checking for path constraints.

Each path constraint is a symbolic expression asserted nonzero.  The
decision procedure extracts single-leaf comparison atoms (leaf vs
constant), which are implication-sound consequences of the constraints,
and solves them as intervals with holes.  A contradiction there proves the
path infeasible.  Otherwise a small deterministic set of candidate
assignments is evaluated concretely against the full constraint list; a
passing witness proves feasibility.  Paths that are neither proved
infeasible nor witnessed stay unknown, and callers treat unknown as
feasible to preserve recall.
"""
from __future__ import annotations

from enum import Enum, unique
from typing import Sequence

from .symexpr import MASK, SymExpr, eval_concrete, leaves, render

@unique
class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


class _Interval:
    __slots__ = ("lo", "hi", "holes")

    def __init__(self) -> None:
        self.lo = 0
        self.hi = MASK
        self.holes: set[int] = set()

    def pick(self) -> int | None:
        v = self.lo
        while v in self.holes:
            v += 1
        return v if v <= self.hi else None


class _Contradiction(Exception):
    pass


def _is_leaf(e: SymExpr) -> bool:
    return not e.args and not e.is_const


def _assert_nonzero(e: SymExpr, ivs: dict[str, _Interval]) -> None:
    """Fold `e != 0` into the interval system, keeping only the parts that
    are representable.  A worklist of (expression, negated) pairs, so a
    long chain of iszero, and or or nodes needs no recursion."""
    work = [(e, False)]
    while work:
        e, neg = work.pop()
        op = e.op
        if op == "const":
            if (e.value != 0) == neg:
                raise _Contradiction
        elif op == "iszero":
            work.append((e.args[0], not neg))
        elif (op == "and" and not neg) or (op == "or" and neg):
            # A bitwise conjunction is nonzero only if both sides are; a
            # bitwise disjunction is zero only if both sides are.
            work += ((e.args[1], neg), (e.args[0], neg))
        elif op in ("lt", "gt", "eq"):
            lhs, rhs = e.args
            if _is_leaf(lhs) and rhs.is_const:
                _apply_atom(ivs, render(lhs), op, rhs.value, neg)
            elif _is_leaf(rhs) and lhs.is_const:
                flip = {"lt": "gt", "gt": "lt", "eq": "eq"}[op]
                _apply_atom(ivs, render(rhs), flip, lhs.value, neg)
        elif _is_leaf(e):
            _apply_atom(ivs, render(e), "eq", 0, not neg)


def _apply_atom(ivs: dict[str, _Interval], key: str, op: str, c: int, neg: bool) -> None:
    iv = ivs.setdefault(key, _Interval())
    if op == "eq":
        if neg:
            iv.holes.add(c)
        else:
            iv.lo = max(iv.lo, c)
            iv.hi = min(iv.hi, c)
    elif op == "lt":
        if neg:
            iv.lo = max(iv.lo, c)
        else:
            if c == 0:
                raise _Contradiction
            iv.hi = min(iv.hi, c - 1)
    elif op == "gt":
        if neg:
            iv.hi = min(iv.hi, c)
        else:
            if c == MASK:
                raise _Contradiction
            iv.lo = max(iv.lo, c + 1)
    if iv.lo > iv.hi:
        raise _Contradiction


def check_feasible(path: Sequence[SymExpr]) -> Feasibility:
    if not path:
        return Feasibility.FEASIBLE

    ivs: dict[str, _Interval] = {}
    try:
        for c in path:
            _assert_nonzero(c, ivs)
    except _Contradiction:
        return Feasibility.INFEASIBLE

    picks: dict[str, int] = {}
    for key, iv in ivs.items():
        v = iv.pick()
        if v is None:
            return Feasibility.INFEASIBLE
        picks[key] = v

    all_leaves: set[str] = set()
    for c in path:
        all_leaves |= leaves(c)
    for default in (0, 1, 2, MASK):
        witness = {k: picks.get(k, default) for k in all_leaves | set(picks)}
        if all(eval_concrete(c, witness) != 0 for c in path):
            return Feasibility.FEASIBLE
    return Feasibility.UNKNOWN
