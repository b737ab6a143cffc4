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

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Sequence

from .symexpr import MASK, SymExpr, eval_concrete, leaves

_LEAF_OPS = ("fresh", "caller", "callvalue", "timestamp", "balance_self", "store", "calldata")


@unique
class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass
class _Interval:
    lo: int = 0
    hi: int = MASK
    holes: set[int] = field(default_factory=set)

    def pick(self) -> int | None:
        v = self.lo
        while v in self.holes:
            v += 1
        return v if v <= self.hi else None


class _Contradiction(Exception):
    pass


def _is_leaf(e: SymExpr) -> bool:
    return e.op in _LEAF_OPS


def _assert_nonzero(e: SymExpr, neg: bool, ivs: dict[str, _Interval]) -> bool:
    """Fold `e != 0` (or `e == 0` when neg) into the interval system.
    Returns False when some part of the constraint was not representable."""
    if e.op == "const":
        truthy = e.value != 0
        if truthy == neg:
            raise _Contradiction
        return True
    if e.op == "iszero":
        return _assert_nonzero(e.args[0], not neg, ivs)
    if e.op == "and" and not neg:
        # A bitwise conjunction is nonzero only if both sides are.
        a = _assert_nonzero(e.args[0], False, ivs)
        b = _assert_nonzero(e.args[1], False, ivs)
        return a and b
    if e.op == "or" and neg:
        # A bitwise disjunction is zero only if both sides are.
        a = _assert_nonzero(e.args[0], True, ivs)
        b = _assert_nonzero(e.args[1], True, ivs)
        return a and b
    if e.op in ("lt", "gt", "eq"):
        lhs, rhs = e.args
        if _is_leaf(lhs) and rhs.is_const:
            _apply_atom(ivs, lhs.render(), e.op, rhs.value, neg)
            return True
        if _is_leaf(rhs) and lhs.is_const:
            flip = {"lt": "gt", "gt": "lt", "eq": "eq"}[e.op]
            _apply_atom(ivs, rhs.render(), flip, lhs.value, neg)
            return True
        return False
    if _is_leaf(e):
        _apply_atom(ivs, e.render(), "eq", 0, not neg)
        return True
    return False


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
            _assert_nonzero(c, False, ivs)
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
