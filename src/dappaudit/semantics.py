"""Distill execution checkpoints, facts, and graphs into one record of
what the contract actually does with funds and state.

Transfers pair each feasible transfer checkpoint with its graph edge and
classify the amount's dynamic dependencies. Fee candidates are transfers
to non-caller recipients whose amount has the fraction shape div(x, d) or
div(mul(x, k), d) with k and d constant or storage-valued, provided the
base shares an origin with user money (CallValue in the expression, a
data-flow ancestor shared with a sibling transfer, or leaves shared with
a caller payout under the same selector). Supply, pause, and lock status
come from the storage-role graph.

Amount texts (`amount`, `base`) are rendered on each read, which only a
finding's evidence does.  Records are listed by selector, call site and
amount text, rendered only to order two or more amounts at one site.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .executor import CheckpointState, ExecutionResult
from .facts import FactDb
from .graphs import FtgEdge, FundTransferGraph, RecipientClass, StateDependencyGraph
from .inference import StorageRole
from .symexpr import SymExpr, const, leaves, render


class DynamicFlags(NamedTuple):
    """Which non-constant inputs the amount expression depends on."""

    balance_self: bool
    store_written: bool


class TransferSummary(NamedTuple):
    call_site: str
    selector: str
    recipient_class: RecipientClass
    amount_expr: SymExpr
    dynamic: DynamicFlags
    owner_gated: bool
    shares_amount_source: bool

    # The amount's text, rendered on each read.
    amount = property(lambda self: render(self.amount_expr))


class FeeCandidate(NamedTuple):
    """A fraction-shaped transfer to a preset recipient: amount = base*k/d."""

    call_site: str
    selector: str
    base_expr: SymExpr
    numerator: SymExpr
    denominator: int
    amount_expr: SymExpr
    # Set when the numerator is a storage word, so the live rate and the
    # slot's modifiability can be looked up.
    fee_slot: int | None
    # True when some statement in the program stores to fee_slot.
    fee_slot_modifiable: bool

    # The texts of base_expr and amount_expr, rendered on each read.
    base = property(lambda self: render(self.base_expr))
    amount = property(lambda self: render(self.amount_expr))


class SupplyStatus(NamedTuple):
    slot: int
    store_sites: tuple[str, ...]
    # A bound comparison on the slot's value gates the accumulating store.
    bound_checked: bool
    # A bound comparison exists but only after the accumulated value is
    # already stored.
    bound_checked_after_add: bool


class PauseStatus(NamedTuple):
    slot: int
    owner_modifiable: bool
    write_sites: tuple[str, ...]
    gated_call_sites: tuple[str, ...]


class LockStatus(NamedTuple):
    slot: int
    publicly_settable: bool
    write_sites: tuple[str, ...]


class ContractSemantics(NamedTuple):
    address: str
    transfers: tuple[TransferSummary, ...]
    fee_candidates: tuple[FeeCandidate, ...]
    supplies: tuple[SupplyStatus, ...]
    pauses: tuple[PauseStatus, ...]
    locks: tuple[LockStatus, ...]
    token_uri_slot: int | None
    budget_exceeded: bool


def _dynamic_flags(found: frozenset[str], written_slots: frozenset[int]) -> DynamicFlags:
    """Flags from the rendered leaves `found` of an amount."""
    balance = False
    store_written = False
    for leaf in found:
        if leaf == "balance(self)":
            balance = True
        elif leaf.startswith("store("):
            if int(leaf[6:-1]) in written_slots:
                store_written = True
        elif leaf.startswith("sload("):
            # Dynamic-slot load: the slot cannot be named, so writability
            # cannot be ruled out.
            store_written = True
    return DynamicFlags(balance, store_written)


def _fee_shape(e: SymExpr) -> tuple[SymExpr, SymExpr, int] | None:
    """Match div(x, d) or div(mul(x, k), d); returns (base, k, d)."""
    if e.op != "div" or e.args[1].op != "const":
        return None
    d = e.args[1].value
    num = e.args[0]
    if num.op != "mul":
        return num, const(1), d
    # The factor is the constant or storage side, the right one if both are.
    a, b = num.args
    if b.op in ("const", "store"):
        return a, b, d
    if a.op in ("const", "store"):
        return b, a, d
    return None


def summarize_semantics(
    executions: Sequence[ExecutionResult],
    db: FactDb,
    ftg: FundTransferGraph,
    sdg: StateDependencyGraph,
) -> ContractSemantics:
    address = db.program.address
    budget = any(res.budget_exceeded for res in executions)
    cps: list[CheckpointState] = [
        cp for res in executions for cp in res.feasible_checkpoints()
    ]

    written_slots = frozenset(s.slot for s in db.sstores)

    # (call site, selector) -> each edge there with its amount's argument
    # position; inference takes the amount from the CALL's own arguments.
    edge_index: dict[tuple[str, str], list[tuple[FtgEdge, int]]] = {}
    for edge in ftg.edges:
        idx = db.program.statement(edge.call_site).args.index(edge.amount)
        edge_index.setdefault((edge.call_site, edge.selector), []).append((edge, idx))

    # Each kept transfer with the leaves of its amount.
    kept: list[tuple[TransferSummary, frozenset[str]]] = []
    seen: set[tuple[str, str, SymExpr]] = set()
    for cp in cps:
        for edge, idx in edge_index.get((cp.checkpoint, cp.selector), ()):
            amount_expr = cp.args[idx]
            key = (edge.call_site, edge.selector, amount_expr)
            if key in seen:
                continue
            seen.add(key)
            amount_leaves = leaves(amount_expr)
            kept.append((
                TransferSummary(
                    call_site=edge.call_site,
                    selector=edge.selector,
                    recipient_class=edge.recipient_class,
                    amount_expr=amount_expr,
                    dynamic=_dynamic_flags(amount_leaves, written_slots),
                    owner_gated=edge.privileged_owner is not None,
                    shares_amount_source=edge.shared_fee_ancestor,
                ),
                amount_leaves,
            ))
    per_site = Counter((t.selector, t.call_site) for t, _ in kept)
    kept.sort(key=lambda k: (
        k[0].selector,
        k[0].call_site,
        k[0].amount if per_site[k[0].selector, k[0].call_site] > 1 else "",
    ))

    payout_leaves: dict[str, frozenset[str]] = {}
    for t, amount_leaves in kept:
        if t.recipient_class is RecipientClass.CALLER:
            payout_leaves[t.selector] = payout_leaves.get(
                t.selector, frozenset()
            ) | amount_leaves

    # Taken from `kept` in its order, which is already the report order.
    fee_candidates: list[FeeCandidate] = []
    for t, amount_leaves in kept:
        if t.recipient_class is RecipientClass.CALLER:
            continue
        shape = _fee_shape(t.amount_expr)
        if shape is None:
            continue
        base, k, d = shape
        shares_payout = bool(
            amount_leaves & payout_leaves.get(t.selector, frozenset())
        )
        if not (
            "callvalue" in leaves(base)
            or t.shares_amount_source
            or shares_payout
        ):
            continue
        fee_slot = k.value if k.op == "store" else None
        fee_candidates.append(
            FeeCandidate(
                call_site=t.call_site,
                selector=t.selector,
                base_expr=base,
                numerator=k,
                denominator=d,
                amount_expr=t.amount_expr,
                fee_slot=fee_slot,
                fee_slot_modifiable=fee_slot is not None
                and fee_slot in written_slots,
            )
        )

    role_slots: dict[str, list[int]] = {}
    for slot, role in sdg.nodes:
        role_slots.setdefault(role, []).append(slot)

    supplies = []
    for slot in sorted(set(role_slots.get(StorageRole.SUPPLY.value, ()))):
        writes = sdg.writes_to(slot)
        before, after = _bound_checks(db, slot, writes)
        supplies.append(
            SupplyStatus(
                slot=slot,
                store_sites=tuple(sorted({w.store_site for w in writes})),
                bound_checked=before,
                bound_checked_after_add=after,
            )
        )

    pauses = []
    for slot in sorted(set(role_slots.get(StorageRole.PAUSE.value, ()))):
        writes = sdg.writes_to(slot)
        gated = tuple(
            sorted({e.call_site for e in sdg.pause_edges if e.slot == slot})
        )
        pauses.append(
            PauseStatus(
                slot=slot,
                owner_modifiable=any(w.guarded for w in writes),
                write_sites=tuple(sorted({w.store_site for w in writes})),
                gated_call_sites=gated,
            )
        )

    locks = []
    for slot in sorted(set(role_slots.get(StorageRole.LOCK_TIME.value, ()))):
        writes = sdg.writes_to(slot)
        locks.append(
            LockStatus(
                slot=slot,
                publicly_settable=any(not w.guarded for w in writes),
                write_sites=tuple(sorted({w.store_site for w in writes})),
            )
        )

    uri_slots = role_slots.get(StorageRole.TOKEN_URI.value, ())
    token_uri_slot = min(uri_slots) if uri_slots else None

    return ContractSemantics(
        address=address,
        transfers=tuple(t for t, _ in kept),
        fee_candidates=tuple(fee_candidates),
        supplies=tuple(supplies),
        pauses=tuple(pauses),
        locks=tuple(locks),
        token_uri_slot=token_uri_slot,
        budget_exceeded=budget,
    )


def _bound_checks(db: FactDb, slot: int, writes) -> tuple[bool, bool]:
    """Does any comparison on the slot's value (or the value being stored)
    gate the store (before) or merely exist under the same selector (after)?
    The comparisons are indexed once, by selector and then by the variable
    each defines, and each store is handled once, however many selectors
    (writes) reach it.  A row that gates the store (defines one of its
    deciders) can set only `before`, any other row only `after`, so a row
    is tested only while its flag is unset, and the search ends once both
    are set.  The slot's loads are walked from once; a store's value only
    when some open row reads neither side from the loads."""
    comps: dict[str, dict[str, tuple]] = {}  # selector -> comparison def -> its sides
    for cmp_site, _, lhs, rhs, defvar in db.comp:
        for sel in db.selectors_of(cmp_site):
            comps.setdefault(sel, {})[defvar] = (lhs, rhs)
    loaded = None
    found = {True: False, False: False}  # gates the store? -> before, after
    for site, value in {w.store_site: w.value for w in writes}.items():
        rows: dict[str, tuple] = {}
        for sel in db.selectors_of(site):
            rows.update(comps.get(sel, {}))
        if not rows:
            continue
        if loaded is None:
            loaded = db.reached_from(db.slot_loads.get(slot, ()))
        gating = db.deciders(site).intersection(rows)
        todo = [] if found[True] else [(True, rows[d]) for d in gating]
        if not found[False]:
            todo += [(False, rows[d]) for d in rows.keys() - gating]
        for reached in (loaded, None):
            todo = [(gate, sides) for gate, sides in todo if not found[gate]]
            if not todo:
                break
            if reached is None:
                reached = db.reached_from((value,))
            for gate, sides in todo:
                if not reached.isdisjoint(sides):
                    found[gate] = True
        if found[True] and found[False]:
            break
    return found[True], found[False]
