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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .executor import CheckpointState, ExecutionResult
from .facts import FactDb
from .feasibility import Feasibility
from .graphs import FundTransferGraph, RecipientClass, StateDependencyGraph
from .inference import StorageRole, TransferKind
from .symexpr import SymExpr, const, contains_op, leaves, render


@dataclass(frozen=True)
class DynamicFlags:
    """Which non-constant inputs the amount expression depends on."""

    balance_self: bool
    store_init: bool
    store_written: bool
    calldata_arg: bool


@dataclass(frozen=True)
class TransferSummary:
    call_site: str
    selector: str
    kind: TransferKind
    recipient_class: RecipientClass
    amount: str
    amount_expr: SymExpr
    dynamic: DynamicFlags
    owner_gated: bool
    shares_amount_source: bool
    feasibility: Feasibility


@dataclass(frozen=True)
class FeeCandidate:
    """A fraction-shaped transfer to a preset recipient: amount = base*k/d."""

    call_site: str
    selector: str
    recipient_class: RecipientClass
    base: str
    numerator: SymExpr
    denominator: int
    amount: str
    # Set when the numerator is a storage word, so the live rate and the
    # slot's modifiability can be looked up.
    fee_slot: int | None
    # True when some statement in the program stores to fee_slot.
    fee_slot_modifiable: bool


@dataclass(frozen=True)
class SupplyStatus:
    slot: int
    selectors: tuple[str, ...]
    store_sites: tuple[str, ...]
    # A bound comparison on the slot's value gates the accumulating store.
    bound_checked: bool
    # A bound comparison exists but only after the accumulated value is
    # already stored.
    bound_checked_after_add: bool


@dataclass(frozen=True)
class PauseStatus:
    slot: int
    owner_modifiable: bool
    gates_transfer: bool
    write_sites: tuple[str, ...]
    gated_call_sites: tuple[str, ...]


@dataclass(frozen=True)
class LockStatus:
    slot: int
    publicly_settable: bool
    write_sites: tuple[str, ...]


@dataclass(frozen=True)
class ContractSemantics:
    address: str
    transfers: tuple[TransferSummary, ...]
    fee_candidates: tuple[FeeCandidate, ...]
    supplies: tuple[SupplyStatus, ...]
    pauses: tuple[PauseStatus, ...]
    locks: tuple[LockStatus, ...]
    token_uri_slot: int | None
    budget_exceeded: bool

    @property
    def is_empty(self) -> bool:
        return not (
            self.transfers
            or self.fee_candidates
            or self.supplies
            or self.pauses
            or self.locks
            or self.token_uri_slot is not None
        )


def _dynamic_flags(e: SymExpr, written_slots: frozenset[int]) -> DynamicFlags:
    balance = False
    store_init = False
    store_written = False
    calldata_arg = False
    for leaf in leaves(e):
        if leaf == "balance(self)":
            balance = True
        elif leaf.startswith("store("):
            store_init = True
            if int(leaf[6:-1]) in written_slots:
                store_written = True
        elif leaf.startswith("sload("):
            # Dynamic-slot load: the slot cannot be named, so writability
            # cannot be ruled out.
            store_init = True
            store_written = True
        elif leaf.startswith("calldata("):
            calldata_arg = True
    return DynamicFlags(balance, store_init, store_written, calldata_arg)


def _fee_shape(e: SymExpr) -> tuple[SymExpr, SymExpr, int] | None:
    """Match div(x, d) or div(mul(x, k), d); returns (base, k, d)."""
    if e.op != "div" or e.args[1].op != "const":
        return None
    d = e.args[1].value
    if d == 0:
        return None
    num = e.args[0]
    if num.op == "mul":
        a, b = num.args

        def factor(x: SymExpr) -> bool:
            return x.op in ("const", "store")

        if factor(b) and not factor(a):
            return a, b, d
        if factor(a) and not factor(b):
            return b, a, d
        if factor(a) and factor(b):
            return a, b, d
        return None
    return num, const(1), d


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
    if not cps:
        return ContractSemantics(address, (), (), (), (), (), None, budget)

    written_slots = frozenset(
        s.slot for s in db.sstores() if s.slot is not None
    )

    edge_index: dict[tuple[str, str], list] = {}
    for edge in ftg.edges:
        edge_index.setdefault((edge.call_site, edge.selector), []).append(edge)

    transfers: list[TransferSummary] = []
    seen: dict[tuple[str, str, str], int] = {}
    for cp in cps:
        if cp.opcode != "CALL":
            continue
        stmt = db.program.statement(cp.checkpoint)
        for edge in edge_index.get((cp.checkpoint, cp.selector), ()):
            try:
                idx = stmt.args.index(edge.amount)
            except ValueError:
                continue
            amount_expr = cp.args[idx]
            summary = TransferSummary(
                call_site=edge.call_site,
                selector=edge.selector,
                kind=edge.kind,
                recipient_class=ftg.recipient_class(edge.recipient)
                or RecipientClass.OTHER,
                amount=render(amount_expr),
                amount_expr=amount_expr,
                dynamic=_dynamic_flags(amount_expr, written_slots),
                owner_gated=edge.privileged_owner is not None,
                shares_amount_source=edge.shared_fee_ancestor,
                feasibility=cp.feasibility,
            )
            key = (summary.call_site, summary.selector, summary.amount)
            prior = seen.get(key)
            if prior is None:
                seen[key] = len(transfers)
                transfers.append(summary)
            elif (
                transfers[prior].feasibility is not Feasibility.FEASIBLE
                and summary.feasibility is Feasibility.FEASIBLE
            ):
                transfers[prior] = summary
    transfers.sort(key=lambda t: (t.selector, t.call_site, t.amount))

    payout_leaves: dict[str, frozenset[str]] = {}
    for t in transfers:
        if t.recipient_class is RecipientClass.CALLER:
            payout_leaves[t.selector] = payout_leaves.get(
                t.selector, frozenset()
            ) | leaves(t.amount_expr)

    fee_candidates: list[FeeCandidate] = []
    for t in transfers:
        if t.recipient_class in (RecipientClass.CALLER, RecipientClass.CONTRACT_SELF):
            continue
        shape = _fee_shape(t.amount_expr)
        if shape is None:
            continue
        base, k, d = shape
        shares_payout = bool(
            leaves(t.amount_expr) & payout_leaves.get(t.selector, frozenset())
        )
        if not (
            contains_op(base, "callvalue")
            or t.shares_amount_source
            or shares_payout
        ):
            continue
        fee_slot = k.value if k.op == "store" else None
        fee_candidates.append(
            FeeCandidate(
                call_site=t.call_site,
                selector=t.selector,
                recipient_class=t.recipient_class,
                base=render(base),
                numerator=k,
                denominator=d,
                amount=t.amount,
                fee_slot=fee_slot,
                fee_slot_modifiable=fee_slot is not None
                and fee_slot in written_slots,
            )
        )
    fee_candidates.sort(key=lambda c: (c.selector, c.call_site, c.amount))

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
                selectors=tuple(sorted({w.selector for w in writes})),
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
                gates_transfer=bool(gated),
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
        transfers=tuple(transfers),
        fee_candidates=tuple(fee_candidates),
        supplies=tuple(supplies),
        pauses=tuple(pauses),
        locks=tuple(locks),
        token_uri_slot=token_uri_slot,
        budget_exceeded=budget,
    )


def _bound_checks(db: FactDb, slot: int, writes) -> tuple[bool, bool]:
    """Does any comparison on the slot's value (or the value being stored)
    gate the store (before) or merely exist under the same selector (after)?"""
    load_vars = [
        l.value for l in db.sloads() if l.slot == slot and isinstance(l.value, str)
    ]
    before = False
    after = False
    for w in writes:
        involved = list(load_vars)
        if isinstance(w.value, str):
            involved.append(w.value)
        write_sels = db.selectors_of(w.store_site)
        for sid, _, lhs, rhs, defvar in db.comp:
            if not any(db.df(x, lhs) or db.df(x, rhs) for x in involved):
                continue
            if db.selectors_of(sid).isdisjoint(write_sels):
                continue
            if db.value_controls(defvar, w.store_site):
                before = True
            else:
                after = True
    return before, after
