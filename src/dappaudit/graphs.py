"""Fund-transfer and state-dependency graphs, and the plan they induce.

The fund-transfer graph (FTG) records every inferred transfer as an edge
from the contract-self node to a classified recipient.  The state
dependency graph (SDG) records role-slot writes, which of them sit behind
a sender check, and pause flags that gate transfers.  The analysis plan
lists, per public selector, the statements worth checkpointing during
symbolic execution; selectors with no graph content are excluded.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum, unique

from .facts import FactDb
from .inference import (
    SenderGuardFact,
    StorageRole,
    StorageRoleFact,
    TransferFact,
    TransferKind,
    infer_sender_guards,
    infer_storage_roles,
    infer_transfers,
)
from .model import Opcode, Operand

# Distinguished node for the contract itself.  Variables are v-prefixed,
# so the name cannot collide with a recipient operand.
SELF_NODE = "self"


@unique
class RecipientClass(Enum):
    CALLER = "caller"
    CONSTANT_ADDRESS = "constant_address"
    STORAGE_LOADED = "storage_loaded"
    OTHER = "other"
    CONTRACT_SELF = "self"


@dataclass(frozen=True)
class FtgNode:
    recipient: Operand
    kind: RecipientClass


@dataclass(frozen=True)
class FtgEdge:
    """One transfer out of the contract, under one reaching selector."""

    call_site: str
    recipient: Operand
    amount: Operand
    selector: str
    kind: TransferKind
    # Slot guarding this selector, when that slot also carries the owner role.
    privileged_owner: int | None
    # Amount derives from the contract's own balance (withdraw-all shape).
    amount_from_self_balance: bool
    # Another transfer under the same selector splits a common source value.
    shared_fee_ancestor: bool


@dataclass(frozen=True)
class FundTransferGraph:
    nodes: tuple[FtgNode, ...]
    edges: tuple[FtgEdge, ...]

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def recipient_class(self, recipient: Operand) -> RecipientClass | None:
        for n in self.nodes:
            if n.recipient == recipient:
                return n.kind
        return None


@dataclass(frozen=True)
class GuardEdge:
    """Writes to `slot` under `selector` run only after a sender check
    against `guard_slot`."""

    guard_slot: int
    slot: int
    selector: str
    store_site: str


@dataclass(frozen=True)
class SlotWrite:
    slot: int
    store_site: str
    selector: str
    value: Operand
    guarded: bool


@dataclass(frozen=True)
class PauseEdge:
    """The value of pause slot `slot` decides whether the transfer runs."""

    slot: int
    call_site: str
    selector: str


@dataclass(frozen=True)
class StateDependencyGraph:
    # (slot, role name) for every inferred storage role.
    nodes: tuple[tuple[int, str], ...]
    guard_edges: tuple[GuardEdge, ...]
    writes: tuple[SlotWrite, ...]
    pause_edges: tuple[PauseEdge, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.nodes or self.guard_edges or self.writes or self.pause_edges)

    def writes_to(self, slot: int) -> tuple[SlotWrite, ...]:
        return tuple(w for w in self.writes if w.slot == slot)


@dataclass(frozen=True)
class PlanEntry:
    selector: str
    # Statement ids to capture state at: transfer calls and role-slot stores.
    checkpoints: tuple[str, ...]
    # Variables whose symbolic values matter at those checkpoints.
    tracked: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisPlan:
    entries: tuple[PlanEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def selectors(self) -> tuple[str, ...]:
        return tuple(e.selector for e in self.entries)

    def entry(self, selector: str) -> PlanEntry | None:
        for e in self.entries:
            if e.selector == selector:
                return e
        return None


def build_ftg(
    db: FactDb,
    transfers: tuple[TransferFact, ...],
    guards: tuple[SenderGuardFact, ...],
    roles: tuple[StorageRoleFact, ...],
) -> FundTransferGraph:
    owner_slots = {r.slot for r in roles if r.role is StorageRole.OWNER}
    # selector -> smallest owner-role slot guarding it
    privileged: dict[str, int] = {}
    for g in sorted(guards, key=lambda g: g.slot):
        if g.slot in owner_slots:
            privileged.setdefault(g.selector, g.slot)

    caller_defs = db.defs_of(Opcode.CALLER)
    balance_defs = db.self_balance_defs()
    loaded = [l.value for l in db.sloads() if l.slot is not None and isinstance(l.value, str)]

    def classify(recipient: Operand) -> RecipientClass:
        if db.df_any(caller_defs, recipient):
            return RecipientClass.CALLER
        if db.const_of(recipient) is not None:
            return RecipientClass.CONSTANT_ADDRESS
        if db.df_any(loaded, recipient):
            return RecipientClass.STORAGE_LOADED
        return RecipientClass.OTHER

    shared = _shared_amount_edges(db, transfers)
    edges = tuple(
        FtgEdge(
            call_site=t.call_site,
            recipient=t.recipient,
            amount=t.amount,
            selector=t.selector,
            kind=t.kind,
            privileged_owner=privileged.get(t.selector),
            amount_from_self_balance=db.df_any(balance_defs, t.amount),
            shared_fee_ancestor=(t.call_site, t.selector) in shared,
        )
        for t in transfers
    )

    node_map = {t.recipient: classify(t.recipient) for t in transfers}
    nodes = [FtgNode(r, k) for r, k in node_map.items()]
    nodes.append(FtgNode(SELF_NODE, RecipientClass.CONTRACT_SELF))
    nodes.sort(key=lambda n: (n.kind.value, str(n.recipient)))
    return FundTransferGraph(nodes=tuple(nodes), edges=edges)


def _shared_amount_edges(
    db: FactDb, transfers: tuple[TransferFact, ...]
) -> set[tuple[str, str]]:
    """Edges whose amount shares a non-constant source with another edge
    of the same selector."""

    def ancestors(amount: Operand) -> set[str]:
        if not isinstance(amount, str):
            return set()
        return {
            w for w, d in db.dataflow if d == amount and w not in db.constant
        }

    by_selector: dict[str, list[TransferFact]] = defaultdict(list)
    for t in transfers:
        by_selector[t.selector].append(t)

    flagged: set[tuple[str, str]] = set()
    for selector, group in by_selector.items():
        anc = [ancestors(t.amount) for t in group]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[i].call_site == group[j].call_site:
                    continue
                if anc[i] & anc[j]:
                    flagged.add((group[i].call_site, selector))
                    flagged.add((group[j].call_site, selector))
    return flagged


def build_sdg(
    db: FactDb,
    roles: tuple[StorageRoleFact, ...],
    guards: tuple[SenderGuardFact, ...],
    transfers: tuple[TransferFact, ...],
) -> StateDependencyGraph:
    nodes = tuple(sorted({(r.slot, r.role.value) for r in roles}))
    role_slots = {r.slot for r in roles}

    # Comparison result variable for each guard's compare site.
    comp_def = {sid: d for sid, _, _, _, d in db.comp}

    guard_edges: list[GuardEdge] = []
    writes: list[SlotWrite] = []
    for store in db.sstores():
        if store.slot is None or store.slot not in role_slots:
            continue
        for selector in sorted(db.selectors_of(store.sid)):
            guarding = sorted(
                g.slot
                for g in guards
                if g.selector == selector
                and g.compare_site in comp_def
                and db.value_controls(comp_def[g.compare_site], store.sid)
            )
            for g_slot in guarding:
                guard_edges.append(GuardEdge(g_slot, store.slot, selector, store.sid))
            writes.append(
                SlotWrite(store.slot, store.sid, selector, store.value, bool(guarding))
            )

    pause_slots = sorted({r.slot for r in roles if r.role is StorageRole.PAUSE})
    pause_edges: list[PauseEdge] = []
    seen: set[tuple[int, str, str]] = set()
    for slot in pause_slots:
        for load in db.sloads():
            if load.slot != slot or not isinstance(load.value, str):
                continue
            for t in transfers:
                key = (slot, t.call_site, t.selector)
                if key in seen:
                    continue
                if db.value_controls(load.value, t.call_site):
                    seen.add(key)
                    pause_edges.append(PauseEdge(slot, t.call_site, t.selector))

    return StateDependencyGraph(
        nodes=nodes,
        guard_edges=tuple(sorted(guard_edges, key=lambda e: (e.slot, e.selector, e.guard_slot, e.store_site))),
        writes=tuple(sorted(writes, key=lambda w: (w.slot, w.store_site, w.selector))),
        pause_edges=tuple(sorted(pause_edges, key=lambda e: (e.slot, e.call_site, e.selector))),
    )


def plan_symexec(ftg: FundTransferGraph, sdg: StateDependencyGraph) -> AnalysisPlan:
    """Selectors owning at least one edge or role-slot write, with their
    checkpoint statements and the variables to track there."""
    checkpoints: dict[str, set[str]] = defaultdict(set)
    tracked: dict[str, set[str]] = defaultdict(set)

    for e in ftg.edges:
        checkpoints[e.selector].add(e.call_site)
        for v in (e.recipient, e.amount):
            if isinstance(v, str):
                tracked[e.selector].add(v)
    for w in sdg.writes:
        checkpoints[w.selector].add(w.store_site)
        if isinstance(w.value, str):
            tracked[w.selector].add(w.value)

    entries = tuple(
        PlanEntry(
            selector=sel,
            checkpoints=tuple(sorted(checkpoints[sel])),
            tracked=tuple(sorted(tracked[sel])),
        )
        for sel in sorted(checkpoints)
    )
    return AnalysisPlan(entries=entries)


def build_graphs(
    db: FactDb,
) -> tuple[FundTransferGraph, StateDependencyGraph, AnalysisPlan]:
    transfers = infer_transfers(db)
    guards = infer_sender_guards(db)
    roles = infer_storage_roles(db, guards)
    ftg = build_ftg(db, transfers, guards, roles)
    sdg = build_sdg(db, roles, guards, transfers)
    return ftg, sdg, plan_symexec(ftg, sdg)


def dump_graphs(ftg: FundTransferGraph, sdg: StateDependencyGraph) -> str:
    """Deterministic plain-text adjacency dump, for golden tests."""
    lines = ["ftg nodes:"]
    lines += [f"  {n.kind.value} {n.recipient}" for n in ftg.nodes] or ["  (none)"]
    lines.append("ftg edges:")
    for e in ftg.edges:
        owner = e.privileged_owner if e.privileged_owner is not None else "-"
        lines.append(
            f"  {SELF_NODE} -> {e.recipient} amount={e.amount}"
            f" selector={e.selector} kind={e.kind.value} owner_slot={owner}"
            f" self_balance={int(e.amount_from_self_balance)}"
            f" shared_fee={int(e.shared_fee_ancestor)}"
        )
    if not ftg.edges:
        lines.append("  (none)")
    lines.append("sdg nodes:")
    lines += [f"  slot {s} role {r}" for s, r in sdg.nodes] or ["  (none)"]
    lines.append("sdg guard edges:")
    lines += [
        f"  slot {e.guard_slot} -> slot {e.slot} selector={e.selector} store={e.store_site}"
        for e in sdg.guard_edges
    ] or ["  (none)"]
    lines.append("sdg writes:")
    lines += [
        f"  slot {w.slot} store={w.store_site} selector={w.selector}"
        f" value={w.value} guarded={int(w.guarded)}"
        for w in sdg.writes
    ] or ["  (none)"]
    lines.append("sdg pause edges:")
    lines += [
        f"  slot {e.slot} -> {e.call_site} selector={e.selector}" for e in sdg.pause_edges
    ] or ["  (none)"]
    return "\n".join(lines) + "\n"
