"""Fund-transfer and state-dependency graphs, and the plan they induce.

The fund-transfer graph (FTG) records every inferred transfer out of the
contract as an edge that carries its recipient's class.  The state
dependency graph (SDG) records storage roles, role-slot writes with
whether each sits behind a sender check, and pause flags that gate
transfers.  The analysis plan lists, per public selector, the statements
worth checkpointing during symbolic execution; selectors with no graph
content are excluded.

Each edge and role-slot write also lists the branches its checkpoint does
not depend on, as (function, block, successor) triples naming the
branch's short arm (see `cfg`).  For one checkpoint a branch is deciding
when

- (a) the checkpoint is control-dependent on its condition;
- (b) its region (the statements its condition controls) makes a private
  call;
- (c) a variable its region sets influences (in the dataflow closure) an
  operand of the checkpoint, or the condition of any branch, itself
  included, outside the blocks its arms reach before they meet.  A region
  sets the variables it defines, and a store in it sets every load that
  may read the stored slot: the loads of the same constant slot, and
  every load when either slot is not a constant the facts can name;
- (d) it has no short arm: its arms meet only at the synthetic exit, or
  the short arm loops or can run more blocks than the other arm.

The other branches are listed.  The plan follows, per selector, the
branches listed for every one of its checkpoints.  Both arms of a listed
branch reach its post-dominator with the same values for every
checkpoint operand and every later branch condition, so a path takes the
same blocks after either arm, whether those conditions are symbolic or
constant; the short arm gets there having entered each of its blocks
once and with no more blocks behind it than the other arm, so loop and
depth pruning cut the path no earlier than a path through the other arm.
A block of either arm that runs again later holds no checkpoint (the
checkpoint would depend on the branch) and leads on only to the
post-dominator, which has run at least as often, so its extra entries cut
no path that the post-dominator would not cut next.  Executing only the
short arm therefore drops no checkpoint state; how dropping the branch's
condition from the path constraints affects feasibility is described in
`executor`.  One case lies outside the rule, because the executor binds a
variable read on a path that never defined it and a PHI then takes that
variable as its in-loop operand: a region that reads a PHI's in-loop
operand before any definition of it.  SSA form, in which a definition
dominates every use other than a PHI's, rules that out.
"""
from __future__ import annotations

from collections import defaultdict
from enum import Enum, unique
from typing import NamedTuple

from .facts import FactDb
from .inference import (
    SenderGuardFact,
    StorageRole,
    StorageRoleFact,
    TransferFact,
    infer_sender_guards,
    infer_storage_roles,
    infer_transfers,
)
from .model import Operand, Record

# (function, block, successor): follow only `successor` at that branch.
Follow = frozenset[tuple[str, str, str]]

@unique
class RecipientClass(Enum):
    CALLER = "caller"
    CONSTANT_ADDRESS = "constant_address"
    STORAGE_LOADED = "storage_loaded"
    OTHER = "other"


class FtgEdge(NamedTuple):
    """One transfer out of the contract, under one reaching selector."""

    call_site: str
    recipient: Operand
    recipient_class: RecipientClass
    amount: Operand
    selector: str
    # Slot guarding this selector, when that slot also carries the owner role.
    privileged_owner: int | None
    # Another transfer under the same selector splits a common source value.
    shared_fee_ancestor: bool
    # Branches the transfer's checkpoint does not depend on.
    follow: Follow


class FundTransferGraph(NamedTuple):
    edges: tuple[FtgEdge, ...]


class SlotWrite(NamedTuple):
    slot: int
    store_site: str
    selector: str
    value: Operand
    # A sender check under the same selector decides whether the store runs.
    guarded: bool
    # Branches the store's checkpoint does not depend on.
    follow: Follow


class PauseEdge(NamedTuple):
    """The value of pause slot `slot` decides whether the transfer runs."""

    slot: int
    call_site: str
    selector: str


class StateDependencyGraph(Record):
    # (slot, role name) for every inferred storage role.
    nodes: tuple[tuple[int, str], ...]
    writes: tuple[SlotWrite, ...]
    pause_edges: tuple[PauseEdge, ...]
    _writes_index: dict[int, list[SlotWrite]]
    __slots__ = tuple(__annotations__)

    def __init__(
        self,
        nodes: tuple[tuple[int, str], ...],
        writes: tuple[SlotWrite, ...],
        pause_edges: tuple[PauseEdge, ...],
    ) -> None:
        index: dict[int, list[SlotWrite]] = {}
        for w in writes:
            index.setdefault(w.slot, []).append(w)
        super().__init__(nodes, writes, pause_edges, index)

    def writes_to(self, slot: int) -> tuple[SlotWrite, ...]:
        return tuple(self._writes_index.get(slot, ()))


class PlanEntry(NamedTuple):
    selector: str
    # Statement ids to capture state at: transfer calls and role-slot stores.
    checkpoints: tuple[str, ...]
    # Branches no checkpoint depends on, with the arm to follow.
    follow: Follow


class AnalysisPlan(Record):
    entries: tuple[PlanEntry, ...]
    _entry_index: dict[str, PlanEntry]
    __slots__ = tuple(__annotations__)

    def __init__(self, entries: tuple[PlanEntry, ...]) -> None:
        super().__init__(entries, {e.selector: e for e in entries})

    def selectors(self) -> tuple[str, ...]:
        return tuple(e.selector for e in self.entries)

    def entry(self, selector: str) -> PlanEntry | None:
        return self._entry_index.get(selector)


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

    loaded = {l.value for l in db.sloads}

    def classify(recipient: Operand) -> RecipientClass:
        sources = db.reaching((recipient,))
        if not sources.isdisjoint(db.caller_defs):
            return RecipientClass.CALLER
        if db.const_of(recipient) is not None:
            return RecipientClass.CONSTANT_ADDRESS
        if not sources.isdisjoint(loaded):
            return RecipientClass.STORAGE_LOADED
        return RecipientClass.OTHER

    # One backward walk per recipient, not per edge.
    classes = {r: classify(r) for r in {t.recipient for t in transfers}}

    shared = _shared_amount_edges(db, transfers)
    edges = tuple(
        FtgEdge(
            call_site=t.call_site,
            recipient=t.recipient,
            recipient_class=classes[t.recipient],
            amount=t.amount,
            selector=t.selector,
            privileged_owner=privileged.get(t.selector),
            shared_fee_ancestor=(t.call_site, t.selector) in shared,
            follow=_free_branches(db, t.call_site, t.selector),
        )
        for t in transfers
    )
    return FundTransferGraph(edges=edges)


def _shared_amount_edges(
    db: FactDb, transfers: tuple[TransferFact, ...]
) -> set[tuple[str, str]]:
    """Edges whose amount shares a non-constant source with another edge
    of the same selector: the call sites each (selector, source) pair
    reaches, flagged where a pair reaches two or more."""
    sites: dict[tuple[str, str], set[str]] = defaultdict(set)
    for t in transfers:
        for v in db.reaching((t.amount,)).difference(db.constant):
            sites[t.selector, v].add(t.call_site)
    return {(c, sel) for (sel, _), cs in sites.items() if len(cs) > 1 for c in cs}


def build_sdg(
    db: FactDb,
    roles: tuple[StorageRoleFact, ...],
    guards: tuple[SenderGuardFact, ...],
    transfers: tuple[TransferFact, ...],
) -> StateDependencyGraph:
    nodes = tuple(sorted({(r.slot, r.role.value) for r in roles}))
    role_slots = {r.slot for r in roles}

    # Selector -> the result variables of its guards' comparisons.
    decisions: dict[str, list[str]] = {}
    for g in guards:
        decisions.setdefault(g.selector, []).append(db.program.statement(g.compare_site).defvar)

    writes: list[SlotWrite] = []
    for store in db.sstores:
        if store.slot not in role_slots:
            continue
        deciders = db.deciders(store.sid)
        for selector in sorted(db.selectors_of(store.sid)):
            writes.append(
                SlotWrite(
                    store.slot,
                    store.sid,
                    selector,
                    store.value,
                    not deciders.isdisjoint(decisions.get(selector, ())),
                    _free_branches(db, store.sid, selector),
                )
            )

    pause_slots = {r.slot for r in roles if r.role is StorageRole.PAUSE}
    pause_edges: list[PauseEdge] = []
    # Without a pause slot, no transfer's deciders are walked.
    for t in transfers if pause_slots else ():
        deciders = db.deciders(t.call_site)
        pause_edges += [
            PauseEdge(slot, t.call_site, t.selector)
            for slot in pause_slots
            if not deciders.isdisjoint(db.slot_loads.get(slot, ()))
        ]

    return StateDependencyGraph(
        nodes=nodes,
        writes=tuple(sorted(writes, key=lambda w: (w.slot, w.store_site, w.selector))),
        pause_edges=tuple(sorted(pause_edges, key=lambda e: (e.slot, e.call_site, e.selector))),
    )


def plan_symexec(ftg: FundTransferGraph, sdg: StateDependencyGraph) -> AnalysisPlan:
    """Selectors owning at least one edge or role-slot write, with their
    checkpoint statements and the branches none of them depends on."""
    checkpoints: dict[str, set[str]] = defaultdict(set)
    follow: dict[str, Follow] = {}

    def add(site: str, selector: str, free: Follow) -> None:
        checkpoints[selector].add(site)
        follow[selector] = follow[selector] & free if selector in follow else free

    for e in ftg.edges:
        add(e.call_site, e.selector, e.follow)
    for w in sdg.writes:
        add(w.store_site, w.selector, w.follow)

    entries = tuple(
        PlanEntry(
            selector=sel,
            checkpoints=tuple(sorted(checkpoints[sel])),
            follow=follow[sel],
        )
        for sel in sorted(checkpoints)
    )
    return AnalysisPlan(entries=entries)


def _free_branches(db: FactDb, site: str, selector: str) -> Follow:
    """The branches under `selector` that do not decide the checkpoint at
    `site`, each with its short arm (module docstring)."""
    controlling = db.conditions_controlling(site)
    operands = db.program.statement(site).uses
    branches = db.branches.get(selector, ())
    # Condition -> the (function, block) of each branch on it.
    where: dict[str, list[tuple[str, str]]] = {}
    for br in branches:
        where.setdefault(br.cond, []).append((br.function, br.block))
    free = []
    for br in branches:
        if br.sets is None or br.cond in controlling:
            continue
        # What br sets reaches no operand, and every branch on a condition
        # it reaches sits inside br's arms.
        fn, blocks = br.function, br.blocks
        reached = db.reached_from(br.sets)
        # Walks `reached`: a set's intersection with a dict walks the dict.
        if reached.isdisjoint(operands) and all(
            f == fn and b in blocks for c in reached if c in where for f, b in where[c]
        ):
            free.append((fn, br.block, br.short_arm))
    return frozenset(free)


def build_graphs(
    db: FactDb,
) -> tuple[FundTransferGraph, StateDependencyGraph, AnalysisPlan]:
    transfers = infer_transfers(db)
    guards = infer_sender_guards(db)
    roles = infer_storage_roles(db, guards)
    ftg = build_ftg(db, transfers, guards, roles)
    sdg = build_sdg(db, roles, guards, transfers)
    return ftg, sdg, plan_symexec(ftg, sdg)
