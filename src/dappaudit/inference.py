"""Induced facts: fund transfers, sender guards and storage-slot roles.

Every rule premise is evaluated against the base relations; rules fire once
per (site, reaching public selector).  Only constant storage slots
participate in guard and role inference.  Each rule asks the dataflow
graph one question per set of sources or targets, and the work per site is
a set-membership test:

- sender guards: one walk forward from the caller defs, and one back from
  each comparison side a caller def reaches;
- owner and getter reads: one walk back from a selector's returned
  operands, the first time a load under it asks;
- guarded owner reads: one walk back from every branch condition, the
  first time a guarded load asks;
- lock time: one walk forward from the timestamp defs, and from the public
  parameters only when a stored value is timestamp-fed;
- supply: one backward search per store, stopped at the first witness;
- pause: one walk back from the conditions each constant store depends on.
"""
from __future__ import annotations

from enum import Enum, unique
from typing import NamedTuple

from .facts import FactDb
from .model import Operand, TermKind
from .signatures import GETTER_ROLES, OWNER_NAME, selectors_named, transfer_shape


@unique
class TransferKind(Enum):
    ERC20_TRANSFER = "erc20_transfer"
    ERC20_TRANSFER_FROM = "erc20_transfer_from"
    ETHER = "ether"


class TransferFact(NamedTuple):
    call_site: str
    recipient: Operand
    amount: Operand
    selector: str
    kind: TransferKind


class SenderGuardFact(NamedTuple):
    """Execution under `selector` compares storage slot `slot` to the caller."""

    slot: int
    selector: str
    load_site: str
    compare_site: str


@unique
class StorageRole(Enum):
    OWNER = "owner"
    SUPPLY = "supply"
    PAUSE = "pause"
    LOCK_TIME = "lock_time"
    TOKEN_URI = "token_uri"


# Rule identifiers, in precedence order for deduplication.
RULE_OWNER_ACCESS = "owner-access"
RULE_STANDARD_SELECTOR = "standard-selector"
RULE_TIME_LOCK_SUM = "time-lock-sum"
RULE_SUPPLY_ACCUMULATE = "supply-accumulate"
RULE_PAUSE_GUARD = "pause-guard"
_RULE_ORDER = {
    RULE_OWNER_ACCESS: 0,
    RULE_STANDARD_SELECTOR: 1,
    RULE_TIME_LOCK_SUM: 2,
    RULE_SUPPLY_ACCUMULATE: 3,
    RULE_PAUSE_GUARD: 4,
}


class StorageRoleFact(NamedTuple):
    role: StorageRole
    slot: int
    selector: str
    rule: str
    site: str


def infer_transfers(db: FactDb) -> tuple[TransferFact, ...]:
    """Token transfers via ABI-decoded calls, ether sends via plain calls."""
    out: list[TransferFact] = []
    for cs, _target, sig in db.external_call:
        sig_value = db.const_of(sig)
        if sig_value is None:
            continue
        shape = transfer_shape(sig_value)
        if shape is None:
            continue
        r_idx, a_idx, kind = shape
        args = db.program.statement(cs).args[3:]
        if max(r_idx, a_idx) >= len(args):
            continue
        for selector in sorted(db.selectors_of(cs)):
            out.append(
                TransferFact(cs, args[r_idx], args[a_idx], selector, TransferKind(kind))
            )
    for s in db.plain_calls:
        for selector in sorted(db.selectors_of(s.sid)):
            out.append(TransferFact(s.sid, s.args[0], s.args[1], selector, TransferKind.ETHER))
    return tuple(sorted(out, key=lambda t: (t.call_site, t.selector)))


def infer_sender_guards(db: FactDb) -> tuple[SenderGuardFact, ...]:
    """Constant-slot loads compared against the caller, per selector.  The
    comparison must run under the same selector: a private helper that
    several functions share joins their dataflow, so a load in one function
    can reach a comparison that only another one runs."""
    # Loaded variable -> the comparisons where it meets the caller: one
    # side reached by a caller def, the other by the load.
    loaded = {load.value for load in db.sloads}
    caller_fed = db.reached_from(db.caller_defs)
    compare_sites: dict[str, set[str]] = {}
    for sid, _, lhs, rhs, _ in db.comp:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if b in caller_fed:
                for v in loaded.intersection(db.reaching((a,))):
                    compare_sites.setdefault(v, set()).add(sid)
    out: dict[tuple[int, str], SenderGuardFact] = {}
    for load in db.sloads:
        sites = compare_sites.get(load.value)
        if not sites:
            continue
        for selector in sorted(db.selectors_of(load.sid)):
            own = [sid for sid in sites if selector in db.selectors_of(sid)]
            if own:
                out.setdefault(
                    (load.slot, selector),
                    SenderGuardFact(load.slot, selector, load.sid, min(own)),
                )
    return tuple(sorted(out.values(), key=lambda g: (g.slot, g.selector)))


def infer_storage_roles(
    db: FactDb, guards: tuple[SenderGuardFact, ...] | None = None
) -> tuple[StorageRoleFact, ...]:
    if guards is None:
        guards = infer_sender_guards(db)
    guard_set = {(g.slot, g.selector) for g in guards}
    found: list[StorageRoleFact] = []

    owner_selectors = selectors_named(OWNER_NAME)
    getter_roles = {
        sel: StorageRole(role)
        for name, role in GETTER_ROLES.items()
        for sel in selectors_named(name)
    }

    # Loads with constant slots drive the read-side rules.  What flows into
    # a selector's returned operands, and into any branch condition, is
    # walked the first time a load asks.
    returning: dict[str, set[str]] = {}
    controlling: set[str] | None = None
    for load in db.sloads:
        x = load.value
        for selector in sorted(db.selectors_of(load.sid)):
            # Only the owner and getter rules ask whether x is returned.
            role = getter_roles.get(selector)
            owner = selector in owner_selectors
            if (owner or role is not None) and selector not in returning:
                returning[selector] = db.reaching(_returned(db, selector))
            returns_x = x in returning.get(selector, ())
            guarded = (load.slot, selector) in guard_set
            if guarded and controlling is None:
                controlling = db.reaching(db.conditions)
            # A returned owner, or a guarded load that decides a branch.
            if (owner and returns_x) or (guarded and x in controlling):
                found.append(
                    StorageRoleFact(StorageRole.OWNER, load.slot, selector, RULE_OWNER_ACCESS, load.sid)
                )
            if role is not None and returns_x:
                found.append(
                    StorageRoleFact(role, load.slot, selector, RULE_STANDARD_SELECTOR, load.sid)
                )

    # Store-side rules.  A stored value fed by a timestamp and a public
    # parameter marks a lock time; the parameters are walked from only
    # when some stored value is timestamp-fed.
    stamped = db.reached_from(db.timestamp_defs)
    param_fed: set[str] = set()
    if any(store.value in stamped for store in db.sstores):
        param_fed = db.reached_from(v for _, v, _ in db.func_arg)
    for store in db.sstores:
        z = store.value
        if z in stamped and z in param_fed:
            for selector in sorted(db.selectors_of(store.sid)):
                found.append(
                    StorageRoleFact(
                        StorageRole.LOCK_TIME, store.slot, selector, RULE_TIME_LOCK_SUM, store.sid
                    )
                )
        # Supply: the stored value is ADD-derived from a load of its slot.
        if db.flows_through(db.slot_loads.get(store.slot, ()), db.adds, z):
            for selector in sorted(db.selectors_of(store.sid)):
                found.append(
                    StorageRoleFact(
                        StorageRole.SUPPLY, store.slot, selector, RULE_SUPPLY_ACCUMULATE, store.sid
                    )
                )

    # A load whose value decides whether a nonzero constant is stored back
    # to the same slot marks a pause flag.
    flag_stores: dict[int, list[tuple[str, frozenset[str]]]] = {}
    for store in db.sstores:
        if db.const_of(store.value):
            flag_stores.setdefault(store.slot, []).append((store.sid, db.deciders(store.sid)))
    for load in db.sloads:
        for site, deciders in flag_stores.get(load.slot, ()):
            if load.value in deciders:
                found += [
                    StorageRoleFact(StorageRole.PAUSE, load.slot, sel, RULE_PAUSE_GUARD, site)
                    for sel in sorted(db.selectors_of(load.sid))
                ]

    # One fact per (role, slot, selector); earlier rules win.
    found.sort(key=lambda f: (f.role.value, f.slot, f.selector, _RULE_ORDER[f.rule], f.site))
    unique: dict[tuple[StorageRole, int, str], StorageRoleFact] = {}
    for f in found:
        unique.setdefault((f.role, f.slot, f.selector), f)
    return tuple(unique.values())


def _returned(db: FactDb, selector: str) -> list[Operand]:
    """The operands the public function `selector` returns."""
    fn = db.program.function_of_selector(selector)
    if fn is None:
        return []
    return [
        v for b in fn.blocks if b.terminator.kind is TermKind.RETURN for v in b.terminator.values
    ]
