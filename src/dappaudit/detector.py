"""Seven inconsistency rules over front-end claims and contract semantics.

Each rule compares one claimed attribute against the summarized behavior
and yields at most one finding, so finding types are unique per report.
Rate arithmetic is exact rational throughout; a claim of 3 percent and a
computed 5/100 never compare equal by rounding. This is the only layer
that reads chain state; the layers before it keep storage words symbolic.
Rules that need live chain data (HF rate resolution, VNA URI
classification) degrade to an explicit "indeterminate" finding when the
chain cannot answer instead of silently dropping the check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .chain import ChainState, ChainUnavailable, NotAString
from .claims import FrontendAttributes
from .graphs import RecipientClass
from .semantics import ContractSemantics, FeeCandidate

DECENTRALIZED_SCHEMES = ("ipfs://", "ar://")
CENTRALIZED_SCHEMES = ("http://", "https://")

INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Finding:
    """One detected inconsistency: scalar claim/computation fields first,
    then supporting evidence (statement ids, slots, rendered expressions)."""

    type: str
    detail: Mapping[str, Any] = field(default_factory=dict)
    evidence: Mapping[str, Any] = field(default_factory=dict)
    # None for a confirmed finding; INDETERMINATE when chain data was
    # required but unavailable.
    status: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"type": self.type}
        out.update(self.detail)
        if self.status is not None:
            out["status"] = self.status
        out["evidence"] = dict(self.evidence)
        return out


@dataclass(frozen=True)
class InconsistencyReport:
    contract: str
    findings: tuple[Finding, ...]
    budget_exceeded: bool = False

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "contract": self.contract,
            "findings": [f.to_json() for f in self.findings],
        }
        if self.budget_exceeded:
            out["metadata"] = {"symbolic_budget_exceeded": True}
        return out

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


def _rational_json(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def resolve_rate(
    candidate: FeeCandidate, chain: ChainState | None, address: str
) -> tuple[int, int]:
    """Concrete (numerator, denominator) for a fee candidate, reading
    storage-valued numerators from the chain. Constant numerators need no
    backend. Raises ChainUnavailable when the chain cannot answer."""
    k = candidate.numerator
    if k.op == "const":
        return k.value, candidate.denominator
    if chain is None:
        raise ChainUnavailable("no chain backend configured")
    return chain.get_storage(address, k.value), candidate.denominator


def _split_forwarding(
    cand: FeeCandidate, sem: ContractSemantics, chain: ChainState | None
) -> bool:
    """True when the candidate's selector merely splits the whole principal
    across preset recipients: every transfer is a fraction of the same base,
    no caller payout exists, and the fractions sum to exactly 1. A residual
    leg (non-fraction shape, e.g. sub(principal, fee) to a preset address)
    defeats the exclusion. Raises ChainUnavailable if a storage-valued
    split rate cannot be read."""
    group = [t for t in sem.transfers if t.selector == cand.selector]
    if any(t.recipient_class is RecipientClass.CALLER for t in group):
        return False
    shaped = {
        (c.call_site, c.amount): c
        for c in sem.fee_candidates
        if c.selector == cand.selector
    }
    total = Fraction(0)
    for t in group:
        c = shaped.get((t.call_site, t.amount))
        if c is None or c.base != cand.base:
            return False
        num, den = resolve_rate(c, chain, sem.address)
        total += Fraction(num, den)
    return total == 1


def _unguaranteed_reward(
    attrs: FrontendAttributes, sem: ContractSemantics
) -> Finding | None:
    if attrs.reward_rate_percent is None:
        return None
    hits = [
        t
        for t in sem.transfers
        if t.recipient_class is RecipientClass.CALLER
        and (t.dynamic.balance_self or t.dynamic.store_written)
    ]
    if not hits:
        return None
    return Finding(
        type="UR",
        detail={"claimed_reward_percent": _rational_json(attrs.reward_rate_percent)},
        evidence={
            "call_sites": [t.call_site for t in hits],
            "amount_exprs": [t.amount for t in hits],
        },
    )


def _hidden_fee(
    attrs: FrontendAttributes, sem: ContractSemantics, chain: ChainState | None
) -> Finding | None:
    if not sem.fee_candidates:
        return None
    # A rate alongside an explicit "no fee" denial is contradictory input;
    # the denial wins and the False branch below fires regardless.
    claimed_fraction = claimed_rate = None
    if attrs.fee_claimed is not False and attrs.fee_rate_percent is not None:
        claimed_fraction = attrs.fee_rate_percent / 100
        claimed_rate = f"{claimed_fraction.numerator}/{claimed_fraction.denominator}"

    fired: list[tuple[FeeCandidate, int, int]] = []
    unresolved: list[FeeCandidate] = []
    for cand in sem.fee_candidates:
        try:
            if _split_forwarding(cand, sem, chain):
                continue
            num, den = resolve_rate(cand, chain, sem.address)
        except ChainUnavailable:
            unresolved.append(cand)
            continue
        rate = Fraction(num, den)
        if rate == 0:
            # The configured rate charges nothing.
            continue
        if attrs.fee_claimed is False:
            fired.append((cand, num, den))
        elif claimed_fraction is not None and rate != claimed_fraction:
            fired.append((cand, num, den))

    if fired:
        _, num, den = fired[0]
        return Finding(
            type="HF",
            detail={
                "computed_rate": f"{num}/{den}",
                "claimed_rate": claimed_rate,
            },
            evidence=_fee_evidence([c for c, _, _ in fired]),
        )
    # Only degrade when a resolved rate could actually have fired.
    if unresolved and (attrs.fee_claimed is False or claimed_fraction is not None):
        return Finding(
            type="HF",
            detail={"computed_rate": None, "claimed_rate": claimed_rate},
            evidence=_fee_evidence(unresolved),
            status=INDETERMINATE,
        )
    return None


def _fee_evidence(cands: list[FeeCandidate]) -> dict[str, Any]:
    first = cands[0]
    return {
        "call_sites": [c.call_site for c in cands],
        "fee_slot": hex(first.fee_slot) if first.fee_slot is not None else None,
        "amount_expr": first.amount,
        "fee_slot_modifiable": first.fee_slot_modifiable,
    }


def _adjustable_lock(
    attrs: FrontendAttributes, sem: ContractSemantics
) -> Finding | None:
    if attrs.lock_time_seconds is None:
        return None
    hits = [l for l in sem.locks if l.publicly_settable]
    if not hits:
        return None
    return Finding(
        type="AL",
        detail={"claimed_lock_seconds": _rational_json(attrs.lock_time_seconds)},
        evidence={
            "slots": [hex(l.slot) for l in hits],
            "store_sites": [s for l in hits for s in l.write_sites],
        },
    )


def _unrestricted_supply(
    attrs: FrontendAttributes, sem: ContractSemantics, strict: bool
) -> Finding | None:
    hits = [
        s
        for s in sem.supplies
        if not s.bound_checked
        and not (strict and s.bound_checked_after_add)
    ]
    if not hits:
        return None
    claimed = (
        _rational_json(attrs.total_supply)
        if attrs.total_supply is not None
        else None
    )
    return Finding(
        type="UTS",
        detail={"claimed_supply": claimed},
        evidence={
            "slots": [hex(s.slot) for s in hits],
            "store_sites": [site for s in hits for site in s.store_sites],
        },
    )


def _undisclosed_fund_flow(
    attrs: FrontendAttributes, sem: ContractSemantics
) -> Finding | None:
    if attrs.fund_flow_disclosed is not False:
        return None
    hits = [
        t
        for t in sem.transfers
        if t.owner_gated
        and (
            t.recipient_class is not RecipientClass.CALLER
            or t.dynamic.balance_self
        )
    ]
    if not hits:
        return None
    return Finding(
        type="UFF",
        detail={"fund_flow_disclosed": False},
        evidence={
            "call_sites": [t.call_site for t in hits],
            "amount_exprs": [t.amount for t in hits],
            "recipient_classes": [t.recipient_class.value for t in hits],
        },
    )


def _concealed_pause(
    attrs: FrontendAttributes, sem: ContractSemantics
) -> Finding | None:
    if attrs.pause_disclosed is not False:
        return None
    hits = [p for p in sem.pauses if p.owner_modifiable and p.gated_call_sites]
    if not hits:
        return None
    return Finding(
        type="CDS",
        detail={"pause_disclosed": False},
        evidence={
            "slots": [hex(p.slot) for p in hits],
            "store_sites": [s for p in hits for s in p.write_sites],
            "gated_call_sites": [s for p in hits for s in p.gated_call_sites],
        },
    )


def _classify_uri(uri: str) -> str | None:
    low = uri.lower()
    if low.startswith(DECENTRALIZED_SCHEMES):
        return "decentralized"
    if low.startswith(CENTRALIZED_SCHEMES):
        return "centralized"
    if low.startswith("data:") and ";base64," in low:
        return "centralized"
    return None


def _volatile_uri(
    attrs: FrontendAttributes, sem: ContractSemantics, chain: ChainState | None
) -> Finding | None:
    if sem.token_uri_slot is None:
        return None
    # An explicit centralized-storage disclosure is the only suppressor.
    if attrs.nft_permanence_claimed is False:
        return None
    slot_hex = hex(sem.token_uri_slot)
    detail = {"nft_permanence_claimed": attrs.nft_permanence_claimed}
    indeterminate = Finding(
        type="VNA",
        detail=detail,
        evidence={"token_uri_slot": slot_hex, "token_uri": None},
        status=INDETERMINATE,
    )
    if chain is None:
        return indeterminate
    try:
        uri = chain.read_string_at(sem.address, sem.token_uri_slot)
    except ChainUnavailable:
        return indeterminate
    except NotAString:
        return None
    storage_class = _classify_uri(uri)
    if storage_class != "centralized":
        return None
    return Finding(
        type="VNA",
        detail=detail,
        evidence={
            "token_uri_slot": slot_hex,
            "token_uri": uri,
            "storage_class": storage_class,
        },
    )


def detect_all(
    attrs: FrontendAttributes,
    sem: ContractSemantics,
    chain: ChainState | None = None,
    *,
    strict_supply_check: bool = False,
) -> InconsistencyReport:
    """Run every rule and assemble the report. Pure: identical inputs give
    a byte-identical rendering. strict_supply_check additionally accepts a
    supply bound check placed after the accumulating store."""
    findings = []
    for f in (
        _unguaranteed_reward(attrs, sem),
        _hidden_fee(attrs, sem, chain),
        _adjustable_lock(attrs, sem),
        _unrestricted_supply(attrs, sem, strict_supply_check),
        _undisclosed_fund_flow(attrs, sem),
        _concealed_pause(attrs, sem),
        _volatile_uri(attrs, sem, chain),
    ):
        if f is not None:
            findings.append(f)
    return InconsistencyReport(
        contract=sem.address,
        findings=tuple(findings),
        budget_exceeded=sem.budget_exceeded,
    )
