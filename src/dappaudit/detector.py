"""Seven inconsistency rules over front-end claims and contract semantics.

Each rule compares one claimed attribute against the summarized behavior
and yields at most one finding, so finding types are unique per report.
Every rule is gate-first: when the front end makes no claim the rule could
contradict, it returns before it looks at the semantics or the chain.
Five rules (UR, AL, UTS, UFF, CDS) are rows of one table: a claim gate, a
candidate filter over the semantics, and the detail and evidence of the
finding, which fires when any candidate is left. UTS's gate always
holds: a supply with no bound check is reported whether or not one is
claimed. `detect_all` walks the table once, in the fixed report order UR,
HF, AL, UTS, UFF, CDS, VNA.
Rate arithmetic is exact rational throughout; a claim of 3 percent and a
computed 5/100 never compare equal by rounding. This is the only layer
that reads chain state; the layers before it keep storage words symbolic.
The two rules that need live chain data (HF rate resolution, VNA URI
classification) keep their own functions and degrade to an explicit
"indeterminate" finding when the chain cannot answer instead of silently
dropping the check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, NamedTuple

from .chain import ChainState, ChainUnavailable, NotAString
from .claims import FrontendAttributes
from .graphs import RecipientClass
from .semantics import ContractSemantics, FeeCandidate

CENTRALIZED_SCHEMES = ("http://", "https://")

INDETERMINATE = "indeterminate"


class Finding(NamedTuple):
    """One detected inconsistency: scalar claim/computation fields first,
    then supporting evidence (statement ids, slots, rendered expressions)."""

    type: str
    detail: Mapping[str, Any]
    evidence: Mapping[str, Any]
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


class InconsistencyReport(NamedTuple):
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


def _rational_json(value: Fraction | None) -> int | str | None:
    if value is None:
        return None
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
    # Expressions compare as their texts would: distinct ones never render alike.
    shaped = {
        (c.call_site, c.amount_expr): c
        for c in sem.fee_candidates
        if c.selector == cand.selector
    }
    total = Fraction(0)
    for t in group:
        c = shaped.get((t.call_site, t.amount_expr))
        if c is None or c.base_expr != cand.base_expr:
            return False
        num, den = resolve_rate(c, chain, sem.address)
        total += Fraction(num, den)
    return total == 1


def _hidden_fee(
    attrs: FrontendAttributes, sem: ContractSemantics, chain: ChainState | None
) -> Finding | None:
    # A rate alongside an explicit "no fee" denial is contradictory input;
    # the denial wins. Without a denial or a rate nothing can fire, so the
    # chain is not read.
    denied = attrs.fee_claimed is False
    if not denied and attrs.fee_rate_percent is None:
        return None
    claimed = None if denied else attrs.fee_rate_percent / 100
    claimed_rate = None if denied else f"{claimed.numerator}/{claimed.denominator}"

    fired: list[FeeCandidate] = []
    unresolved: list[FeeCandidate] = []
    computed_rate = None
    for cand in sem.fee_candidates:
        try:
            if _split_forwarding(cand, sem, chain):
                continue
            num, den = resolve_rate(cand, chain, sem.address)
        except ChainUnavailable:
            unresolved.append(cand)
            continue
        # A zero rate charges nothing; any other rate contradicts a denial
        # (claimed is None) or a different claimed rate.
        if Fraction(num, den) not in (0, claimed):
            fired.append(cand)
            computed_rate = computed_rate or f"{num}/{den}"
    if not (fired or unresolved):
        return None
    return Finding(
        type="HF",
        detail={"computed_rate": computed_rate, "claimed_rate": claimed_rate},
        evidence=_fee_evidence(fired or unresolved),
        status=None if fired else INDETERMINATE,
    )


def _fee_evidence(cands: list[FeeCandidate]) -> dict[str, Any]:
    first = cands[0]
    return {
        "call_sites": [c.call_site for c in cands],
        "fee_slot": hex(first.fee_slot) if first.fee_slot is not None else None,
        "amount_expr": first.amount,
        "fee_slot_modifiable": first.fee_slot_modifiable,
    }


def _is_centralized(uri: str) -> bool:
    low = uri.lower()
    return low.startswith(CENTRALIZED_SCHEMES) or (
        low.startswith("data:") and ";base64," in low
    )


def _volatile_uri(
    attrs: FrontendAttributes, sem: ContractSemantics, chain: ChainState | None
) -> Finding | None:
    # An explicit centralized-storage disclosure is the only suppressor.
    if sem.token_uri_slot is None or attrs.nft_permanence_claimed is False:
        return None
    detail = {"nft_permanence_claimed": attrs.nft_permanence_claimed}
    evidence = {"token_uri_slot": hex(sem.token_uri_slot), "token_uri": None}
    indeterminate = Finding("VNA", detail, evidence, INDETERMINATE)
    if chain is None:
        return indeterminate
    try:
        uri = chain.read_string_at(sem.address, sem.token_uri_slot)
    except ChainUnavailable:
        return indeterminate
    except NotAString:
        return None
    if not _is_centralized(uri):
        return None
    return Finding(
        "VNA", detail, {**evidence, "token_uri": uri, "storage_class": "centralized"}
    )


def _transfer_evidence(hits) -> dict[str, Any]:
    return {
        "call_sites": [t.call_site for t in hits],
        "amount_exprs": [t.amount for t in hits],
    }


# The rules in report order. A table row is (claim gate over the attributes,
# candidate filter over the semantics and the strict-supply flag, detail
# from the attributes, evidence from the candidates); HF and VNA read the
# chain and are functions of (attrs, sem, chain) instead.
_RULES: dict[str, Any] = {
    "UR": (
        lambda a: a.reward_rate_percent is not None,
        lambda sem, strict: [
            t
            for t in sem.transfers
            if t.recipient_class is RecipientClass.CALLER
            and (t.dynamic.balance_self or t.dynamic.store_written)
        ],
        lambda a: {"claimed_reward_percent": _rational_json(a.reward_rate_percent)},
        _transfer_evidence,
    ),
    "HF": _hidden_fee,
    "AL": (
        lambda a: a.lock_time_seconds is not None,
        lambda sem, strict: [l for l in sem.locks if l.publicly_settable],
        lambda a: {"claimed_lock_seconds": _rational_json(a.lock_time_seconds)},
        lambda hits: {
            "slots": [hex(l.slot) for l in hits],
            "store_sites": [s for l in hits for s in l.write_sites],
        },
    ),
    "UTS": (
        lambda a: True,
        lambda sem, strict: [
            s
            for s in sem.supplies
            if not s.bound_checked and not (strict and s.bound_checked_after_add)
        ],
        lambda a: {"claimed_supply": _rational_json(a.total_supply)},
        lambda hits: {
            "slots": [hex(s.slot) for s in hits],
            "store_sites": [site for s in hits for site in s.store_sites],
        },
    ),
    "UFF": (
        lambda a: a.fund_flow_disclosed is False,
        lambda sem, strict: [
            t
            for t in sem.transfers
            if t.owner_gated
            and (t.recipient_class is not RecipientClass.CALLER or t.dynamic.balance_self)
        ],
        lambda a: {"fund_flow_disclosed": False},
        lambda hits: {
            **_transfer_evidence(hits),
            "recipient_classes": [t.recipient_class.value for t in hits],
        },
    ),
    "CDS": (
        lambda a: a.pause_disclosed is False,
        lambda sem, strict: [
            p for p in sem.pauses if p.owner_modifiable and p.gated_call_sites
        ],
        lambda a: {"pause_disclosed": False},
        lambda hits: {
            "slots": [hex(p.slot) for p in hits],
            "store_sites": [s for p in hits for s in p.write_sites],
            "gated_call_sites": [s for p in hits for s in p.gated_call_sites],
        },
    ),
    "VNA": _volatile_uri,
}


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
    for kind, rule in _RULES.items():
        if callable(rule):
            finding = rule(attrs, sem, chain)
        else:
            claimed, candidates, detail, evidence = rule
            hits = candidates(sem, strict_supply_check) if claimed(attrs) else []
            finding = Finding(kind, detail(attrs), evidence(hits)) if hits else None
        if finding is not None:
            findings.append(finding)
    return InconsistencyReport(
        contract=sem.address,
        findings=tuple(findings),
        budget_exceeded=sem.budget_exceeded,
    )
