"""A traced copy of `pipeline.audit_contract`, rebuilt from public calls.

Each layer call runs inside a span (name, start, end, audit id).  Spans
are kept in memory by a `Trace` and written once the run ends.  Counts
are read from the objects the layers return, so the program itself is not
changed.  The copy must not drift from the real pipeline: the benchmark
checks that its report bytes equal those `audit_contract` writes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from dappaudit.chain import MockChain
from dappaudit.claims import FrontendAttributes
from dappaudit.detector import InconsistencyReport, detect_all
from dappaudit.executor import execute_function
from dappaudit.facts import dataflow_closure, derive_base_facts
from dappaudit.graphs import build_ftg, build_sdg, plan_symexec
from dappaudit.inference import infer_sender_guards, infer_storage_roles, infer_transfers
from dappaudit.parser import parse_ir
from dappaudit.pipeline import RunConfig
from dappaudit.semantics import summarize_semantics

# Span name -> the layer its time is charged to.  `chain.read` spans sit
# inside `detector` spans; every other span is top level.
LAYER_OF_SPAN = {
    "parser": "parser",
    "facts.base": "facts",
    "facts.closure": "facts",
    "inference.transfers": "inference",
    "inference.guards": "inference",
    "inference.roles": "inference",
    "graphs.ftg": "graphs",
    "graphs.sdg": "graphs",
    "graphs.plan": "graphs",
    "executor": "executor",
    "semantics": "semantics",
    "claims": "claims",
    "chain.load": "chain",
    "chain.read": "chain",
    "detector": "detector",
    "detector.render": "detector",
    "pipeline.io": "pipeline",
}
NESTED_IN = {"chain.read": "detector"}


@dataclass
class Trace:
    """Spans as (name, start, end, audit id) plus per-audit counts."""

    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    audit_id: int = 0

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.audit_id))

    def self_ms(self) -> dict[str, float]:
        """Milliseconds per span name, nested spans subtracted from the
        span that contains them."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            ms = (end - start) * 1e3
            out[name] += ms
            if name in NESTED_IN:
                out[NESTED_IN[name]] -= ms
        return dict(out)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "audit": a} for n, s, e, a in self.spans
        ]


class CountingChain:
    """Delegates to a MockChain, timing and counting every read."""

    def __init__(self, inner: MockChain, trace: Trace):
        self._inner = inner
        self._trace = trace

    def get_storage(self, address: str, slot: int) -> int:
        self._trace.counts["chain.reads"] += 1
        with self._trace.span("chain.read"):
            return self._inner.get_storage(address, slot)

    def read_string_at(self, address: str, slot: int) -> str:
        self._trace.counts["chain.reads"] += 1
        with self._trace.span("chain.read"):
            return self._inner.read_string_at(address, slot)


def traced_audit(cfg: RunConfig, trace: Trace) -> tuple[InconsistencyReport, str]:
    """`audit_contract` for an attributes file and a mock chain, one span
    per layer call; returns the report and its rendered text."""
    trace.audit_id += 1
    c = trace.counts
    span = trace.span
    with span("pipeline.io"):
        text = cfg.ir_path.read_text()
    with span("parser"):
        program = parse_ir(text)
    c["parser.stmts"] += sum(1 for _ in program.statements())
    with span("facts.base"):
        db = derive_base_facts(program)
    with span("facts.closure"):
        db = dataflow_closure(db)
    c["facts.dataflow_pairs"] += len(db.dataflow)
    with span("inference.transfers"):
        transfers = infer_transfers(db)
    with span("inference.guards"):
        guards = infer_sender_guards(db)
    with span("inference.roles"):
        roles = infer_storage_roles(db, guards)
    c["inference.guards"] += len(guards)
    c["inference.roles"] += len(roles)
    with span("graphs.ftg"):
        ftg = build_ftg(db, transfers, guards, roles)
    with span("graphs.sdg"):
        sdg = build_sdg(db, roles, guards, transfers)
    with span("graphs.plan"):
        plan = plan_symexec(ftg, sdg)
    c["graphs.ftg_edges"] += len(ftg.edges)
    c["graphs.checkpoints"] += sum(len(e.checkpoints) for e in plan.entries)
    with span("executor"):
        executions = tuple(
            execute_function(program, sel, plan, cfg.limits) for sel in plan.selectors()
        )
    for res in executions:
        c["executor.states"] += res.states_explored
        c["executor.checkpoints"] += len(res.checkpoints)
        c["executor.feasible_checkpoints"] += len(res.feasible_checkpoints())
        c["executor.budget_hits"] += res.budget_exceeded
    with span("semantics"):
        semantics = summarize_semantics(executions, db, ftg, sdg)
    c["semantics.rendered_chars"] += sum(len(t.amount) for t in semantics.transfers) + sum(
        len(f.base) + len(f.amount) for f in semantics.fee_candidates
    )
    with span("pipeline.io"):
        doc = json.loads(cfg.attrs_path.read_text())
    with span("claims"):
        attrs = FrontendAttributes.from_json(doc)
    with span("chain.load"):
        chain = CountingChain(MockChain.from_file(str(cfg.chain_mock)), trace)
    with span("detector"):
        report = detect_all(
            attrs, semantics, chain, strict_supply_check=cfg.strict_supply_check
        )
    with span("detector.render"):
        rendered = report.render()
    c["detector.findings"] += len(report.findings)
    c["report.bytes"] += len(rendered.encode())
    with span("pipeline.io"):
        cfg.out_path.parent.mkdir(parents=True, exist_ok=True)
        cfg.out_path.write_text(rendered)
    return report, rendered
