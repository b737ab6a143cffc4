"""End-to-end audit orchestration shared by the command-line entry points.

A RunConfig names the inputs for one contract: the IR file, exactly one
claim source (attributes JSON or a description for the language-model
endpoint), and an optional chain backend. audit_contract runs the whole
chain parse -> facts -> graphs -> plan -> symbolic execution -> semantics
-> detection and returns the report; audit_many fans that out over
per-contract configs, building each chain backend once per run, with
results identical to sequential runs.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import NamedTuple

from .chain import ChainState, MockChain, RpcChain
from .claims import (
    BOOLEAN_ATTRIBUTES,
    NUMERIC_ATTRIBUTES,
    FrontendAttributes,
    LabeledResponse,
    extract_attributes,
)
from .detector import InconsistencyReport, detect_all
from .executor import ExecutionResult, Limits, execute_function
from .facts import FactDb, build_facts, dump_facts
from .graphs import AnalysisPlan, build_graphs
from .llm import LlmClient
from .parser import IrProgram, parse_ir
from .prompts import build_prompts
from .semantics import ContractSemantics, summarize_semantics
from .symexpr import render
from .transport import read_json

CHAIN_ENV = "CHAIN_RPC_URL"
_BACKENDS_LOCK = threading.Lock()


class ConfigError(ValueError):
    """A RunConfig that cannot be executed as requested."""


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError("jobs must be positive")


def _fan_out(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]`, over a pool of `jobs` threads when jobs > 1.
    Results keep item order.  Once a call raises, the calls not yet started
    are cancelled (`Executor.map` does so) and the error is raised."""
    if jobs == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # here: only jobs > 1 needs it

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


class _RunConfig(NamedTuple):
    ir_path: Path
    attrs_path: Path | None = None
    description_path: Path | None = None
    chain_mock: Path | None = None
    chain_rpc: str | None = None
    llm_url: str | None = None
    out_path: Path | None = None
    facts_dump: Path | None = None
    limits: Limits = Limits()
    strict_supply_check: bool = False
    jobs: int = 1


class RunConfig(_RunConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if (self.attrs_path is None) == (self.description_path is None):
            raise ConfigError(
                "exactly one of an attributes file or a description file is required"
            )
        if self.chain_mock is not None and self.chain_rpc is not None:
            raise ConfigError("choose one chain backend: mock file or RPC URL")
        _check_jobs(self.jobs)
        return self


class ContractAnalysis(NamedTuple):
    """Every intermediate product of one contract's static pipeline."""

    program: IrProgram
    db: FactDb
    plan: AnalysisPlan
    executions: tuple[ExecutionResult, ...]
    semantics: ContractSemantics


def analyze_ir(text: str, limits: Limits = Limits()) -> ContractAnalysis:
    program = parse_ir(text)
    db = build_facts(program)
    ftg, sdg, plan = build_graphs(db)
    executions = tuple(
        execute_function(program, sel, plan, limits) for sel in plan.selectors()
    )
    semantics = summarize_semantics(executions, db, ftg, sdg)
    return ContractAnalysis(program, db, plan, executions, semantics)


def chain_backend(cfg: RunConfig) -> ChainState | None:
    if cfg.chain_mock is not None:
        return MockChain.from_file(str(cfg.chain_mock))
    url = cfg.chain_rpc or os.environ.get(CHAIN_ENV)
    return RpcChain(url) if url else None


def extract_from_description(
    description: str, client: LlmClient, jobs: int = 1
) -> FrontendAttributes:
    """Ask the endpoint about every attribute and assemble the answers.

    Every segment of every attribute's prompt shares one pool of `jobs`
    requests; answers keep prompt order, so `jobs` never changes them.
    """
    _check_jobs(jobs)
    asked = [
        (attr, segment.text())
        for kind, attributes in (
            ("numeric", NUMERIC_ATTRIBUTES),
            ("boolean", BOOLEAN_ATTRIBUTES),
        )
        for attr in attributes
        for segment in build_prompts(description, kind, attribute=attr).segments
    ]
    answers = _fan_out(client.complete, [prompt for _, prompt in asked], jobs)
    return extract_attributes([LabeledResponse(a, t) for (a, _), t in zip(asked, answers)])


def load_attributes(cfg: RunConfig) -> FrontendAttributes:
    if cfg.attrs_path is not None:
        try:
            return FrontendAttributes.from_json(read_json(cfg.attrs_path))
        except ValueError as err:
            raise ValueError(f"{cfg.attrs_path}: {err}") from None
    description = cfg.description_path.read_text()
    client = LlmClient(url=cfg.llm_url)
    return extract_from_description(description, client, jobs=cfg.jobs)


def audit_contract(cfg: RunConfig, backends: dict | None = None) -> InconsistencyReport:
    """Audit one contract; `backends` holds its run's chain backends by (mock, RPC)."""
    backends = {} if backends is None else backends
    analysis = analyze_ir(cfg.ir_path.read_text(), cfg.limits)
    if cfg.facts_dump is not None:
        dump_facts(analysis.db, cfg.facts_dump)
    attrs = load_attributes(cfg)
    key = (cfg.chain_mock, cfg.chain_rpc)
    with _BACKENDS_LOCK:
        if key not in backends:
            backends[key] = chain_backend(cfg)
    report = detect_all(
        attrs,
        analysis.semantics,
        backends[key],
        strict_supply_check=cfg.strict_supply_check,
    )
    if cfg.out_path is not None:
        rendered = report.render()
        try:
            cfg.out_path.write_text(rendered)
        except FileNotFoundError:
            cfg.out_path.parent.mkdir(parents=True, exist_ok=True)
            cfg.out_path.write_text(rendered)
    return report


def expand_directory(
    ir_dir: Path, out_dir: Path, **common
) -> tuple[RunConfig, ...]:
    """Per-contract configs for every *.ir under ir_dir, pairing each with
    its <name>.attrs.json sidecar and a report path under out_dir. Shared
    settings (chain backend, limits, strict mode) pass through `common`."""
    if common.get("facts_dump") is not None:
        raise ConfigError("--facts-dump takes a single IR file, not a directory")
    ir_files = sorted(ir_dir.glob("*.ir"))
    if not ir_files:
        raise ConfigError(f"no .ir files under {ir_dir}")
    # Endpoint fan-out is a single-contract concern.
    common = {**common, "jobs": 1}
    configs = []
    for ir in ir_files:
        sidecar = ir.with_suffix(".attrs.json")
        if not sidecar.exists():
            raise ConfigError(f"missing attributes sidecar: {sidecar}")
        configs.append(
            RunConfig(
                ir_path=ir,
                attrs_path=sidecar,
                out_path=out_dir / f"{ir.stem}.report.json",
                **common,
            )
        )
    return tuple(configs)


def audit_many(
    configs: tuple[RunConfig, ...], jobs: int = 1
) -> list[InconsistencyReport]:
    """Audit each config; report order follows config order regardless of
    jobs, and every config names its own output path, so parallel runs
    are byte-identical to sequential ones.  Each chain backend is built
    once per run, where the first config naming it needs it, under a lock."""
    _check_jobs(jobs)
    backends: dict = {}
    return _fan_out(lambda c: audit_contract(c, backends), configs, jobs)


def checkpoint_dump(analysis: ContractAnalysis) -> dict:
    """JSON-ready view of every checkpoint the plan asked for."""
    selectors = []
    for sel, res in zip(analysis.plan.selectors(), analysis.executions):
        selectors.append(
            {
                "selector": sel,
                "budget_exceeded": res.budget_exceeded,
                "states_explored": res.states_explored,
                "checkpoints": [
                    {
                        "checkpoint": cp.checkpoint,
                        "opcode": cp.opcode,
                        "feasibility": cp.feasibility.value,
                        "args": [render(a) for a in cp.args],
                    }
                    for cp in res.checkpoints
                ],
            }
        )
    return {"contract": analysis.program.address, "selectors": selectors}
