"""Tests of the benchmark itself: the seeded generator, the checker, the
traced copy of the pipeline and the shape of a run's output.

Run from the repository root:

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import run as bench  # noqa: E402  (bench/ is on sys.path as the test's directory)
import workloads  # noqa: E402

bench._ensure_checkout()

from dappaudit.parser import parse_ir  # noqa: E402
from dappaudit.pipeline import audit_contract, audit_many  # noqa: E402
from traced import Trace, traced_audit  # noqa: E402

# Small versions of each planted shape, for the slower checks.
SMALL = {
    "corpus": workloads.WORKLOADS["corpus"],
    "scaled": dataclasses.replace(workloads.WORKLOADS["scaled"], filler_stmts=61),
    "branchy": dataclasses.replace(workloads.WORKLOADS["branchy"], branchy_k=3),
    "deep_expr": dataclasses.replace(workloads.WORKLOADS["deep_expr"], deep_n=4),
}


def _base(name: str = "staking_rewards") -> str:
    return (bench.CORPUS / f"{name}.ir").read_text()


def _count(text: str, prefix: str) -> int:
    program = parse_ir(text)
    return sum(1 for fn, _, _ in program.statements() if fn.name.startswith(prefix))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_bytes(name):
    w = workloads.WORKLOADS[name]
    first = workloads.build_contract(_base(), w, random.Random(7))
    again = workloads.build_contract(_base(), w, random.Random(7))
    assert first == again
    if name != "corpus":
        other = workloads.build_contract(_base(), w, random.Random(8))
        assert other != first


@pytest.mark.parametrize("n", [1, 7, 49, 50, 51, 137, 500, 1000])
def test_filler_statement_count_is_exact(n):
    w = workloads.Workload("filler", "", filler_stmts=n)
    text = workloads.build_contract(_base(), w, random.Random(n))
    assert _count(text, "bench_fill") == n
    base = parse_ir(_base())
    assert sum(1 for _ in parse_ir(text).statements()) == n + sum(1 for _ in base.statements())


def test_planted_shapes_have_their_sizes():
    w = workloads.Workload("shapes", "", branchy_fns=3, branchy_k=5, deep_n=6)
    program = parse_ir(workloads.build_contract(_base(), w, random.Random(1)))
    for j in range(3):
        fn = program.function(f"bench_refund{j}")
        assert len(fn.params) == 5
        assert sum(b.terminator.kind.value == "jumpi" for b in fn.blocks) == 5
    deep = program.function("bench_refund_deep")
    adds = [s for b in deep.blocks for s in b.statements if s.opcode.value == "ADD"]
    assert len(adds) == 6
    assert all(s.args[0] == s.args[1] for s in adds)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_corpus_contract_parses_at_benchmark_size(name, tmp_path):
    # Parsing validates that SSA names are unique program-wide.
    workloads.write_workload(bench.CORPUS, tmp_path, workloads.WORKLOADS[name], 3)
    for ir in sorted(tmp_path.glob("*.ir")):
        parse_ir(ir.read_text())


@pytest.mark.parametrize("name", ["scaled", "branchy", "deep_expr"])
def test_planted_workloads_keep_corpus_finding_types(name, tmp_path):
    configs, expected, _ = bench.prepare(workloads.WORKLOADS[name], 5, tmp_path)
    for cfg, report in zip(configs, audit_many(configs)):
        stem = cfg.ir_path.name[: -len(".ir")]
        assert [f.type for f in report.findings] == expected[stem], stem
        assert not report.budget_exceeded, stem


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_copy_writes_the_same_bytes(name, tmp_path):
    configs, _, _ = bench.prepare(SMALL[name], 2, tmp_path)
    trace = Trace()
    for cfg in configs:
        audit_contract(cfg)
        plain = cfg.out_path.read_bytes()
        cfg.out_path.unlink()
        _, rendered = traced_audit(cfg, trace)
        assert rendered.encode() == plain == cfg.out_path.read_bytes()
    assert trace.audit_id == len(configs)
    assert {s[0] for s in trace.spans} >= set(bench.PER_LAYER[m][1] for m in (
        "parser.ms", "facts.base_ms", "executor.ms", "semantics.ms", "detector.ms"))


def test_wrong_expected_list_makes_failed_ratio_nonzero():
    wrong = {k: list(v) for k, v in workloads.CORPUS_EXPECTED.items()}
    wrong["team_lock"] = []
    out = bench.run("corpus", 1, 0.2, trace=False, expected=wrong)
    assert out["result"]["failed"] > 0
    assert out["result"]["correct"] is False
    assert out["meta"]["failed_ratio"] > 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = bench.tail_of([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert bench.tail_of([float(i) for i in range(12)]) == (11.0, 100.0)


def test_host_speed_scales_by_the_probes_around_a_unit():
    speed = bench.HostSpeed()
    speed.probes = [0.007, 0.014, 0.014, 0.014, 0.0035, 0.0035]
    assert speed.factor(0) == pytest.approx(0.5)  # probes 0-2
    assert speed.factor(2) == pytest.approx(0.5)  # probes 1-4
    assert speed.factor(4) == pytest.approx(2.0)  # probes 3-5
    assert speed.probe() == 6 and speed.probes[6] > 0


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_emits_every_metric(trace, section):
    proc = _run_cli(ROOT, "--workload", "corpus", "--seed", "1", "--seconds", "0.3",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name in declared:
        assert isinstance(result["metrics"][name]["value"], (int, float))
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    for key in ("nproc", "cpu", "python", "commit", "seed", "src_lines",
                "contracts", "stmts_per_contract", "why", "failed_ratio", "host_probe_ms"):
        assert key in meta
    if trace == "0":
        assert meta["latency_samples"] == bench.LATENCY_PER_CONTRACT * meta["contracts"]
        assert set(meta["unscaled"]) == {"contracts_per_s", "contract_ms.p50", "contract_ms.tail"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
