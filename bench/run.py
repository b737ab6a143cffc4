"""Audit benchmark: end-to-end and per-layer metrics of the dappaudit pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

It builds nothing: it imports `dappaudit` from `src/` of the checkout and
drives it from outside as a closed loop (one process, one caller, jobs=1).
The seed makes the workload's IR files; the program only sees those files,
the corpus attributes files and `tests/fixtures/chain.json`.  Every report is
checked against the corpus's expected finding types and against the bytes
of the first pass.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
traced and untraced passes in turn and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
metadata.  The metadata, and with `--trace 1` every span, are also written
to `.bench_out/` in the checkout.  See bench/README.md for what each metric
means and which layer is expected to move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "fixtures" / "corpus"
CHAIN = ROOT / "tests" / "fixtures" / "chain.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Fresh interpreters started per run to time set-up, paced evenly over the
# run like the latency samples; the median is reported.  Started together
# at the beginning, they all met one host state, and over ten runs of the
# corpus workload the median ranged from 0.32 to 0.56 s.
SETUP_REPEATS = 12
# Timed rounds per run even when one round outlasts --seconds.
MIN_ROUNDS = 3
# The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10
# Every run takes exactly LATENCY_PER_CONTRACT latency samples of each
# contract, one at a time, rotating through the workload.  They follow the
# throughput passes, paced evenly over the run, so one slow spell of the
# host reaches few of them; any still due at the end are taken then.  With
# 14 contracts and 7 samples each, the 10 samples beyond the tail are the
# slowest contract's 7 and 3 of the next one's, so the tail falls inside a
# contract's samples.  With 5 each it fell exactly between two contracts
# and jumped from one to the other between runs.
LATENCY_PER_CONTRACT = 7
# The host's speed switches between states up to 2x apart, some lasting
# seconds and some minutes, and every timing moves with it.  A fixed
# pure-Python probe that shares no code with the program runs before each
# timed unit: a pass or a latency sample.  Each unit's time is multiplied
# by REFERENCE_PROBE_S over the median of the probes around it, so every
# reported time is the one a host would give on which the probe takes
# REFERENCE_PROBE_S.  A change to the program moves the unit and not the
# probe.  Unscaled values go to the metadata.
REFERENCE_PROBE_S = 0.007

_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import dappaudit.cli
from dappaudit.chain import MockChain
MockChain.from_file(sys.argv[2])
print("ready", flush=True)
"""

END_TO_END_UNITS = {
    "contracts_per_s": "1/s",
    "contract_ms.p50": "ms",
    "contract_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, source).  An "ms" source is a span name, whose
# self time is taken; any other is a count read from returned objects.  Both
# are totals for one pass over the workload's contracts; the median over the
# traced passes is reported.
PER_LAYER = {
    "parser.ms": ("ms", "parser"),
    "parser.stmts": ("count", "parser.stmts"),
    "facts.base_ms": ("ms", "facts.base"),
    "facts.closure_ms": ("ms", "facts.closure"),
    "facts.dataflow_pairs": ("count", "facts.dataflow_pairs"),
    "inference.transfers_ms": ("ms", "inference.transfers"),
    "inference.guards_ms": ("ms", "inference.guards"),
    "inference.roles_ms": ("ms", "inference.roles"),
    "inference.guards": ("count", "inference.guards"),
    "inference.roles": ("count", "inference.roles"),
    "graphs.ftg_ms": ("ms", "graphs.ftg"),
    "graphs.sdg_ms": ("ms", "graphs.sdg"),
    "graphs.plan_ms": ("ms", "graphs.plan"),
    "graphs.ftg_edges": ("count", "graphs.ftg_edges"),
    "graphs.checkpoints": ("count", "graphs.checkpoints"),
    "executor.ms": ("ms", "executor"),
    "executor.states": ("count", "executor.states"),
    "executor.checkpoints": ("count", "executor.checkpoints"),
    "executor.budget_hits": ("count", "executor.budget_hits"),
    "semantics.ms": ("ms", "semantics"),
    "semantics.rendered_chars": ("chars", "semantics.rendered_chars"),
    "detector.ms": ("ms", "detector"),
    "detector.render_ms": ("ms", "detector.render"),
    "detector.findings": ("count", "detector.findings"),
    "report.bytes": ("bytes", "report.bytes"),
    "claims.ms": ("ms", "claims"),
    "chain.load_ms": ("ms", "chain.load"),
    "chain.reads": ("count", "chain.reads"),
    "chain.read_ms": ("ms", "chain.read"),
    "pipeline.io_ms": ("ms", "pipeline.io"),
}
RATIOS = ("executor.feasible_ratio", "trace.overhead_ratio")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _ensure_checkout() -> None:
    for path in (SRC / "dappaudit" / "pipeline.py", CHAIN, CORPUS):
        if not path.exists():
            raise BenchError(f"{path.relative_to(ROOT)} not found: run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- host speed ------------------------------------------------------------


class _ProbeNode:
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple):
        self.op = op
        self.args = args


def _probe_work() -> int:
    """Fixed work of the kinds the pipeline does most: tuple keys, dict and
    set updates, small objects, f-strings and a keyed sort."""
    facts: dict[tuple, set] = {}
    nodes = []
    acc = 0
    for i in range(2500):
        key = (i % 61, f"v{i % 13}")
        facts.setdefault(key, set()).add(i % 29)
        node = _ProbeNode("ADD" if i & 1 else "SUB", (i, key))
        nodes.append(node)
        acc += len(f"{node.op} {i}".split())
    order = sorted(facts, key=lambda k: (len(facts[k]), k))
    return acc + len(order) + len(nodes)


class HostSpeed:
    """Probe times taken between timed units.  The unit timed right after
    probe i is scaled by the probes i-1 to i+2, so call `probe` once more
    after the last unit."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> int:
        """Time the probe once; returns its index."""
        gc.disable()  # the program's heap must not slow the probe
        try:
            start = time.perf_counter()
            _probe_work()
            self.probes.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return len(self.probes) - 1

    def factor(self, i: int) -> float:
        """Multiplier from the unit after probe i to reference host speed."""
        return REFERENCE_PROBE_S / statistics.median(self.probes[max(0, i - 1) : i + 3])


# -- measurements ----------------------------------------------------------


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    CLI and loaded the mock chain."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(CHAIN)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"set-up child failed with exit code {code}")
    return elapsed


def tail_of(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least TAIL_BEYOND samples beyond it.  Too few samples for that to lie
    above the median (only in very short runs) give the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based: exactly TAIL_BEYOND samples above it
    return ordered[rank - 1], 100.0 * rank / n


class Checker:
    """Counts audits and failures.  An audit fails if it raises, if its
    finding types differ from the expected list, or if its report bytes
    differ from those of the first pass."""

    def __init__(self, expected: dict[str, list[str]]):
        self.expected = expected
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, report, rendered: bytes) -> None:
        self.attempted += 1
        types = [f.type for f in report.findings]
        ref = self.reference.setdefault(name, rendered)
        if types != self.expected.get(name) or rendered != ref:
            self.failed += 1

    def raised(self) -> None:
        self.attempted += 1
        self.failed += 1

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _name(cfg) -> str:
    return cfg.ir_path.name[: -len(".ir")]


def _clear_reports(configs) -> None:
    """Remove last pass's reports, so every pass writes new files.  On
    ext4, truncating and rewriting a file forces its writeback on close,
    which stalls the writer for milliseconds at random; that stall would
    swamp the corpus workload's tail."""
    for cfg in configs:
        cfg.out_path.unlink(missing_ok=True)


def many_pass(configs, checker: Checker) -> float:
    """One `audit_many` pass; returns its seconds."""
    from dappaudit.pipeline import audit_many

    _clear_reports(configs)
    gc.collect()
    start = time.perf_counter()
    try:
        reports = audit_many(configs, jobs=1)
    except Exception:
        for _ in configs:
            checker.raised()
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    for cfg, report in zip(configs, reports):
        checker.check(_name(cfg), report, cfg.out_path.read_bytes())
    return elapsed


def contract_pass(configs, checker: Checker) -> list[float]:
    """`audit_contract` per config; returns each call's milliseconds."""
    from dappaudit.pipeline import audit_contract

    _clear_reports(configs)
    gc.collect()
    times = []
    for cfg in configs:
        start = time.perf_counter()
        try:
            report = audit_contract(cfg)
        except Exception:
            checker.raised()
            continue
        times.append((time.perf_counter() - start) * 1e3)
        checker.check(_name(cfg), report, cfg.out_path.read_bytes())
    return times


def traced_pass(configs, checker: Checker):
    """The traced copy of the pipeline over every config; returns the
    pass's seconds and its Trace."""
    from traced import Trace, traced_audit

    trace = Trace()
    _clear_reports(configs)
    gc.collect()
    start = time.perf_counter()
    for cfg in configs:
        try:
            report, rendered = traced_audit(cfg, trace)
        except Exception:
            checker.raised()
            continue
        checker.check(_name(cfg), report, rendered.encode())
    return time.perf_counter() - start, trace


def run_end_to_end(configs, checker: Checker, seconds: float) -> tuple[dict, dict]:
    """Throughput passes, each followed by its share of latency samples and
    set-up starts, a probe before each pass and sample; returns the
    end-to-end metrics and run metadata."""
    # Set-up is not scaled: the start of a fresh interpreter did not speed
    # up when the host did, and a probe just after a child exits runs up
    # to 4x slow.
    setup: list[float] = []
    speed = HostSpeed()
    throughput: list[tuple[int, float]] = []
    latency: list[tuple[int, float]] = []
    start = time.perf_counter()
    setup_spent = 0.0  # set-up starts do not use up the run's --seconds
    rounds = sampled = 0
    total = LATENCY_PER_CONTRACT * len(configs)

    def start_interpreter() -> None:
        nonlocal setup_spent
        begin = time.perf_counter()
        setup.append(measure_setup())
        setup_spent += time.perf_counter() - begin

    def take_sample() -> None:
        nonlocal sampled
        i = speed.probe()
        latency.extend((i, ms) for ms in contract_pass([configs[sampled % len(configs)]], checker))
        sampled += 1

    while True:
        elapsed = time.perf_counter() - start - setup_spent
        if rounds >= MIN_ROUNDS and elapsed >= seconds:
            break
        i = speed.probe()
        throughput.append((i, len(configs) / many_pass(configs, checker)))
        share = min(1.0, elapsed / seconds)
        while sampled < total * share:
            take_sample()
        while len(setup) < SETUP_REPEATS * share:
            start_interpreter()
        rounds += 1
    while sampled < total:
        take_sample()
    while len(setup) < SETUP_REPEATS:
        start_interpreter()
    speed.probe()
    if not latency:
        raise BenchError("every audit raised")
    scaled_latency = [ms * speed.factor(i) for i, ms in latency]
    tail, pct = tail_of(scaled_latency)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "contracts_per_s": statistics.median(cps / speed.factor(i) for i, cps in throughput),
        "contract_ms.p50": statistics.median(scaled_latency),
        "contract_ms.tail": tail,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    meta = {
        "rounds": rounds,
        "latency_samples": len(latency),
        "tail_percentile": round(pct, 3),
        "setup_samples_s": setup,
        "host_probe_ms": _probe_summary(speed),
        "unscaled": {
            "contracts_per_s": statistics.median(cps for _, cps in throughput),
            "contract_ms.p50": statistics.median(ms for _, ms in latency),
            "contract_ms.tail": tail_of([ms for _, ms in latency])[0],
        },
    }
    return metrics, meta


def _probe_summary(speed: HostSpeed) -> dict:
    ms = sorted(p * 1e3 for p in speed.probes)
    return {
        "reference": REFERENCE_PROBE_S * 1e3,
        "min": ms[0],
        "median": statistics.median(ms),
        "max": ms[-1],
        "count": len(ms),
    }


def run_traced(configs, checker: Checker, seconds: float) -> tuple[dict, dict, list]:
    """Untraced and traced passes in turn; returns the per-layer metrics,
    run metadata with each layer's share of layer time, and the spans."""
    from traced import LAYER_OF_SPAN

    speed = HostSpeed()
    plain: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []
    traces = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        i = speed.probe()
        plain.append((i, many_pass(configs, checker)))
        i = speed.probe()
        elapsed, trace = traced_pass(configs, checker)
        traced.append((i, elapsed))
        traces.append(trace)
        rounds += 1
    speed.probe()

    per_pass = [
        {span: ms * speed.factor(i) for span, ms in t.self_ms().items()}
        for (i, _), t in zip(traced, traces)
    ]
    counts = traces[0].counts
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if unit == "ms":
            metrics[name] = statistics.median(p.get(source, 0.0) for p in per_pass)
        else:
            metrics[name] = counts.get(source, 0.0)
    cps = counts.get("executor.checkpoints", 0.0)
    metrics["executor.feasible_ratio"] = (
        counts.get("executor.feasible_checkpoints", 0.0) / cps if cps else 1.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        t * speed.factor(i) for i, t in traced
    ) / statistics.median(t * speed.factor(i) for i, t in plain)

    layer_ms: dict[str, float] = {}
    for p in per_pass:
        for span, ms in p.items():
            layer = LAYER_OF_SPAN[span]
            layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
    total = sum(layer_ms.values())
    meta = {
        "rounds": rounds,
        "layer_share": {
            k: round(v / total, 4) for k, v in sorted(layer_ms.items(), key=lambda kv: -kv[1])
        },
        "counts_repeat": all(t.counts == counts for t in traces),
        "host_probe_ms": _probe_summary(speed),
    }
    spans = [{"pass": i, **s} for i, t in enumerate(traces) for s in t.to_json()]
    return metrics, meta, spans


# -- metadata --------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_facts() -> dict:
    """Line count and content hash of the Python sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


# -- entry point -----------------------------------------------------------


def prepare(workload, seed: int, work_dir: Path):
    """Write the workload's inputs and return (configs, expected, sizes)."""
    from dappaudit.parser import parse_ir
    from dappaudit.pipeline import RunConfig
    from workloads import CORPUS_EXPECTED, write_workload

    write_workload(CORPUS, work_dir, workload, seed)
    names = sorted(CORPUS_EXPECTED)
    # The seed also fixes the audit order, so the corpus workload varies too.
    random.Random(f"order:{seed}").shuffle(names)
    configs = tuple(
        RunConfig(
            ir_path=work_dir / f"{n}.ir",
            attrs_path=work_dir / f"{n}.attrs.json",
            chain_mock=CHAIN,
            out_path=work_dir / "reports" / f"{n}.report.json",
        )
        for n in names
    )
    sizes = {
        n: sum(1 for _ in parse_ir((work_dir / f"{n}.ir").read_text()).statements())
        for n in sorted(names)
    }
    return configs, CORPUS_EXPECTED, sizes


def run(workload_name: str, seed: int, seconds: float, trace: bool, expected=None) -> dict:
    """One benchmark run; returns the result line plus metadata.  A given
    `expected` table replaces the corpus one (used to test the checker)."""
    _ensure_checkout()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        configs, table, sizes = prepare(workload, seed, work_dir)
        checker = Checker(expected if expected is not None else table)
        many_pass(configs, checker)  # warm-up; sets the reference bytes
        if trace:
            metrics, meta, spans = run_traced(configs, checker, seconds)
            units = {n: u for n, (u, _) in PER_LAYER.items()}
            units.update({r: "ratio" for r in RATIOS})
        else:
            metrics, meta = run_end_to_end(configs, checker, seconds)
            spans = None
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    meta.update(
        workload=workload_name,
        why=workload.why,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        contracts=len(configs),
        stmts_per_contract=sizes,
        failed_ratio=checker.failed_ratio,
        commit=_git_commit(),
        **source_facts(),
        **machine_facts(),
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    return {"result": result, "meta": meta, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _ensure_checkout()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**out["result"], "meta": out["meta"]}, indent=1))
    if out["spans"] is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(out["spans"]))
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
