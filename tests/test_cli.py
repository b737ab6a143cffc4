"""Command-line interface tests: exit codes, report output, directory
mode, relation dumps, checkpoint dumps, and description extraction."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dappaudit import cli, pipeline
from dappaudit.chain import MockChain, RpcChain
from dappaudit.cli import main
from dappaudit.executor import MAX_EXPR_NODES, Limits
from dappaudit.llm import LlmClient
from dappaudit.pipeline import (
    ConfigError,
    RunConfig,
    audit_contract,
    audit_many,
    chain_backend,
    expand_directory,
)
from dappaudit.transport import ATTEMPTS, MAX_REPLY_BYTES

from helpers import ADDR, counted_loop_text, doubling_chain_text, local_endpoint, padded

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


AUDIT_IR = f"""contract {ADDR}
function deposit public sig 0x01020304 params () {{
  block D0:
    0: v1 = CALLVALUE
    1: v2 = SLOAD 1
    2: v3 = MUL v1 v2
    3: v4 = DIV v3 0x64
    4: vw = CONST 0xbeef
    5: CALL vw v4
    6: v5 = SUB v1 v4
    7: vc = CALLER
    8: CALL vc v5
    stop
}}
function setFee public sig 0x00000031 params (vx) {{
  block S0:
    0: vo = SLOAD 0
    1: vc2 = CALLER
    2: veq = EQ vo vc2
    jumpi veq S1 S2
  block S1:
    0: SSTORE 1 vx
    stop
  block S2:
    revert
}}
"""

INCONSISTENT_ATTRS = {"reward_rate_percent": 3, "fee_claimed": False}
CONSISTENT_ATTRS = {"fee_claimed": True, "fee_rate_percent": 5}
CHAIN_DOC = {ADDR: {"storage": {"0x1": "0x5"}}}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "contract.ir").write_text(AUDIT_IR)
    (tmp_path / "attrs.json").write_text(json.dumps(INCONSISTENT_ATTRS))
    (tmp_path / "clean.attrs.json").write_text(json.dumps(CONSISTENT_ATTRS))
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN_DOC))
    return tmp_path


def _audit_args(workdir, attrs="attrs.json", extra=()):
    return [
        "audit",
        "--ir", str(workdir / "contract.ir"),
        "--attrs", str(workdir / attrs),
        "--chain-mock", str(workdir / "chain.json"),
        *extra,
    ]


# ---------------------------------------------------------------------------
# audit: single contract


def test_audit_reports_findings_to_stdout(workdir, capsys):
    assert main(_audit_args(workdir)) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["contract"] == ADDR
    assert [f["type"] for f in doc["findings"]] == ["UR", "HF"]
    assert doc["findings"][1]["computed_rate"] == "5/100"


def test_audit_clean_twin_exits_zero(workdir, capsys):
    assert main(_audit_args(workdir, attrs="clean.attrs.json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == []


def test_audit_report_file_is_byte_identical_across_runs(workdir, capsys):
    out = workdir / "report.json"
    assert main(_audit_args(workdir, extra=("--out", str(out)))) == 1
    assert capsys.readouterr().out == ""
    first = out.read_bytes()
    assert main(_audit_args(workdir, extra=("--out", str(out)))) == 1
    assert out.read_bytes() == first
    assert json.loads(first)["findings"]


def test_audit_missing_ir_names_the_path(workdir, capsys):
    args = _audit_args(workdir)
    args[2] = str(workdir / "no" / "such.ir")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "such.ir" in err
    assert err.startswith("error:")


def test_audit_of_a_negative_slot_exits_two(workdir, capsys):
    # int() alone would read "-1" as a slot and report findings on it.
    (workdir / "contract.ir").write_text(
        f"contract {ADDR}\n"
        "function f public sig 0x01020304 params () {\n"
        "  block B0:\n"
        "    0: v1 = SLOAD -1\n"
        "    1: v2 = CALLVALUE\n"
        "    2: v3 = ADD v1 v2\n"
        "    3: SSTORE -1 v3\n"
        "    stop\n"
        "}\n"
    )
    assert main(_audit_args(workdir)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "bad operand '-1'" in err
    assert len(err.splitlines()) == 1


def test_audit_requires_a_claim_source(workdir, capsys):
    args = ["audit", "--ir", str(workdir / "contract.ir"),
            "--chain-mock", str(workdir / "chain.json")]
    assert main(args) == 2
    assert "exactly one" in capsys.readouterr().err


def test_audit_rejects_both_claim_sources(workdir):
    args = _audit_args(workdir, extra=("--description", str(workdir / "attrs.json")))
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_audit_rejects_malformed_attrs(workdir, capsys):
    (workdir / "bad.json").write_text("{not json")
    assert main(_audit_args(workdir, attrs="bad.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_rejects_unknown_attr_keys(workdir, capsys):
    (workdir / "extra.json").write_text(json.dumps({"fee_claimed": True, "bogus": 1}))
    assert main(_audit_args(workdir, attrs="extra.json")) == 2
    assert "bogus" in capsys.readouterr().err


def test_audit_rejects_mistyped_attr_value(workdir, capsys):
    (workdir / "typed.json").write_text(json.dumps({"lock_time_seconds": "100"}))
    assert main(_audit_args(workdir, attrs="typed.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lock_time_seconds" in err
    assert len(err.splitlines()) == 1


def test_fee_rate_without_fee_claimed_is_a_disclosure(tmp_path, capsys):
    # A stated rate discloses a fee, as a description stating one does.
    fixtures = Path(__file__).parent / "fixtures"
    outputs = []
    for name, doc in (
        ("rate_only", {"fee_rate_percent": 5}),
        ("claimed", {"fee_claimed": True, "fee_rate_percent": 5}),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        args = [
            "audit",
            "--ir", str(fixtures / "corpus" / "fee_forwarder.ir"),
            "--attrs", str(tmp_path / f"{name}.json"),
            "--chain-mock", str(fixtures / "chain.json"),
        ]
        assert main(args) == 0, name
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["findings"] == []


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"fee_claimed": true "x": 1}', "Expecting ',' delimiter"),
        (
            '{"fee_claimed": true, "fee_rate_percent": 5, "fee_rate_percent": 3}',
            "duplicate key 'fee_rate_percent'",
        ),
    ],
    ids=["malformed", "repeated key"],
)
def test_bad_attrs_file_error_names_the_file(workdir, capsys, text, reason):
    (workdir / "bad.json").write_text(text)
    assert main(_audit_args(workdir, attrs="bad.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir / 'bad.json'}: {reason}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "storage, key",
    [({"0x1": "0x5", "0x01": "0x9"}, "'0x01'"), ({"0x01": "0x9", "0x1": "0x5"}, "'0x1'")],
)
def test_mock_file_naming_one_slot_twice_exits_two(workdir, capsys, storage, key):
    (workdir / "chain.json").write_text(json.dumps({ADDR: {"storage": storage}}))
    assert main(_audit_args(workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir / 'chain.json'}: ") and key in err
    assert len(err.splitlines()) == 1


def test_audit_rejects_mock_file_that_is_not_an_object(workdir, capsys):
    (workdir / "chain.json").write_text("[]")
    assert main(_audit_args(workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_audit_ir_syntax_error_exits_two(workdir, capsys):
    (workdir / "contract.ir").write_text("contract 0xzz\n")
    assert main(_audit_args(workdir)) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_facts_dump_writes_relations(workdir, capsys):
    dump = workdir / "relations"
    assert main(_audit_args(workdir, extra=("--facts-dump", str(dump)))) == 1
    assert (dump / "dataflow.tsv").exists()
    assert len(list(dump.glob("*.tsv"))) >= 5


def test_audit_budget_cutoff_lands_in_metadata(workdir, capsys):
    # A fork ahead of the transfer leaves successors queued, so a
    # one-state budget cuts exploration before any checkpoint.
    (workdir / "contract.ir").write_text(f"""contract {ADDR}
function pay public sig 0x01020304 params (vamt) {{
  block P0:
    0: vg = GT vamt 0x5
    jumpi vg P1 P2
  block P1:
    0: vc = CALLER
    1: CALL vc vamt
    stop
  block P2:
    revert
}}
""")
    assert main(_audit_args(workdir, extra=("--max-states", "1"))) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == []
    assert doc["metadata"] == {"symbolic_budget_exceeded": True}


@pytest.mark.parametrize("k, flagged", [(3, False), (4, True)])
def test_audit_loop_bound_cut_lands_in_metadata(workdir, capsys, k, flagged):
    # For k = 4 loop bounding cuts the only path before the transfer.
    (workdir / "contract.ir").write_text(counted_loop_text(k))
    assert main(_audit_args(workdir, attrs="clean.attrs.json")) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    want = {"symbolic_budget_exceeded": True} if flagged else None
    assert doc.get("metadata") == want


def test_audit_expression_budget_lands_in_metadata(workdir, capsys):
    # The amount's tree has 2**65 - 1 nodes; past MAX_EXPR_NODES the
    # executor binds an opaque leaf instead and flags the cutoff.
    (workdir / "contract.ir").write_text(doubling_chain_text(64))
    start = time.perf_counter()
    assert main(_audit_args(workdir, attrs="clean.attrs.json")) in (0, 1)
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"] == {"symbolic_budget_exceeded": True}


def test_symexec_keeps_values_under_the_expression_budget(workdir, capsys):
    # 15 doublings make 65,535 tree nodes, the most that still fits.
    assert 2**16 - 1 <= MAX_EXPR_NODES
    (workdir / "contract.ir").write_text(doubling_chain_text(15))
    assert main(["symexec", "--ir", str(workdir / "contract.ir")]) == 0
    (sel,) = json.loads(capsys.readouterr().out)["selectors"]
    assert sel["budget_exceeded"] is False
    (cp,) = sel["checkpoints"]
    assert cp["args"][1].count("callvalue") == 2**15


def _guarded_transfer_ir(chain, cond):
    """One function that runs `chain`, then transfers only if `cond`."""
    lines = [
        f"contract {ADDR}",
        "function pay public sig 0x01020304 params (vx) {",
        "  block P0:",
        *chain,
        f"    jumpi {cond} P1 P2",
        "  block P1:",
        "    0: vw = CALLER",
        "    1: CALL vw vx",
        "    stop",
        "  block P2:",
        "    revert",
        "}",
    ]
    return "\n".join(lines) + "\n"


def test_audit_guard_over_a_long_linear_chain(workdir, capsys):
    # The guard's constraint is a 1200-deep ADD chain; checking it
    # concretely must not exhaust the interpreter's recursion limit.
    n = 1200
    chain = ["    0: v0 = CALLVALUE"]
    chain += [f"    {i}: v{i} = ADD v{i - 1} 1" for i in range(1, n + 1)]
    chain += [f"    {n + 1}: vlt = LT v{n} 5"]
    (workdir / "contract.ir").write_text(_guarded_transfer_ir(chain, "vlt"))
    assert main(_audit_args(workdir, attrs="clean.attrs.json")) in (0, 1)
    out = capsys.readouterr()
    assert json.loads(out.out)["contract"] == ADDR
    assert out.err == ""


def test_audit_guard_over_a_long_iszero_chain(workdir, capsys):
    # The guard is 1500 nested ISZEROs of a bound on the argument; folding
    # it into the feasibility intervals must not recurse once per level.
    n = 1500
    chain = ["    0: v0 = LT vx 5"]
    chain += [f"    {i}: v{i} = ISZERO v{i - 1}" for i in range(1, n + 1)]
    (workdir / "contract.ir").write_text(_guarded_transfer_ir(chain, f"v{n}"))
    assert main(_audit_args(workdir, attrs="clean.attrs.json")) in (0, 1)
    out = capsys.readouterr()
    assert json.loads(out.out)["contract"] == ADDR
    assert out.err == ""


def test_unexpected_exception_exits_two_with_one_line(workdir, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("layer\nfault")

    monkeypatch.setitem(cli._COMMANDS, "audit", broken)
    assert main(_audit_args(workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "RuntimeError" in err and "layer fault" in err
    assert len(err.splitlines()) == 1


def test_audit_runs_as_a_module(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "dappaudit.cli", *_audit_args(workdir)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["findings"]


# ---------------------------------------------------------------------------
# audit: directory mode


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hot.ir").write_text(AUDIT_IR)
    (corpus / "hot.attrs.json").write_text(json.dumps(INCONSISTENT_ATTRS))
    (corpus / "cold.ir").write_text(AUDIT_IR)
    (corpus / "cold.attrs.json").write_text(json.dumps(CONSISTENT_ATTRS))
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN_DOC))
    return tmp_path


def _dir_args(base, out, jobs=1):
    return [
        "audit",
        "--ir", str(base / "corpus"),
        "--chain-mock", str(base / "chain.json"),
        "--out", str(out),
        "--jobs", str(jobs),
    ]


def test_directory_audit_parallel_matches_sequential(corpus_dir, capsys):
    seq = corpus_dir / "seq"
    par = corpus_dir / "par"
    assert main(_dir_args(corpus_dir, seq, jobs=1)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["cold.ir: 0 finding(s)", "hot.ir: 2 finding(s)"]
    assert main(_dir_args(corpus_dir, par, jobs=3)) == 1
    for name in ("hot.report.json", "cold.report.json"):
        assert (seq / name).read_bytes() == (par / name).read_bytes()
    assert json.loads((seq / "cold.report.json").read_text())["findings"] == []


def test_parallel_audit_of_shared_expressions_matches_sequential(tmp_path):
    # Threads build and compare deeply shared expressions at once; the
    # reports must not depend on how they interleave.
    corpus = tmp_path / "corpus"
    shutil.copytree(Path(__file__).parent / "fixtures" / "corpus", corpus)
    attrs = corpus / "fee_forwarder_consistent.attrs.json"
    for n in (15, 40):
        (corpus / f"deep{n}.ir").write_text(doubling_chain_text(n))
        shutil.copy(attrs, corpus / f"deep{n}.attrs.json")
    chain = Path(__file__).parent / "fixtures" / "chain.json"
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            audit_many(expand_directory(corpus, out, chain_mock=chain), jobs=jobs)
            runs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    finally:
        sys.setswitchinterval(interval)
    assert len(runs[1]) == 16
    assert runs[4] == runs[1]


def _counting_loads(monkeypatch) -> list[str]:
    loads: list[str] = []
    real = MockChain.from_file

    def counting(path):
        loads.append(path)
        time.sleep(0.01)  # a slow disk: other threads reach the build meanwhile
        return real(path)

    monkeypatch.setattr(MockChain, "from_file", staticmethod(counting))
    return loads


@pytest.mark.parametrize("jobs", [1, 4])
def test_directory_audit_loads_one_mock_file_once(tmp_path, monkeypatch, jobs):
    fixtures = Path(__file__).parent / "fixtures"
    chain = fixtures / "chain.json"
    configs = expand_directory(fixtures / "corpus", tmp_path / "many", chain_mock=chain)
    assert len(configs) == 14
    loads = _counting_loads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        audit_many(configs, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert loads == [str(chain)]
    # Each contract on its own loads the file itself; the bytes agree.
    for cfg in configs:
        single = tmp_path / "single" / cfg.out_path.name
        audit_contract(RunConfig(cfg.ir_path, cfg.attrs_path, chain_mock=chain, out_path=single))
        assert single.read_bytes() == cfg.out_path.read_bytes()
    assert len(loads) == 15


def test_directory_audit_loads_two_mock_files_once_each(tmp_path, monkeypatch):
    fixtures = Path(__file__).parent / "fixtures"
    chains = [tmp_path / "a.json", tmp_path / "b.json"]
    for chain in chains:
        shutil.copy(fixtures / "chain.json", chain)
    configs = [
        RunConfig(cfg.ir_path, cfg.attrs_path, chain_mock=chains[i % 2])
        for i, cfg in enumerate(expand_directory(fixtures / "corpus", tmp_path))
    ]
    loads = _counting_loads(monkeypatch)
    audit_many(tuple(configs), jobs=1)
    assert loads == [str(c) for c in chains]


def test_report_into_a_missing_nested_directory_is_written(workdir, capsys):
    out = workdir / "a" / "b" / "report.json"
    assert main(_audit_args(workdir, extra=("--out", str(out)))) == 1
    assert json.loads(out.read_text())["findings"]


def test_report_under_a_regular_file_exits_two(workdir, capsys):
    out = workdir / "attrs.json" / "report.json"
    assert main(_audit_args(workdir, extra=("--out", str(out)))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_import_leaves_the_http_stack_unloaded():
    # urllib.request pulls in http.client and ssl; only a request needs them.
    # Only a pool of more than one job needs concurrent.futures, and no
    # record is a dataclass, so neither dataclasses nor inspect loads.
    unloaded = {
        "urllib.request", "http.client", "ssl", "dataclasses", "inspect", "concurrent.futures"
    }
    probe = f"import sys, dappaudit.cli\nprint(sorted({unloaded!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_directory_audit_requires_out(corpus_dir, capsys):
    args = _dir_args(corpus_dir, corpus_dir / "x")
    args = args[: args.index("--out")]
    assert main(args) == 2
    assert "--out" in capsys.readouterr().err


def test_directory_audit_rejects_claim_flags(corpus_dir, capsys):
    args = _dir_args(corpus_dir, corpus_dir / "x")
    args += ["--attrs", str(corpus_dir / "corpus" / "hot.attrs.json")]
    assert main(args) == 2
    assert "sidecar" in capsys.readouterr().err


def test_directory_audit_rejects_facts_dump(corpus_dir, capsys):
    dump = corpus_dir / "dump"
    args = _dir_args(corpus_dir, corpus_dir / "x") + ["--facts-dump", str(dump)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--facts-dump" in err
    assert len(err.splitlines()) == 1
    assert not dump.exists()


def test_directory_audit_missing_sidecar(corpus_dir, capsys):
    (corpus_dir / "corpus" / "hot.attrs.json").unlink()
    assert main(_dir_args(corpus_dir, corpus_dir / "x")) == 2
    assert "hot.attrs.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# facts and symexec commands


def test_facts_command_writes_tsvs(workdir, capsys):
    out = workdir / "facts"
    args = ["facts", "--ir", str(workdir / "contract.ir"), "--out", str(out)]
    assert main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "dataflow.tsv") in printed
    assert all(Path(p).exists() for p in printed)


def test_symexec_command_dumps_checkpoints(workdir, capsys):
    args = ["symexec", "--ir", str(workdir / "contract.ir")]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contract"] == ADDR
    (entry,) = [s for s in doc["selectors"] if s["selector"] == "0x01020304"]
    sites = {cp["checkpoint"] for cp in entry["checkpoints"]}
    assert sites == {"deposit.D0.5", "deposit.D0.8"}
    for cp in entry["checkpoints"]:
        assert cp["feasibility"] in ("feasible", "unknown", "infeasible")
        assert all(isinstance(a, str) for a in cp["args"])


def test_symexec_rejects_nonpositive_limit(workdir, capsys):
    args = ["symexec", "--ir", str(workdir / "contract.ir"), "--max-states", "0"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "max_states" in err
    assert len(err.splitlines()) == 1


def test_symexec_selector_filter(workdir, capsys):
    args = ["symexec", "--ir", str(workdir / "contract.ir"),
            "--selector", "0xdeadbeef"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["selectors"] == []


# ---------------------------------------------------------------------------
# extract command


def _answer_no(body: bytes):
    assert "prompt" in json.loads(body)
    return 200, json.dumps({"text": "Answer: no."}).encode()


@pytest.fixture
def llm_server():
    with local_endpoint(_answer_no) as (url, _):
        yield url


def test_extract_command_queries_endpoint(tmp_path, llm_server, capsys):
    desc = tmp_path / "desc.txt"
    desc.write_text("A token with no promises at all.")
    args = ["extract", "--description", str(desc), "--endpoint", llm_server]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fee_claimed"] is False
    assert doc["reward_rate_percent"] is None
    assert set(doc) == {
        "reward_rate_percent", "fee_rate_percent", "fee_claimed",
        "lock_time_seconds", "total_supply", "pause_disclosed",
        "fund_flow_disclosed", "nft_permanence_claimed",
    }


def test_extract_uses_endpoint_env(tmp_path, llm_server, capsys, monkeypatch):
    monkeypatch.setenv("LLM_ENDPOINT_URL", llm_server)
    desc = tmp_path / "desc.txt"
    desc.write_text("A token with no promises at all.")
    assert main(["extract", "--description", str(desc)]) == 0
    assert json.loads(capsys.readouterr().out)["fee_claimed"] is False


def test_extract_without_endpoint_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT_URL", raising=False)
    desc = tmp_path / "desc.txt"
    desc.write_text("whatever")
    assert main(["extract", "--description", str(desc)]) == 2
    assert "error:" in capsys.readouterr().err


def test_extract_with_an_oversized_reply_exits_two(tmp_path, capsys, monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr(cli, "LlmClient", functools.partial(LlmClient, sleep=naps.append))
    reply = padded(json.dumps({"text": "Answer: no."}).encode(), MAX_REPLY_BYTES + 1)
    desc = tmp_path / "desc.txt"
    desc.write_text("A token with no promises at all.")
    with local_endpoint(lambda body: (200, reply)) as (url, log):
        assert main(["extract", "--description", str(desc), "--endpoint", url]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"reply longer than {MAX_REPLY_BYTES} bytes" in err
    assert len(log) == ATTEMPTS
    assert naps == [0.5, 1.0]


def test_audit_with_an_oversized_rpc_reply_leaves_vna_indeterminate(capsys, monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr(pipeline, "RpcChain", functools.partial(RpcChain, sleep=naps.append))
    reply = padded(b'{"jsonrpc": "2.0", "id": 1, "result": "0x0"}', MAX_REPLY_BYTES + 1)
    nft = CORPUS / "api_hosted_nft"
    with local_endpoint(lambda body: (200, reply)) as (url, log):
        args = [
            "audit",
            "--ir", str(nft.with_suffix(".ir")),
            "--attrs", str(nft.with_suffix(".attrs.json")),
            "--chain-rpc", url,
        ]
        assert main(args) == 1
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert (finding["type"], finding["status"]) == ("VNA", "indeterminate")
    assert len(log) == ATTEMPTS
    assert naps == [0.5, 1.0]


@pytest.mark.parametrize("command", ["audit", "extract"])
def test_zero_jobs_exits_two_before_any_work(corpus_dir, capsys, command):
    desc = corpus_dir / "desc.txt"
    desc.write_text("A token with no promises at all.")
    out = corpus_dir / "out"
    with local_endpoint(_answer_no) as (url, log):
        if command == "audit":
            args = [*_dir_args(corpus_dir, out, jobs=0), "--llm-endpoint", url]
        else:
            args = ["extract", "--description", str(desc), "--endpoint", url, "--jobs", "0"]
        assert main(args) == 2
    assert capsys.readouterr() == ("", "error: jobs must be positive\n")
    assert not out.exists()
    assert log == []


def test_audit_from_description_via_endpoint(workdir, llm_server, capsys):
    desc = workdir / "desc.txt"
    desc.write_text("Deposit and enjoy. Nothing is promised.")
    args = [
        "audit",
        "--ir", str(workdir / "contract.ir"),
        "--description", str(desc),
        "--llm-endpoint", llm_server,
        "--chain-mock", str(workdir / "chain.json"),
    ]
    # All-no answers: no reward claim (no UR), fee undisclosed (HF fires).
    assert main(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [f["type"] for f in doc["findings"]] == ["HF"]


# ---------------------------------------------------------------------------
# config plumbing


def test_chain_backend_prefers_mock_then_flag_then_env(tmp_path, monkeypatch):
    mock_path = tmp_path / "chain.json"
    mock_path.write_text(json.dumps(CHAIN_DOC))
    base = dict(ir_path=tmp_path / "c.ir", attrs_path=tmp_path / "a.json")

    monkeypatch.delenv("CHAIN_RPC_URL", raising=False)
    assert chain_backend(RunConfig(**base)) is None
    assert isinstance(
        chain_backend(RunConfig(**base, chain_mock=mock_path)), MockChain
    )
    rpc = chain_backend(RunConfig(**base, chain_rpc="http://node.test"))
    assert isinstance(rpc, RpcChain)

    monkeypatch.setenv("CHAIN_RPC_URL", "http://env-node.test")
    assert isinstance(chain_backend(RunConfig(**base)), RpcChain)
    # The mock still wins over the environment.
    assert isinstance(
        chain_backend(RunConfig(**base, chain_mock=mock_path)), MockChain
    )


def test_run_config_validation(tmp_path):
    ir = tmp_path / "c.ir"
    attrs = tmp_path / "a.json"
    with pytest.raises(ConfigError):
        RunConfig(ir_path=ir)
    with pytest.raises(ConfigError):
        RunConfig(ir_path=ir, attrs_path=attrs, description_path=tmp_path / "d")
    with pytest.raises(ConfigError):
        RunConfig(
            ir_path=ir, attrs_path=attrs,
            chain_mock=tmp_path / "m", chain_rpc="http://x",
        )
    with pytest.raises(ValueError, match="max_depth must be positive"):
        RunConfig(ir_path=ir, attrs_path=attrs, limits=Limits(max_depth=0))
    with pytest.raises(ConfigError):
        RunConfig(ir_path=ir, attrs_path=attrs, jobs=0)
