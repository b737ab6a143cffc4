"""Command-line interface tests: exit codes, report output, directory
mode, relation dumps, checkpoint dumps, and description extraction."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from dappaudit.chain import MockChain, RpcChain
from dappaudit.cli import main
from dappaudit.executor import Limits
from dappaudit.pipeline import ConfigError, RunConfig, chain_backend

from helpers import ADDR


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


def test_symexec_selector_filter(workdir, capsys):
    args = ["symexec", "--ir", str(workdir / "contract.ir"),
            "--selector", "0xdeadbeef"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["selectors"] == []


# ---------------------------------------------------------------------------
# extract command


class _CannedEndpoint(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        doc = json.loads(self.rfile.read(length))
        assert "prompt" in doc
        body = json.dumps({"text": "Answer: no."}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def llm_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedEndpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


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
    with pytest.raises(ConfigError):
        RunConfig(ir_path=ir, attrs_path=attrs, limits=Limits(max_depth=0))
    with pytest.raises(ConfigError):
        RunConfig(ir_path=ir, attrs_path=attrs, jobs=0)
