"""Release gate: nine numbered checks covering the hand-built fixture
corpus, the random-program oracles, symbolic-vs-concrete equivalence,
fee-rate reconstruction, plan guidance, prompt segmentation, attribute
extraction, the storage-string codec, and run determinism.

Each check prints one `criterion N (<label>): PASS` (or FAIL) line, so a
verbose run reads as a checklist."""

from __future__ import annotations

import random
import string
import time
from fractions import Fraction
from pathlib import Path

from dappaudit.chain import MockChain, decode_string, encode_string_at
from dappaudit.claims import FrontendAttributes, LabeledResponse, extract_attributes
from dappaudit.detector import detect_all
from dappaudit.executor import execute_function
from dappaudit.facts import build_facts
from dappaudit.graphs import build_graphs
from dappaudit.inference import infer_sender_guards, infer_storage_roles, infer_transfers
from dappaudit.prompts import build_prompts, segment_text
from dappaudit.parser import parse_ir
from dappaudit.pipeline import RunConfig, analyze_ir, audit_contract, audit_many, expand_directory
from dappaudit.tokens import DEFAULT_TOKENIZER

from helpers import floyd_warshall_dataflow, random_program
from test_inference import _naive_guards, _naive_roles, _naive_transfers
from test_symexec import _match_one_input

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
CHAIN_FILE = FIXTURES / "chain.json"
NFT_ADDRESS = "0x00000000000000000000000000000000000000a6"

# Finding types each corpus contract must produce, in report order.
EXPECTED_FINDINGS = {
    "api_hosted_nft": ["VNA"],
    "api_hosted_nft_consistent": [],
    "fee_forwarder": ["HF"],
    "fee_forwarder_consistent": [],
    "mintable_token": ["UTS"],
    "mintable_token_consistent": [],
    "pausable_transfers": ["CDS"],
    "pausable_transfers_consistent": [],
    "staking_rewards": ["UR", "HF"],
    "staking_rewards_consistent": [],
    "team_lock": ["AL"],
    "team_lock_consistent": [],
    "treasury_drain": ["UFF"],
    "treasury_drain_consistent": [],
}


def _verdict(number: int, label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _fixture_semantics(name: str):
    return analyze_ir((CORPUS / f"{name}.ir").read_text()).semantics


def test_criterion_1_fixture_corpus_exactness():
    def check():
        started = time.monotonic()
        ir_files = sorted(CORPUS.glob("*.ir"))
        assert {f.stem for f in ir_files} == set(EXPECTED_FINDINGS)
        assert len(ir_files) == 14
        for ir in ir_files:
            cfg = RunConfig(
                ir_path=ir,
                attrs_path=ir.with_suffix(".attrs.json"),
                chain_mock=CHAIN_FILE,
            )
            report = audit_contract(cfg)
            got = [f.type for f in report.findings]
            assert got == EXPECTED_FINDINGS[ir.stem], f"{ir.stem}: {got}"
            assert not report.budget_exceeded, ir.stem
        assert time.monotonic() - started < 30.0

    _verdict(1, "fixture corpus exactness", check)


def test_criterion_2_relation_oracle_equivalence():
    def check():
        rng = random.Random(1202)
        for i in range(200):
            program = random_program(rng)
            db = build_facts(program)
            assert set(db.dataflow) == floyd_warshall_dataflow(program), f"dataflow, case {i}"
            got_transfers = {
                (t.call_site, t.recipient, t.amount, t.selector, t.kind.value)
                for t in __import__("dappaudit.inference", fromlist=["x"]).infer_transfers(db)
            }
            assert got_transfers == _naive_transfers(program), f"transfers, case {i}"
            got_guards = {
                (g.slot, g.selector)
                for g in __import__("dappaudit.inference", fromlist=["x"]).infer_sender_guards(db)
            }
            assert got_guards == _naive_guards(program), f"guards, case {i}"
            got_roles = {
                (r.role.value, r.slot, r.selector)
                for r in __import__("dappaudit.inference", fromlist=["x"]).infer_storage_roles(db)
            }
            assert got_roles == _naive_roles(program), f"roles, case {i}"

    _verdict(2, "relation oracle equivalence", check)


def test_criterion_3_symbolic_concrete_equivalence():
    def check():
        from dappaudit.executor import execute_function

        rng = random.Random(3003)
        cases = 0
        attempts = 0
        while cases < 1000:
            attempts += 1
            assert attempts < 12000
            program = random_program(rng)
            _, _, plan = build_graphs(build_facts(program))
            for sel in plan.selectors():
                result = execute_function(program, sel, plan)
                assert not result.budget_exceeded
                targets = set(plan.entry(sel).checkpoints)
                for _ in range(4):
                    _match_one_input(program, sel, result, targets, rng)
                    cases += 1
        assert cases >= 1000

    _verdict(3, "symbolic vs concrete equivalence", check)


def test_criterion_4_fee_rate_reconstruction():
    def check():
        sem = _fixture_semantics("fee_forwarder")
        chain = MockChain.from_file(str(CHAIN_FILE))

        undisclosed = detect_all(FrontendAttributes(fee_claimed=False), sem, chain)
        (finding,) = [f for f in undisclosed.findings if f.type == "HF"]
        assert finding.detail["computed_rate"] == "5/100"
        assert finding.detail["claimed_rate"] is None
        assert finding.status is None

        mismatched = detect_all(
            FrontendAttributes(fee_claimed=True, fee_rate_percent=Fraction(3)), sem, chain
        )
        (finding,) = [f for f in mismatched.findings if f.type == "HF"]
        assert finding.detail["computed_rate"] == "5/100"
        assert finding.detail["claimed_rate"] == "3/100"

        matched = detect_all(
            FrontendAttributes(fee_claimed=True, fee_rate_percent=Fraction(5)), sem, chain
        )
        assert [f.type for f in matched.findings] == []

    _verdict(4, "fee rate reconstruction", check)


def test_criterion_5_guidance_reduction():
    def check():
        program = parse_ir((FIXTURES / "mixed_utilities.ir").read_text())
        _, _, plan = build_graphs(build_facts(program))
        public = [fn for fn in program.functions if fn.selector]
        assert len(public) == 12
        planned_names = {
            fn.name for fn in public if fn.selector in plan.selectors()
        }
        assert planned_names == {"payReferral", "mint"}
        assert len(plan.selectors()) == 2

        planned_total = 0
        public_total = 0
        corpus_files = sorted(CORPUS.glob("*.ir")) + [FIXTURES / "mixed_utilities.ir"]
        for ir in corpus_files:
            prog = parse_ir(ir.read_text())
            _, _, p = build_graphs(build_facts(prog))
            planned_total += len(p.selectors())
            public_total += sum(1 for fn in prog.functions if fn.selector)
        assert planned_total <= public_total / 2

    _verdict(5, "guidance reduction", check)


def test_criterion_6_prompt_segmentation_property():
    vocab = ["stake", "earn", "3", "%", "daily,", "supply", "250M", "lock.", "\n"]

    def check():
        for seed in range(100):
            rng = random.Random(seed)
            text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 18000)))
            if DEFAULT_TOKENIZER.count(text) > 20000:
                text = text[: text.rfind(" ", 0, 60000)]
            pieces = segment_text(text, DEFAULT_TOKENIZER, 3000)
            assert "".join(pieces) == text
            for piece in pieces:
                assert DEFAULT_TOKENIZER.count(piece) <= 3000
            bundle = build_prompts(text, rng.choice(("numeric", "boolean")))
            assert "".join(seg.description for seg in bundle.segments) == text

    _verdict(6, "prompt segmentation property", check)


def test_criterion_7_attribute_extraction():
    def check():
        responses = [
            LabeledResponse(
                "reward_rate_percent",
                "Answer: the site advertises a daily profit of 3% to stakers.",
            ),
            LabeledResponse(
                "total_supply",
                "Answer: it claims a total supply of 250M tokens.",
            ),
            LabeledResponse(
                "lock_time_seconds",
                "Answer: the pool sits behind a 5-year liquidity lock.",
            ),
            LabeledResponse("pause_disclosed", "Answer: yes."),
            LabeledResponse("fund_flow_disclosed", "Answer: no."),
        ]
        attrs = extract_attributes(responses)
        assert attrs.reward_rate_percent == Fraction(3)
        assert attrs.total_supply == 250000000
        assert attrs.lock_time_seconds == 157680000
        assert attrs.pause_disclosed is True
        assert attrs.fund_flow_disclosed is False

    _verdict(7, "attribute extraction", check)


def test_criterion_8_storage_string_codec_and_schemes():
    alphabet = string.ascii_letters + string.digits + string.punctuation + " "

    def check():
        rng = random.Random(808)
        lengths = [0, 31, 32, 96] + [rng.randint(0, 96) for _ in range(196)]
        for n in lengths:
            text = "".join(rng.choice(alphabet) for _ in range(n))
            words = encode_string_at(5, text)
            assert decode_string(5, words[5], lambda s: words.get(s, 0)) == text

        sem = _fixture_semantics("api_hosted_nft")
        claimed = FrontendAttributes(nft_permanence_claimed=True)
        schemes = {
            "https://host.example/meta/": True,
            "http://host.example/meta/": True,
            "data:application/json;base64,e30=": True,
            "ipfs://QmExampleCid/": False,
            "ar://ExampleTxId/": False,
            "ftp://host.example/meta/": False,
        }
        for uri, centralized in schemes.items():
            chain = MockChain(
                {
                    NFT_ADDRESS: {
                        "storage": {
                            hex(k): hex(v) for k, v in encode_string_at(6, uri).items()
                        }
                    }
                }
            )
            report = detect_all(claimed, sem, chain)
            want = ["VNA"] if centralized else []
            assert [f.type for f in report.findings] == want, uri

    _verdict(8, "storage string codec and scheme table", check)


def test_criterion_9_corpus_determinism(tmp_path):
    def check():
        runs = []
        for mode, jobs in (("first", 1), ("second", 1), ("parallel", 4)):
            out_dir = tmp_path / mode
            configs = expand_directory(CORPUS, out_dir, chain_mock=CHAIN_FILE)
            audit_many(configs, jobs=jobs)
            runs.append(
                {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
            )
        first, second, parallel = runs
        assert len(first) == 14
        assert first == second
        assert first == parallel

    _verdict(9, "corpus determinism", check)
