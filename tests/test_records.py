"""Every record class of the package is read-only, compares and hashes by
its fields, and shows as `Name(field=value, ...)`, whether it is a
`NamedTuple` or a `model.Record`.  The mutable `executor._State` and
`feasibility._Interval` are private and not records."""
from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import dappaudit
from dappaudit.chain import MockChain
from dappaudit.claims import FrontendAttributes, LabeledResponse
from dappaudit.detector import detect_all
from dappaudit.executor import Limits
from dappaudit.graphs import build_graphs
from dappaudit.inference import infer_sender_guards, infer_storage_roles, infer_transfers
from dappaudit.model import Record
from dappaudit.pipeline import RunConfig, analyze_ir
from dappaudit.prompts import build_prompts
from dappaudit.tokens import DEFAULT_TOKENIZER
from dappaudit.transport import read_json

FIXTURES = Path(__file__).parent / "fixtures"


def _record_classes() -> dict[str, type]:
    """Name -> class of each public `NamedTuple` or `Record` subclass that
    a module of the package defines."""
    found = {}
    for info in pkgutil.iter_modules(dappaudit.__path__):
        module = importlib.import_module(f"dappaudit.{info.name}")
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and (
                    (issubclass(obj, Record) and obj is not Record)
                    or (issubclass(obj, tuple) and hasattr(obj, "_fields"))
                )
            ):
                found[name] = obj
    return found


RECORD_CLASSES = _record_classes()


def first(items):
    return next(iter(items))


def _examples() -> dict[str, object]:
    """One instance of each record class, built afresh from the corpus:
    the first one met in its 14 contracts."""
    corpus = sorted((FIXTURES / "corpus").glob("*.ir"))
    analyses = [analyze_ir(path.read_text()) for path in corpus]
    dbs = [a.db for a in analyses]
    graphs = [build_graphs(db) for db in dbs]
    sems = [a.semantics for a in analyses]
    attrs = FrontendAttributes.from_json(read_json(FIXTURES / "corpus" / "fee_forwarder.attrs.json"))
    chain = MockChain.from_file(str(FIXTURES / "chain.json"))
    report = first(r for r in (detect_all(attrs, sem, chain) for sem in sems) if r.findings)
    program = analyses[0].program
    block = program.functions[0].blocks[0]
    prompts = build_prompts("A 3% fee.", "numeric", "fee_rate_percent")
    return {
        "Terminator": block.terminator,
        "IrStatement": block.statements[0],
        "IrBlock": block,
        "IrFunction": program.functions[0],
        "IrProgram": program,
        "StorageOp": first(op for db in dbs for op in db.sloads),
        "Branch": first(br for db in dbs for brs in db.branches.values() for br in brs),
        "FactDb": dbs[0],
        "TransferFact": first(t for db in dbs for t in infer_transfers(db)),
        "SenderGuardFact": first(g for db in dbs for g in infer_sender_guards(db)),
        "StorageRoleFact": first(r for db in dbs for r in infer_storage_roles(db)),
        "FtgEdge": first(e for ftg, _, _ in graphs for e in ftg.edges),
        "FundTransferGraph": graphs[0][0],
        "SlotWrite": first(w for _, sdg, _ in graphs for w in sdg.writes),
        "PauseEdge": first(e for _, sdg, _ in graphs for e in sdg.pause_edges),
        "StateDependencyGraph": first(sdg for _, sdg, _ in graphs if sdg.writes),
        "PlanEntry": first(e for a in analyses for e in a.plan.entries),
        "AnalysisPlan": analyses[0].plan,
        "Limits": Limits(max_states=7),
        "CheckpointState": first(c for a in analyses for r in a.executions for c in r.checkpoints),
        "ExecutionResult": first(r for a in analyses for r in a.executions),
        "DynamicFlags": first(t.dynamic for sem in sems for t in sem.transfers),
        "TransferSummary": first(t for sem in sems for t in sem.transfers),
        "FeeCandidate": first(c for sem in sems for c in sem.fee_candidates),
        "SupplyStatus": first(s for sem in sems for s in sem.supplies),
        "PauseStatus": first(p for sem in sems for p in sem.pauses),
        "LockStatus": first(lock for sem in sems for lock in sem.locks),
        "ContractSemantics": sems[0],
        "FrontendAttributes": attrs,
        "LabeledResponse": LabeledResponse("fee_rate_percent", "a fee of 3% applies"),
        "Finding": report.findings[0],
        "InconsistencyReport": report,
        "RunConfig": RunConfig(corpus[0], attrs_path=corpus[0].with_suffix(".attrs.json")),
        "ContractAnalysis": analyses[0],
        "PromptSegment": prompts.segments[0],
        "PromptBundle": prompts,
        "Token": DEFAULT_TOKENIZER.tokens("fee 3%")[1],
    }


@pytest.fixture(scope="module")
def twins() -> tuple[dict[str, object], dict[str, object]]:
    """Two separately built sets of equal examples."""
    return _examples(), _examples()


def test_the_package_has_records():
    assert {"IrStatement", "IrProgram", "FactDb", "Limits", "Finding"} <= set(RECORD_CLASSES)


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
def test_record_is_read_only_equal_hashed_and_shown_by_its_fields(twins, name):
    cls = RECORD_CLASSES[name]
    a, b = twins[0][name], twins[1][name]
    assert type(a) is cls and type(b) is cls and a is not b
    assert a == b
    values = tuple(getattr(a, field) for field in cls._fields)
    try:
        hash(values)
    except TypeError:  # a field holds a dict, so neither hashes
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)

    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    assert a == b

    shown = repr(a)
    pos = len(name) + 1
    assert shown[:pos] == f"{name}("
    for i, field in enumerate(cls._fields):
        label = f"{', ' if i else ''}{field}={getattr(a, field)!r}"
        assert shown.startswith(label, pos), field
        pos += len(label)
    assert shown[pos:] == ")"
