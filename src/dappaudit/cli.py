"""Command-line interface.

Commands: audit (full pipeline on one IR file or a directory of
contracts), facts (dump derived relations as TSVs), symexec (checkpoint
states only), extract (description to attributes via the language-model
endpoint). Exit codes: 0 clean, 1 findings reported, 2 errors, including
unexpected ones (always a single ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chain import ChainUnavailable, MockFormatError
from .executor import Limits
from .facts import build_facts, dump_facts
from .llm import LlmClient, LlmError
from .model import IrError
from .parser import parse_ir
from .pipeline import (
    ConfigError,
    RunConfig,
    analyze_ir,
    audit_contract,
    audit_many,
    checkpoint_dump,
    expand_directory,
    extract_from_description,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

_DEFAULT_LIMITS = Limits()


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=_DEFAULT_LIMITS.max_depth)
    p.add_argument("--loop-bound", type=int, default=_DEFAULT_LIMITS.loop_bound)
    p.add_argument("--max-states", type=int, default=_DEFAULT_LIMITS.max_states)


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(
        max_depth=args.max_depth,
        loop_bound=args.loop_bound,
        max_states=args.max_states,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dappaudit",
        description="Audit contract IR against front-end claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run the full audit pipeline")
    audit.add_argument("--ir", required=True, help="IR file, or a directory of *.ir")
    claim = audit.add_mutually_exclusive_group()
    claim.add_argument("--attrs", help="front-end attributes JSON file")
    claim.add_argument("--description", help="front-end description text file")
    chain = audit.add_mutually_exclusive_group()
    chain.add_argument("--chain-mock", help="mock chain state JSON file")
    chain.add_argument("--chain-rpc", help="chain RPC URL (env: CHAIN_RPC_URL)")
    audit.add_argument("--llm-endpoint", help="endpoint URL (env: LLM_ENDPOINT_URL)")
    audit.add_argument("--out", help="report file, or report directory for --ir DIR")
    audit.add_argument("--facts-dump", help="also write relation TSVs to this directory")
    audit.add_argument("--strict-supply-check", action="store_true")
    audit.add_argument("--jobs", type=int, default=1)
    _add_limit_flags(audit)

    facts = sub.add_parser("facts", help="dump derived relations as TSVs")
    facts.add_argument("--ir", required=True)
    facts.add_argument("--out", required=True, help="directory for the TSV files")

    symexec = sub.add_parser("symexec", help="print checkpoint states as JSON")
    symexec.add_argument("--ir", required=True)
    symexec.add_argument("--selector", help="restrict to one 0x-selector")
    _add_limit_flags(symexec)

    extract = sub.add_parser("extract", help="description file to attributes JSON")
    extract.add_argument("--description", required=True)
    extract.add_argument("--endpoint", help="endpoint URL (env: LLM_ENDPOINT_URL)")
    extract.add_argument("--jobs", type=int, default=1)

    return parser


def _cmd_audit(args: argparse.Namespace) -> int:
    ir_path = Path(args.ir)
    if not ir_path.exists():
        raise FileNotFoundError(f"IR path does not exist: {ir_path}")
    common = dict(
        chain_mock=Path(args.chain_mock) if args.chain_mock else None,
        chain_rpc=args.chain_rpc,
        llm_url=args.llm_endpoint,
        facts_dump=Path(args.facts_dump) if args.facts_dump else None,
        limits=_limits(args),
        strict_supply_check=args.strict_supply_check,
        jobs=args.jobs,
    )

    if ir_path.is_dir():
        if args.attrs or args.description:
            raise ConfigError(
                "directory audits read <name>.attrs.json sidecars; "
                "drop --attrs/--description"
            )
        if not args.out:
            raise ConfigError("directory audits need --out DIR for the reports")
        configs = expand_directory(ir_path, Path(args.out), **common)
        reports = audit_many(configs, jobs=args.jobs)
        for cfg, report in zip(configs, reports):
            print(f"{cfg.ir_path.name}: {len(report.findings)} finding(s)")
        return EXIT_FINDINGS if any(r.findings for r in reports) else EXIT_CLEAN

    cfg = RunConfig(
        ir_path=ir_path,
        attrs_path=Path(args.attrs) if args.attrs else None,
        description_path=Path(args.description) if args.description else None,
        out_path=Path(args.out) if args.out else None,
        **common,
    )
    report = audit_contract(cfg)
    if cfg.out_path is None:
        sys.stdout.write(report.render())
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


def _cmd_facts(args: argparse.Namespace) -> int:
    db = build_facts(parse_ir(_read(Path(args.ir))))
    for path in dump_facts(db, Path(args.out)):
        print(path)
    return EXIT_CLEAN


def _cmd_symexec(args: argparse.Namespace) -> int:
    analysis = analyze_ir(_read(Path(args.ir)), _limits(args))
    doc = checkpoint_dump(analysis)
    if args.selector:
        doc["selectors"] = [
            s for s in doc["selectors"] if s["selector"] == args.selector
        ]
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_CLEAN


def _cmd_extract(args: argparse.Namespace) -> int:
    client = LlmClient(url=args.endpoint)
    attrs = extract_from_description(
        _read(Path(args.description)), client, jobs=args.jobs
    )
    json.dump(attrs.to_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_CLEAN


def _read(path: Path) -> str:
    if not path.exists():
        raise FileNotFoundError(f"input file does not exist: {path}")
    return path.read_text()


_COMMANDS = {
    "audit": _cmd_audit,
    "facts": _cmd_facts,
    "symexec": _cmd_symexec,
    "extract": _cmd_extract,
}

_EXPECTED_ERRORS = (
    OSError,
    IrError,
    MockFormatError,
    ChainUnavailable,
    LlmError,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # A fault of the program itself still ends in one line and exit 2,
        # never in a traceback and exit 1, which means "findings".
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
