"""Parser, printer and validation behavior."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from dappaudit import parser
from dappaudit.model import (
    ArityMismatch,
    DanglingTarget,
    IrSyntaxError,
    Opcode,
    SsaViolation,
    TermKind,
    UndefinedVariable,
    UnknownOpcode,
)
from helpers import ADDR, random_program_text

MINIMAL = f"""contract {ADDR}
function f public sig 0xa1b2c3d4 params (v0) {{
  block B0:
    0: v1 = CONST 0x64
    1: v2 = ADD v0 v1
    2: SSTORE slot(2) v2
    3: v3 = CALL v0 v2 0xa9059cbb v0 v2
    return v3
}}
"""


def test_parse_minimal_shapes():
    p = parser.parse_ir(MINIMAL)
    assert p.address == ADDR
    fn = p.functions[0]
    assert fn.selector == "0xa1b2c3d4"
    assert fn.params == ("v0",)
    b = fn.blocks[0]
    assert [s.opcode for s in b.statements] == [
        Opcode.CONST,
        Opcode.ADD,
        Opcode.SSTORE,
        Opcode.CALL,
    ]
    assert b.statements[0].sid == "f.B0.0"
    assert b.statements[0].args == (0x64,)
    # slot() sugar desugars to a literal
    assert b.statements[2].args == (2, "v2")
    assert b.terminator.kind is TermKind.RETURN


def test_statement_ids_are_positional():
    p = parser.parse_ir(MINIMAL)
    sids = [s.sid for _, _, s in p.statements()]
    assert sids == ["f.B0.0", "f.B0.1", "f.B0.2", "f.B0.3"]


def test_print_parse_round_trip():
    p = parser.parse_ir(MINIMAL)
    again = parser.parse_ir(parser.print_ir(p))
    assert again == p


def test_round_trip_random_programs():
    rng = random.Random(7)
    for _ in range(40):
        text = random_program_text(rng)
        p = parser.parse_ir(text)
        assert parser.parse_ir(parser.print_ir(p)) == p


FIXTURES = Path(__file__).parent / "fixtures"


def _uses_texts():
    for path in [*sorted((FIXTURES / "corpus").glob("*.ir")), FIXTURES / "mixed_utilities.ir"]:
        yield path.name, path.read_text()
    rng = random.Random(20261021)
    for i in range(200):
        yield f"random {i}", random_program_text(rng)


def test_uses_are_the_variable_operands():
    for name, text in _uses_texts():
        for _, _, s in parser.parse_ir(text).statements():
            args = s.args[1:] if s.opcode is Opcode.CALLPRIVATE else s.args
            want = tuple(a for a in args if isinstance(a, str) and a.startswith("v"))
            assert s.uses == want, f"{name}: {s.sid}"


def test_private_function_and_callprivate():
    text = f"""contract {ADDR}
function helper private params (vp0) {{
  block H0:
    0: vr = ADD vp0 1
    returnprivate vp0 vr
}}
function f public sig 0x00000001 params (va) {{
  block B0:
    0: vx = CALLPRIVATE helper va
    return vx
}}
"""
    p = parser.parse_ir(text)
    helper = p.function("helper")
    assert not helper.is_public and helper.selector is None
    call = p.statement("f.B0.0")
    assert call.callee == "helper"
    assert call.uses == ("va",)


@pytest.mark.parametrize(
    "line,exc",
    [
        ("    0: v9 = BOGUS v0", UnknownOpcode),
        ("    0: v9 = ADD v0", ArityMismatch),
        ("    0: v9 = CALLER v0", ArityMismatch),
        ("    0: SSTORE 1 v0 v0", ArityMismatch),
        ("    0: v9 = SSTORE 1 v0", ArityMismatch),
        ("    0: CONST 5", ArityMismatch),
        ("    0: v9 = CONST v0", ArityMismatch),
        ("    v9 = ADD v0 v0", IrSyntaxError),
    ],
)
def test_statement_errors(line, exc):
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (v0) {{
  block B0:
{line}
    stop
}}
"""
    with pytest.raises(exc):
        parser.parse_ir(text)


def test_ssa_violation_double_def():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (v0) {{
  block B0:
    0: v1 = CONST 1
    1: v1 = CONST 2
    stop
}}
"""
    with pytest.raises(SsaViolation):
        parser.parse_ir(text)


def test_ssa_violation_across_functions():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (v0) {{
  block B0:
    stop
}}
function g public sig 0x00000002 params (v0) {{
  block B0:
    stop
}}
"""
    with pytest.raises(SsaViolation):
        parser.parse_ir(text)


def test_dangling_jump_target():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    jump B9
}}
"""
    with pytest.raises(DanglingTarget):
        parser.parse_ir(text)


def test_dangling_callprivate_target():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: CALLPRIVATE nothere
    stop
}}
"""
    with pytest.raises(DanglingTarget):
        parser.parse_ir(text)


def test_undefined_variable_operand():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v1 = ISZERO vmissing
    stop
}}
"""
    with pytest.raises(UndefinedVariable):
        parser.parse_ir(text)


def test_missing_terminator():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v1 = CONST 1
}}
"""
    with pytest.raises(IrSyntaxError):
        parser.parse_ir(text)


def test_contract_with_no_functions_parses():
    p = parser.parse_ir(f"contract {ADDR}\n")
    assert p.functions == ()


# With several faults the first one met wins: syntax over validation, then
# the validation checks in their order.


def test_later_syntax_error_wins_over_earlier_ssa_violation():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params (v0) {{
  block B0:
    0: v0 = CONST 1
    1: v2 = ADD v0
    stop
}}
"""
    with pytest.raises(ArityMismatch, match="line 5: ADD takes 2..2 operands, got 1"):
        parser.parse_ir(text)


def test_duplicate_definition_wins_over_earlier_undefined_variable():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v1 = ISZERO vmissing
    jump B1
  block B1:
    0: v2 = CONST 1
    1: v2 = CONST 2
    stop
}}
"""
    with pytest.raises(SsaViolation, match="^v2 defined at f.B1.0 and f.B1.1$"):
        parser.parse_ir(text)


def test_unknown_callee_wins_over_undefined_operand_in_the_same_statement():
    text = f"""contract {ADDR}
function f public sig 0x00000001 params () {{
  block B0:
    0: v1 = CALLPRIVATE nothere vmissing
    stop
}}
"""
    with pytest.raises(
        DanglingTarget, match="^f.B0.0: CALLPRIVATE to unknown function nothere$"
    ):
        parser.parse_ir(text)
