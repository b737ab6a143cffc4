"""Parser, printer and validation behavior."""
from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from dappaudit import parser
from dappaudit.model import (
    ArityMismatch,
    DanglingTarget,
    IrBlock,
    IrError,
    IrFunction,
    IrProgram,
    IrStatement,
    IrSyntaxError,
    Opcode,
    SsaViolation,
    Terminator,
    TermKind,
    UndefinedVariable,
    UnknownOpcode,
    validate,
)
from helpers import ADDR, random_program, random_program_text

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


def test_valid_programs_parse_without_validate(monkeypatch):
    # The parser checks the invariants as it reads; `validate` runs only to
    # name the first fault of a program already known to be invalid.
    def refuse(program):
        raise AssertionError("validate ran on a valid program")

    monkeypatch.setattr(parser, "validate", refuse)
    for name, text in _uses_texts():
        parser.parse_ir(text)


# Record-level faults for the differential test below.  Each edits the
# functions of a program held as lists, [name, selector, params, blocks]
# with a block as [bid, statements, terminator], and returns whether it
# applied.


def _defs(fn: list) -> list[str]:
    return [*fn[2], *(s.defvar for b in fn[3] for s in b[1] if s.defvar)]


def _set(block: list, i: int, **fields) -> None:
    s = block[1][i]._replace(**fields)
    args = s.args[1:] if s.opcode is Opcode.CALLPRIVATE else s.args
    block[1][i] = s._replace(uses=tuple(a for a in args if isinstance(a, str)))


def _redefine(rng: random.Random, fns: list, across: bool) -> bool:
    """A def takes the name of a def or parameter of its own function, or of
    another function."""
    dst = rng.choice(fns)
    others = [f for f in fns if f is not dst] if across else [dst]
    sites = [(b, i) for b in dst[3] for i, s in enumerate(b[1]) if s.defvar]
    if not others or not sites:
        return False
    block, i = rng.choice(sites)
    names = [n for n in _defs(rng.choice(others)) if n != block[1][i].defvar]
    if not names:
        return False
    _set(block, i, defvar=rng.choice(names))
    return True


def _read(rng: random.Random, fns: list, foreign: bool) -> bool:
    """A variable operand, a branch condition or a returned value becomes a
    variable of another function, or one that nothing defines."""
    fn = rng.choice(fns)
    names = [n for f in fns if f is not fn for n in _defs(f)] if foreign else ["vnever"]
    if not names:
        return False
    name = rng.choice(names)
    sites = [
        (b, i, k)
        for b in fn[3]
        for i, s in enumerate(b[1])
        for k, a in enumerate(s.args)
        if isinstance(a, str) and not (k == 0 and s.opcode is Opcode.CALLPRIVATE)
    ]
    if sites and rng.random() < 0.6:
        block, i, k = rng.choice(sites)
        args = list(block[1][i].args)
        args[k] = name
        _set(block, i, args=tuple(args))
    else:
        block = rng.choice(fn[3])
        block[2] = rng.choice([
            Terminator(TermKind.JUMPI, cond=name, targets=(fn[3][0][0],) * 2),
            Terminator(TermKind.RETURN, values=(7, name)),
        ])
    return True


def _jump_to_missing(rng: random.Random, fns: list) -> bool:
    block = rng.choice(rng.choice(fns)[3])
    block[2] = Terminator(TermKind.JUMP, targets=("Bmissing",))
    return True


def _call_unknown(rng: random.Random, fns: list) -> bool:
    fn = rng.choice(fns)
    block = rng.choice(fn[3])
    i = rng.randint(0, len(block[1]))
    block[1].insert(i, IrStatement("", Opcode.CALLPRIVATE, None, (), ()))
    _set(block, i, args=("nothere", *rng.sample(fn[2], min(1, len(fn[2])))))
    return True


def _repeat_block_id(rng: random.Random, fns: list) -> bool:
    fn = rng.choice(fns)
    if len(fn[3]) < 2:
        return False
    a, b = rng.sample(fn[3], 2)
    b[0] = a[0]
    return True


def _repeat_function_name(rng: random.Random, fns: list) -> bool:
    if len(fns) < 2:
        return False
    a, b = rng.sample(fns, 2)
    b[0] = a[0]
    return True


_FAULTS = {
    "def repeated in its function": lambda rng, fns: _redefine(rng, fns, False),
    "def repeated across functions": lambda rng, fns: _redefine(rng, fns, True),
    "another function's variable read": lambda rng, fns: _read(rng, fns, True),
    "undefined variable read": lambda rng, fns: _read(rng, fns, False),
    "jump to a missing block": _jump_to_missing,
    "unknown callee": _call_unknown,
    "block id repeated": _repeat_block_id,
    "function name repeated": _repeat_function_name,
}


def _program(address: str, fns: list) -> IrProgram:
    """The edited functions as records, with positional statement ids."""
    return IrProgram(address, tuple(
        IrFunction(name, selector, tuple(params), tuple(
            IrBlock(bid, tuple(s._replace(sid=f"{name}.{bid}.{i}") for i, s in enumerate(stmts)), term)
            for bid, stmts, term in blocks
        ))
        for name, selector, params, blocks in fns
    ))


def test_parse_errors_match_validate_on_mutated_programs():
    rng = random.Random(32)
    applied, raised = Counter(), Counter()
    for _ in range(400):
        base = random_program(rng, 20)
        fns = [
            [f.name, f.selector, list(f.params), [[b.bid, list(b.statements), b.terminator] for b in f.blocks]]
            for f in base.functions
        ]
        faults = rng.sample(sorted(_FAULTS), 2 if rng.random() < 0.3 else 1)
        if not all(_FAULTS[name](rng, fns) for name in faults):
            continue
        applied.update(faults)
        applied["two at once"] += len(faults) == 2
        mutant = _program(base.address, fns)
        text = parser.print_ir(mutant)
        try:
            validate(mutant)
        except IrError as err:
            with pytest.raises(IrError) as info:
                parser.parse_ir(text)
            assert (type(info.value), str(info.value)) == (type(err), str(err)), text
            raised[type(err).__name__] += 1
        else:
            assert parser.parse_ir(text) == mutant, text
    assert set(applied) == {*_FAULTS, "two at once"}, applied
    assert set(raised) == {"SsaViolation", "UndefinedVariable", "DanglingTarget"}, raised


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


# One malformed input per `raise` in parser.py, plus the line shapes whose
# dispatch is easy to get wrong (a tab after a keyword, a label where a
# header or terminator is expected, `}` or `#` in unusual places).  Each row
# pins the exception class and the whole message, line number included.

_HEAD = f"contract {ADDR}\nfunction f public sig 0x00000001 params (v0) {{\n"


def _in_block(*lines: str) -> str:
    """A function `f(v0)` whose block B0 holds `lines`, from line 4 on."""
    return _HEAD + "  block B0:\n" + "".join(f"    {x}\n" for x in lines) + "}\n"


@pytest.mark.parametrize(
    "text,exc,message",
    [
        # _operand
        (_in_block("0: v1 = ADD v0 0xzz", "stop"), IrSyntaxError, "line 4: bad operand '0xzz'"),
        (_in_block("0: SSTORE slot(x) v0", "stop"), IrSyntaxError, "line 4: bad operand 'slot(x)'"),
        (_in_block("jumpi v-1 B0 B0"), IrSyntaxError, "line 4: bad operand 'v-1'"),
        (_in_block("return v0 1x"), IrSyntaxError, "line 4: bad operand '1x'"),
        (_in_block("0: v1 = SLOAD -1", "stop"), IrSyntaxError, "line 4: bad operand '-1'"),
        (_in_block("0: v1 = CONST +7", "stop"), IrSyntaxError, "line 4: bad operand '+7'"),
        (_in_block("0: v1 = CONST 1_000", "stop"), IrSyntaxError,
         "line 4: bad operand '1_000'"),
        (_in_block("0: v1 = CONST 0x_ff", "stop"), IrSyntaxError,
         "line 4: bad operand '0x_ff'"),
        (_in_block("0: v1 = CONST \u0663", "stop"), IrSyntaxError,
         "line 4: bad operand '\u0663'"),
        (_in_block("0: v1 = CONST 0x", "stop"), IrSyntaxError, "line 4: bad operand '0x'"),
        (_in_block(f"0: v1 = CONST {2**256}", "stop"), IrSyntaxError,
         f"line 4: bad operand '{2**256}'"),
        (_in_block(f"0: v1 = CONST {hex(2**256)}", "stop"), IrSyntaxError,
         f"line 4: bad operand '{hex(2**256)}'"),
        (_in_block("0: v1 = CONST 1" + "0" * 100, "stop"), IrSyntaxError,
         "line 4: bad operand '1" + "0" * 100 + "'"),
        # Plain decimals: 78 digits above the word, 79 digits, digits that
        # are not ASCII, and a digit that is not decimal.
        (_in_block("0: v1 = CONST " + "9" * 78, "stop"), IrSyntaxError,
         "line 4: bad operand '" + "9" * 78 + "'"),
        (_in_block("return 1" + "0" * 78), IrSyntaxError,
         "line 4: bad operand '1" + "0" * 78 + "'"),
        (_in_block("0: v1 = CONST \u0661\u0662", "stop"), IrSyntaxError,
         "line 4: bad operand '\u0661\u0662'"),
        (_in_block("jumpi \u00b2 B0 B0"), IrSyntaxError, "line 4: bad operand '\u00b2'"),
        (_in_block("0: SSTORE slot(-1) v0", "stop"), IrSyntaxError,
         "line 4: bad operand 'slot(-1)'"),
        (_in_block("0: SSTORE slot(\u0663) v0", "stop"), IrSyntaxError,
         "line 4: bad operand 'slot(\u0663)'"),
        (_in_block(f"0: SSTORE slot({2**256}) v0", "stop"), IrSyntaxError,
         f"line 4: bad operand 'slot({2**256})'"),
        # close_block and close_function
        (_in_block("0: v1 = CONST 1"), IrSyntaxError, "line 5: block B0 has no terminator"),
        (_in_block("0: v1 = CONST 1", "block B1:", "stop"), IrSyntaxError,
         "line 5: block B0 has no terminator"),
        (_HEAD + "}\n", IrSyntaxError, "line 3: function f has no blocks"),
        # contract header
        ("contract 0x12\n", IrSyntaxError, "line 1: bad contract address '0x12'"),
        (f"contract {ADDR}\ncontract {ADDR}\n", IrSyntaxError, "line 2: duplicate contract header"),
        (f"contract\t{ADDR}\n", IrSyntaxError,
         f"line 1: statement outside function: 'contract\\t{ADDR}'"),
        ("contract\n", IrSyntaxError, "line 1: statement outside function: 'contract'"),
        # function header
        (_HEAD + "function g private params () {\n", IrSyntaxError,
         "line 3: function inside function"),
        (f"contract {ADDR}\nfunction f public params () {{\n", IrSyntaxError,
         "line 2: bad function header: 'function f public params () {'"),
        (f"contract {ADDR}\nfunction f private params (v0, x1) {{\n", IrSyntaxError,
         "line 2: bad parameter name 'x1'"),
        (f"contract {ADDR}\nfunction\tf private params () {{\n", IrSyntaxError,
         "line 2: statement outside function: 'function\\tf private params () {'"),
        # `}` outside a function
        (f"contract {ADDR}\n}}\n", IrSyntaxError, "line 2: unmatched '}'"),
        (_in_block("stop") + "}\n", IrSyntaxError, "line 6: unmatched '}'"),
        # lines outside a function
        (f"contract {ADDR}\n0: v1 = CONST 1\n", IrSyntaxError,
         "line 2: statement outside function: '0: v1 = CONST 1'"),
        (f"contract {ADDR}\nstop\n", IrSyntaxError, "line 2: statement outside function: 'stop'"),
        (_in_block("stop") + "0: v1 = CONST 1\n", IrSyntaxError,
         "line 6: statement outside function: '0: v1 = CONST 1'"),
        # block header
        (_HEAD + "  block B-1:\n", IrSyntaxError, "line 3: bad block header: 'block B-1:'"),
        (_in_block("block\tB1:"), IrSyntaxError, "line 4: missing statement label: 'block\\tB1:'"),
        (_in_block("block: B1", "stop"), UnknownOpcode, "line 4: unknown opcode 'B1'"),
        # lines before any block, or after a terminator
        (_HEAD + "    0: v1 = CONST 1\n", IrSyntaxError,
         "line 3: statement outside block: '0: v1 = CONST 1'"),
        (_HEAD + "    stop\n", IrSyntaxError, "line 3: statement outside block: 'stop'"),
        (_in_block("stop", "1: v1 = CONST 1"), IrSyntaxError,
         "line 5: statement after terminator: '1: v1 = CONST 1'"),
        (_in_block("stop", "stop"), IrSyntaxError, "line 5: statement after terminator: 'stop'"),
        # statement shape
        (_in_block("v1 = CONST 1", "stop"), IrSyntaxError,
         "line 4: missing statement label: 'v1 = CONST 1'"),
        (_in_block("0: x1 = CONST 1", "stop"), IrSyntaxError, "line 4: bad def variable 'x1'"),
        (_in_block("0: = = CONST 1", "stop"), IrSyntaxError, "line 4: bad def variable '='"),
        (_in_block("0:", "stop"), IrSyntaxError, "line 4: empty statement"),
        (_in_block("0: v1 =", "stop"), IrSyntaxError, "line 4: empty statement"),
        (_in_block("0: v1 = add v0 v0", "stop"), UnknownOpcode, "line 4: unknown opcode 'add'"),
        (_in_block("0: = CONST 1", "stop"), UnknownOpcode, "line 4: unknown opcode '='"),
        (_in_block("0: v9 = BOGUS v0", "stop"), UnknownOpcode, "line 4: unknown opcode 'BOGUS'"),
        (_in_block("v9 = ADD v0 v0", "stop"), IrSyntaxError,
         "line 4: missing statement label: 'v9 = ADD v0 v0'"),
        # operand counts and definitions
        (_in_block("0: CALLPRIVATE", "stop"), ArityMismatch, "line 4: CALLPRIVATE needs a callee"),
        (_in_block("0: v1 = ADD v0", "stop"), ArityMismatch,
         "line 4: ADD takes 2..2 operands, got 1"),
        (_in_block("0: CALL v0", "stop"), ArityMismatch,
         "line 4: CALL takes 2..None operands, got 1"),
        (_in_block("0: v1 = CALLER v0", "stop"), ArityMismatch,
         "line 4: CALLER takes 0..0 operands, got 1"),
        (_in_block("0: SSTORE 1 v0 v0", "stop"), ArityMismatch,
         "line 4: SSTORE takes 2..2 operands, got 3"),
        (_in_block("0: v1 = CONST v0", "stop"), ArityMismatch, "line 4: CONST takes a literal"),
        (_in_block("0: CALLER", "stop"), ArityMismatch, "line 4: CALLER must define a variable"),
        (_in_block("0: v1 = SSTORE 1 v0", "stop"), ArityMismatch,
         "line 4: SSTORE cannot define a variable"),
        (_in_block("0: v9 = ADD v0", "stop"), ArityMismatch,
         "line 4: ADD takes 2..2 operands, got 1"),
        (_in_block("0: v9 = CALLER v0", "stop"), ArityMismatch,
         "line 4: CALLER takes 0..0 operands, got 1"),
        (_in_block("0: v9 = SSTORE 1 v0", "stop"), ArityMismatch,
         "line 4: SSTORE cannot define a variable"),
        (_in_block("0: CONST 5", "stop"), ArityMismatch, "line 4: CONST must define a variable"),
        (_in_block("0: v9 = CONST v0", "stop"), ArityMismatch, "line 4: CONST takes a literal"),
        # `#` cuts the line wherever it stands
        (_in_block("0: v1 = ADD v0 #v0", "stop"), ArityMismatch,
         "line 4: ADD takes 2..2 operands, got 1"),
        (_in_block("0#: v1 = CONST 1", "stop"), IrSyntaxError,
         "line 4: missing statement label: '0'"),
        (_in_block("jumpi v0 B0 # B0"), ArityMismatch, "line 4: jumpi takes cond, then, else"),
        # terminators
        (_in_block("jump"), ArityMismatch, "line 4: jump takes one target"),
        (_in_block("jump B0 B0"), ArityMismatch, "line 4: jump takes one target"),
        (_in_block("jumpi v0 B0"), ArityMismatch, "line 4: jumpi takes cond, then, else"),
        (_in_block("returnprivate"), ArityMismatch,
         "line 4: returnprivate takes a continuation target"),
        (_in_block("stop v0"), ArityMismatch, "line 4: stop takes no operands"),
        (_in_block("revert 1"), ArityMismatch, "line 4: revert takes no operands"),
        # end of text
        (_in_block("stop")[:-2], IrSyntaxError, "line 4: unterminated function"),
        ("", IrSyntaxError, "line 1: missing contract header"),
        ("# only a comment\n", IrSyntaxError, "line 1: missing contract header"),
        (_in_block("stop")[_HEAD.index("\n") + 1:], IrSyntaxError,
         "line 1: missing contract header"),
    ],
)
def test_parse_error_table(text, exc, message):
    with pytest.raises(IrSyntaxError) as info:
        parser.parse_ir(text)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize(
    "literal, value",
    [
        ("0", 0),
        ("007", 7),
        ("0X2a", 42),
        (str(2**256 - 1), 2**256 - 1),
        (hex(2**256 - 1), 2**256 - 1),
        ("0" + str(2**256 - 1), 2**256 - 1),
        ("0" * 5000 + "1", 1),
        ("0x" + "0" * 5000 + "1", 1),
    ],
    ids=[
        "zero", "padded", "upper-hex", "max-decimal", "max-hex", "padded-max-decimal",
        "long-decimal", "long-hex",
    ],
)
def test_literal_operands_are_words(literal, value):
    text = _in_block(
        f"0: v1 = CONST {literal}", f"1: SSTORE slot({literal}) v1", f"return {literal}"
    )
    block = parser.parse_ir(text).functions[0].blocks[0]
    const, sstore = block.statements
    assert const.args == (value,)
    assert sstore.args == (value, "v1")
    assert block.terminator.values == (value,)


def test_accepted_line_shapes():
    """Comments, tabs and extra blanks are read as the plain form is."""
    plain = _in_block("0: v1 = CONST 5", "1: v2 = ADD v0 v1", "return v2")
    noisy = (
        f"# header comment\ncontract  {ADDR}  # trailing\n"
        "function f  public\tsig 0x00000001 params ( v0 ) {\n"
        "\tblock B0 :   # first block\n"
        "0:\tv1 = CONST 5#five\n"
        "   \n"
        "  1: v2   =  ADD v0 v1\t\n"
        "return v2 # result\n"
        "}  # end\n"
    )
    assert parser.parse_ir(noisy) == parser.parse_ir(plain)


def test_statements_and_terminators_are_immutable_values():
    def records(program):
        block = program.functions[0].blocks[0]
        return [*block.statements, block.terminator]

    first, again = records(parser.parse_ir(MINIMAL)), records(parser.parse_ir(MINIMAL))
    assert len(set(first + again)) == len(first)
    for a, b in zip(first, again):
        assert a == b and hash(a) == hash(b) and a is not b
    s, t = first[0], first[-1]
    for record, field in [(s, "sid"), (s, "args"), (s, "uses"), (t, "kind"), (t, "values")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        s.note = "x"
    assert repr(s) == (
        "IrStatement(sid='f.B0.0', opcode=<Opcode.CONST: 'CONST'>, defvar='v1',"
        " args=(100,), uses=())"
    )
