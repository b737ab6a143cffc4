"""Line-oriented text format for the contract IR.

Grammar (one construct per line, `#` starts a comment):

    contract 0x<40 hex>
    function <name> public sig 0x<8 hex> params (v0, v1) {
    function <name> private params () {
    block <id>:
    <sid>: [<var> =] <OPCODE> <operand>*
    jump <id> | jumpi <var> <then> <else> | return <vars> |
    returnprivate <target> <vars> | revert | stop
    }

Operands are `v`-prefixed variable names, literals (ASCII decimal or 0x
hex digits, below 2**256), or the `slot(<n>)` sugar for a literal storage
slot.  Textual statement labels are accepted but discarded; statements are
identified positionally as `function.block.index`, which is what the
printer emits.

Each line is split into tokens once, after cutting a comment (only when
the line holds a `#`).  Statements and terminators are most of a program,
so inside an open, unterminated block a line whose first token ends in
`:` is parsed as a statement, and one whose first token is a terminator
keyword as a terminator, straight away; no header or `}` line has such a
first token.  Any other line goes through the header checks in their
fixed order: `contract`, `function`, `}`, `block`, and ends in an error
if none of them takes it.

The parser is the one place where per-statement facts are computed: each
statement records its variable operands (`IrStatement.uses`), which the
base-fact pass and the graphs read.  Statements are `NamedTuple` records
(see `model`), built with `tuple.__new__` from their five fields, which
skips the record class's Python-level `__new__`; no other record is built
that way.

The program's invariants are checked in the same pass.  The open function
keeps a scope set: its parameters, then each definition as it is read.  A
statement whose operand tokens are all in scope takes them as its `args`
and `uses` with no per-token work.  Any other statement converts its
tokens (each token once per call; a token that fails to convert is not
remembered, so each occurrence raises with its own line) and records its
variables, as a terminator records its condition and values.  At `}` the
recorded reads must be in the final scope (PHIs and blocks listed before
their definers read ahead), the block ids unique and the jump targets
among them; at the end, every definition, parameters included, and every
function name unique, and every callee defined.  Only if one of these
fails does `model.validate` run, to name the first violation in its own
order; a syntax error anywhere still wins, being raised before that.
"""
from __future__ import annotations

import re

from .model import (
    ArityMismatch,
    IrBlock,
    IrFunction,
    IrProgram,
    IrStatement,
    IrSyntaxError,
    Opcode,
    TermKind,
    Terminator,
    UnknownOpcode,
    WORD,
    validate,
)

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")
_VAR_RE = re.compile(r"^v[A-Za-z0-9_]*$")
# A literal: ASCII decimal or 0x hex digits, bare or as `slot(<n>)`.
_LITERAL_RE = re.compile(r"0[xX][0-9a-fA-F]+|[0-9]+")
_SLOT_RE = re.compile(r"slot\((.*)\)")
_FUNCTION_RE = re.compile(
    r"^function\s+(\w+)\s+(public\s+sig\s+(0x[0-9a-fA-F]{8})|private)"
    r"\s+params\s*\(([^)]*)\)\s*\{$"
)
_BLOCK_RE = re.compile(r"^block\s+(\w+)\s*:$")
_TERMINATORS = {k.value: k for k in TermKind}

# Opcode text -> (opcode, min operands, max operands or None, def required?,
# def allowed?)
_OPCODES: dict[str, tuple[Opcode, int, int | None, bool, bool]] = {
    op.value: (op, *row)
    for op, row in {
        Opcode.CONST: (1, 1, True, True),
        Opcode.SLOAD: (1, 1, True, True),
        Opcode.SSTORE: (2, 2, False, False),
        Opcode.CALLER: (0, 0, True, True),
        Opcode.CALLVALUE: (0, 0, True, True),
        Opcode.TIMESTAMP: (0, 0, True, True),
        Opcode.BALANCE: (1, 1, True, True),
        Opcode.ADD: (2, 2, True, True),
        Opcode.SUB: (2, 2, True, True),
        Opcode.MUL: (2, 2, True, True),
        Opcode.DIV: (2, 2, True, True),
        Opcode.MOD: (2, 2, True, True),
        Opcode.LT: (2, 2, True, True),
        Opcode.GT: (2, 2, True, True),
        Opcode.EQ: (2, 2, True, True),
        Opcode.ISZERO: (1, 1, True, True),
        Opcode.AND: (2, 2, True, True),
        Opcode.OR: (2, 2, True, True),
        Opcode.PHI: (2, 2, True, True),
        # CALLPRIVATE: callee name + actuals; may bind one return value.
        Opcode.CALLPRIVATE: (0, None, False, True),
        # CALL: target, value [, sig, abi args...]; may bind a return value.
        Opcode.CALL: (2, None, False, True),
    }.items()
}


def _operand(tok: str, line: int) -> str | int:
    if _VAR_RE.match(tok):
        return tok
    # A plain decimal, the common literal, needs neither regex; isascii()
    # keeps out the other scripts' digits, which int() would read.
    plain = tok.isascii() and tok.isdecimal()
    m = None if plain else _SLOT_RE.fullmatch(tok)
    lit = m[1] if m else tok
    if plain or _LITERAL_RE.fullmatch(lit):
        hexa = lit[:2] in ("0x", "0X")
        digits = (lit[2:] if hexa else lit).lstrip("0") or "0"
        # No word needs more than 78 digits; the cap also keeps a long
        # decimal string within what int() converts.
        if len(digits) <= 78:
            n = int(digits, 16 if hexa else 10)
            if n < WORD:
                return n
    raise IrSyntaxError(line, f"bad operand {tok!r}")


def parse_ir(text: str) -> IrProgram:
    """Parse and validate a program; raises IrError subclasses."""
    address: str | None = None
    functions: list[IrFunction] = []

    fn_name: str | None = None
    fn_selector: str | None = None
    fn_params: tuple[str, ...] = ()
    fn_blocks: list[IrBlock] = []

    blk_id: str | None = None
    blk_sid: str = ""  # "function.block." of the open block
    blk_stmts: list[IrStatement] = []
    blk_term: Terminator | None = None

    # The open function's scope set, the reads to check against it at `}`
    # and its jump targets; every definition and callee of the program; and
    # whether every check so far passed (module docstring).
    local: set[str] = set()
    reads, jumps, defs, callees = [], [], [], []
    valid = True

    # Statement operand token -> its operand, for this call only.
    operands: dict[str, str | int] = {}
    CALLPRIVATE, CONST = Opcode.CALLPRIVATE, Opcode.CONST
    new_tuple = tuple.__new__  # skips IrStatement's Python-level __new__ frame

    def close_block(line: int) -> None:
        nonlocal blk_id, blk_stmts, blk_term
        if blk_id is None:
            return
        if blk_term is None:
            raise IrSyntaxError(line, f"block {blk_id} has no terminator")
        fn_blocks.append(IrBlock(blk_id, tuple(blk_stmts), blk_term))
        blk_id, blk_stmts, blk_term = None, [], None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        toks = raw.split()
        if not toks:
            continue

        # "<sid>: [<var> =] OPCODE operands..." or a terminator in an open
        # block.  No header or `}` line starts with either.
        in_block = blk_term is None and blk_id is not None
        if in_block and toks[0][-1] == ":":
            n = len(toks)
            defvar: str | None = None
            i = 1  # index of the opcode token
            if n > 2 and toks[2] == "=":
                defvar = toks[1]
                # `_VAR_RE.match` on a token from split(), without the call.
                if not (defvar[0] == "v" and defvar.isidentifier() and defvar.isascii()):
                    raise IrSyntaxError(lineno, f"bad def variable {defvar!r}")
                local.add(defvar)
                defs.append(defvar)
                i = 3
            if i == n:
                raise IrSyntaxError(lineno, "empty statement")
            row = _OPCODES.get(toks[i])
            if row is None:
                raise UnknownOpcode(lineno, f"unknown opcode {toks[i]!r}")
            opcode, lo, hi, need_def, may_def = row

            if opcode is CALLPRIVATE:
                if i + 1 == n:
                    raise ArityMismatch(lineno, "CALLPRIVATE needs a callee")
                callees.append(toks[i + 1])
                first = i + 2
            else:
                first = i + 1
            ops = uses = tuple(toks[first:])
            if not local.issuperset(ops):
                conv: list[str | int] = []
                var: list[str] = []
                for tok in ops:
                    op = operands.get(tok)
                    if op is None:
                        op = operands[tok] = _operand(tok, lineno)
                    conv.append(op)
                    if op.__class__ is str:
                        var.append(op)
                ops, uses = tuple(conv), tuple(var)
                reads += var

            k = len(ops)
            if k < lo or (hi is not None and k > hi):
                raise ArityMismatch(lineno, f"{opcode.value} takes {lo}..{hi} operands, got {k}")
            if opcode is CONST and uses:
                raise ArityMismatch(lineno, "CONST takes a literal")
            if need_def and defvar is None:
                raise ArityMismatch(lineno, f"{opcode.value} must define a variable")
            if defvar is not None and not may_def:
                raise ArityMismatch(lineno, f"{opcode.value} cannot define a variable")

            args = (toks[i + 1], *ops) if opcode is CALLPRIVATE else ops
            sid = f"{blk_sid}{len(blk_stmts)}"
            blk_stmts.append(new_tuple(IrStatement, (sid, opcode, defvar, args, uses)))
            continue

        if in_block and toks[0] in _TERMINATORS:
            blk_term = t = _parse_terminator(toks, lineno)
            jumps += t.targets
            reads += [v for v in (t.cond, *t.values) if v.__class__ is str]
            continue

        line = raw.strip()
        if line.startswith("contract "):
            tok = toks[1]
            if not _ADDRESS_RE.match(tok):
                raise IrSyntaxError(lineno, f"bad contract address {tok!r}")
            if address is not None:
                raise IrSyntaxError(lineno, "duplicate contract header")
            address = tok.lower()
            continue

        if line.startswith("function "):
            if fn_name is not None:
                raise IrSyntaxError(lineno, "function inside function")
            m = _FUNCTION_RE.match(line)
            if not m:
                raise IrSyntaxError(lineno, f"bad function header: {line!r}")
            fn_name = m.group(1)
            fn_selector = m.group(3).lower() if m.group(3) else None
            params = [p.strip() for p in m.group(4).split(",") if p.strip()]
            for p in params:
                if not _VAR_RE.match(p):
                    raise IrSyntaxError(lineno, f"bad parameter name {p!r}")
            fn_params = tuple(params)
            local, reads, jumps = set(params), [], []
            defs += params
            continue

        if line == "}":
            if fn_name is None:
                raise IrSyntaxError(lineno, "unmatched '}'")
            close_block(lineno)
            if not fn_blocks:
                raise IrSyntaxError(lineno, f"function {fn_name} has no blocks")
            bids = {b.bid for b in fn_blocks}
            valid &= len(bids) == len(fn_blocks) and bids.issuperset(jumps)
            valid &= local.issuperset(reads)
            functions.append(IrFunction(fn_name, fn_selector, fn_params, tuple(fn_blocks)))
            fn_name, fn_selector, fn_params, fn_blocks = None, None, (), []
            continue

        if fn_name is None:
            raise IrSyntaxError(lineno, f"statement outside function: {line!r}")

        if line.startswith("block "):
            close_block(lineno)
            m = _BLOCK_RE.match(line)
            if not m:
                raise IrSyntaxError(lineno, f"bad block header: {line!r}")
            blk_id = m.group(1)
            blk_sid = f"{fn_name}.{blk_id}."
            continue

        # Statements and terminators of an open block were taken above.
        if blk_id is None:
            raise IrSyntaxError(lineno, f"statement outside block: {line!r}")
        if blk_term is not None:
            raise IrSyntaxError(lineno, f"statement after terminator: {line!r}")
        raise IrSyntaxError(lineno, f"missing statement label: {line!r}")

    if fn_name is not None:
        raise IrSyntaxError(len(text.splitlines()), "unterminated function")
    if address is None:
        raise IrSyntaxError(1, "missing contract header")

    program = IrProgram(address, tuple(functions))
    names = {f.name for f in functions}
    valid &= len(names) == len(functions) and names.issuperset(callees)
    if not (valid and len(set(defs)) == len(defs)):
        validate(program)
    return program


def _parse_terminator(toks: list[str], line: int) -> Terminator:
    kind = _TERMINATORS[toks[0]]
    rest = toks[1:]
    if kind is TermKind.JUMP:
        if len(rest) != 1:
            raise ArityMismatch(line, "jump takes one target")
        return Terminator(kind, targets=(rest[0],))
    if kind is TermKind.JUMPI:
        if len(rest) != 3:
            raise ArityMismatch(line, "jumpi takes cond, then, else")
        return Terminator(kind, cond=_operand(rest[0], line), targets=(rest[1], rest[2]))
    if kind is TermKind.RETURN:
        return Terminator(kind, values=tuple(_operand(t, line) for t in rest))
    if kind is TermKind.RETURNPRIVATE:
        if not rest:
            raise ArityMismatch(line, "returnprivate takes a continuation target")
        return Terminator(
            kind,
            ret_target=rest[0],
            values=tuple(_operand(t, line) for t in rest[1:]),
        )
    if rest:
        raise ArityMismatch(line, f"{kind.value} takes no operands")
    return Terminator(kind)


def _fmt_operand(op: str | int) -> str:
    return op if isinstance(op, str) else hex(op)


def print_ir(program: IrProgram) -> str:
    """Canonical emission; parse(print(p)) is structurally equal to p."""
    out: list[str] = [f"contract {program.address}"]
    for fn in program.functions:
        vis = f"public sig {fn.selector}" if fn.is_public else "private"
        out.append(f"function {fn.name} {vis} params ({', '.join(fn.params)}) {{")
        for b in fn.blocks:
            out.append(f"  block {b.bid}:")
            for s in b.statements:
                lhs = f"{s.defvar} = " if s.defvar is not None else ""
                if s.opcode is Opcode.CALLPRIVATE:
                    ops = [str(s.args[0])] + [_fmt_operand(a) for a in s.args[1:]]
                else:
                    ops = [_fmt_operand(a) for a in s.args]
                tail = (" " + " ".join(ops)) if ops else ""
                out.append(f"    {s.sid}: {lhs}{s.opcode.value}{tail}")
            out.append(f"    {_fmt_terminator(b.terminator)}")
        out.append("}")
    return "\n".join(out) + "\n"


def _fmt_terminator(t: Terminator) -> str:
    if t.kind is TermKind.JUMP:
        return f"jump {t.targets[0]}"
    if t.kind is TermKind.JUMPI:
        return f"jumpi {_fmt_operand(t.cond)} {t.targets[0]} {t.targets[1]}"
    if t.kind is TermKind.RETURN:
        vals = " ".join(_fmt_operand(v) for v in t.values)
        return f"return {vals}".rstrip()
    if t.kind is TermKind.RETURNPRIVATE:
        vals = " ".join(_fmt_operand(v) for v in t.values)
        return f"returnprivate {t.ret_target} {vals}".rstrip()
    return t.kind.value
