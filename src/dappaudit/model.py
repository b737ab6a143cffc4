"""Three-address SSA form for decompiled contract bytecode."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Iterator, Union

# An operand is either a variable name (always "v"-prefixed) or an
# integer literal.  Storage slots, selectors and addresses are plain ints.
Operand = Union[str, int]


class IrError(Exception):
    """Base class for IR construction and parse failures."""


class IrSyntaxError(IrError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownOpcode(IrSyntaxError):
    pass


class ArityMismatch(IrSyntaxError):
    pass


class SsaViolation(IrError):
    pass


class DanglingTarget(IrError):
    pass


class UndefinedVariable(IrError):
    pass


@unique
class Opcode(Enum):
    CONST = "CONST"
    SLOAD = "SLOAD"
    SSTORE = "SSTORE"
    CALLER = "CALLER"
    CALLVALUE = "CALLVALUE"
    TIMESTAMP = "TIMESTAMP"
    BALANCE = "BALANCE"
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    MOD = "MOD"
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    ISZERO = "ISZERO"
    AND = "AND"
    OR = "OR"
    PHI = "PHI"
    CALLPRIVATE = "CALLPRIVATE"
    CALL = "CALL"


ARITH_OPS = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD})
COMPARE_OPS = frozenset({Opcode.LT, Opcode.GT, Opcode.EQ})
LOGIC_OPS = frozenset({Opcode.AND, Opcode.OR})

# opcode -> (min operands, max operands or None, def required?, def allowed?)
_ARITY: dict[Opcode, tuple[int, int | None, bool, bool]] = {
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
}


@unique
class TermKind(Enum):
    JUMP = "jump"
    JUMPI = "jumpi"
    RETURN = "return"
    RETURNPRIVATE = "returnprivate"
    REVERT = "revert"
    STOP = "stop"


@dataclass(frozen=True)
class Terminator:
    kind: TermKind
    cond: Operand | None = None
    targets: tuple[str, ...] = ()
    values: tuple[Operand, ...] = ()
    # Continuation token of a private return; the executor keeps its own
    # call stack, so the token is carried only for round-tripping.
    ret_target: str | None = None


@dataclass(frozen=True)
class IrStatement:
    """One three-address statement; `sid` is `function.block.index`."""

    sid: str
    opcode: Opcode
    defvar: str | None
    args: tuple[Operand, ...]

    @property
    def callee(self) -> str:
        assert self.opcode is Opcode.CALLPRIVATE
        return str(self.args[0])

    def var_operands(self) -> tuple[str, ...]:
        """Variable operands, skipping literals and callee names."""
        start = 1 if self.opcode is Opcode.CALLPRIVATE else 0
        return tuple(a for a in self.args[start:] if isinstance(a, str))


@dataclass(frozen=True)
class IrBlock:
    bid: str
    statements: tuple[IrStatement, ...]
    terminator: Terminator


@dataclass(frozen=True)
class IrFunction:
    name: str
    selector: str | None  # "0x" + 8 hex digits for public entry points
    params: tuple[str, ...]
    blocks: tuple[IrBlock, ...]

    @property
    def is_public(self) -> bool:
        return self.selector is not None

    @property
    def entry(self) -> IrBlock:
        return self.blocks[0]

    def block(self, bid: str) -> IrBlock:
        for b in self.blocks:
            if b.bid == bid:
                return b
        raise KeyError(bid)


@dataclass(frozen=True)
class IrProgram:
    address: str  # "0x" + 40 hex digits, lowercase
    functions: tuple[IrFunction, ...]
    _fn_index: dict[str, IrFunction] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._fn_index.update({f.name: f for f in self.functions})

    def function(self, name: str) -> IrFunction:
        return self._fn_index[name]

    def public_functions(self) -> tuple[IrFunction, ...]:
        return tuple(f for f in self.functions if f.is_public)

    def function_of_selector(self, selector: str) -> IrFunction | None:
        for f in self.functions:
            if f.selector == selector:
                return f
        return None

    def statements(self) -> Iterator[tuple[IrFunction, IrBlock, IrStatement]]:
        for f in self.functions:
            for b in f.blocks:
                for s in b.statements:
                    yield f, b, s

    def statement(self, sid: str) -> IrStatement:
        for _, _, s in self.statements():
            if s.sid == sid:
                return s
        raise KeyError(sid)

    def address_int(self) -> int:
        return int(self.address, 16)


def validate(program: IrProgram) -> None:
    """Check program-wide invariants; raises on the first violation."""
    names = [f.name for f in program.functions]
    if len(names) != len(set(names)):
        raise SsaViolation("duplicate function name")

    defined: dict[str, str] = {}

    def _define(var: str, where: str) -> None:
        if var in defined:
            raise SsaViolation(f"{var} defined at {defined[var]} and {where}")
        defined[var] = where

    for fn in program.functions:
        if not fn.blocks:
            raise DanglingTarget(f"function {fn.name} has no blocks")
        bids = [b.bid for b in fn.blocks]
        if len(bids) != len(set(bids)):
            raise SsaViolation(f"duplicate block id in {fn.name}")
        for p in fn.params:
            _define(p, f"params of {fn.name}")
        for b in fn.blocks:
            for s in b.statements:
                if s.defvar is not None:
                    _define(s.defvar, s.sid)

    for fn in program.functions:
        bids = {b.bid for b in fn.blocks}
        local = set(fn.params)
        for b in fn.blocks:
            for s in b.statements:
                if s.defvar is not None:
                    local.add(s.defvar)
        for b in fn.blocks:
            for s in b.statements:
                if s.opcode is Opcode.CALLPRIVATE:
                    callee = s.callee
                    if callee not in {f.name for f in program.functions}:
                        raise DanglingTarget(
                            f"{s.sid}: CALLPRIVATE to unknown function {callee}"
                        )
                for v in s.var_operands():
                    if v not in local:
                        raise UndefinedVariable(f"{s.sid}: {v} is not defined in {fn.name}")
            t = b.terminator
            for tgt in t.targets:
                if tgt not in bids:
                    raise DanglingTarget(f"{fn.name}.{b.bid}: jump to unknown block {tgt}")
            if isinstance(t.cond, str) and t.cond not in local:
                raise UndefinedVariable(f"{fn.name}.{b.bid}: {t.cond} is not defined")
            for v in t.values:
                if isinstance(v, str) and v not in local:
                    raise UndefinedVariable(f"{fn.name}.{b.bid}: {v} is not defined")
