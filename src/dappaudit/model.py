"""Three-address SSA form for decompiled contract bytecode."""
from __future__ import annotations

from enum import Enum, unique
from typing import Iterator, NamedTuple, Union

# An operand is either a variable name (always "v"-prefixed) or an
# integer literal.  Storage slots, selectors and addresses are plain ints.
Operand = Union[str, int]
# Values are 256-bit EVM words; arithmetic on them wraps modulo WORD.
WORD = 1 << 256


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

    # Members are singletons compared by identity; the inherited Enum
    # hash is a Python-level call on every dict or set lookup.
    __hash__ = object.__hash__


ARITH_OPS = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD})
COMPARE_OPS = frozenset({Opcode.LT, Opcode.GT, Opcode.EQ})
LOGIC_OPS = frozenset({Opcode.AND, Opcode.OR})
# Lower-case name of each binary operator, as the facts relations and the
# symbolic expressions spell it.
OP_NAMES = {op: op.value.lower() for op in ARITH_OPS | COMPARE_OPS | LOGIC_OPS}
# Each binary operator by name, under 256-bit wrapping semantics: division
# and modulo by zero yield 0, comparisons yield 0 or 1.
WORD_OPS = {
    "add": lambda a, b: (a + b) % WORD,
    "sub": lambda a, b: (a - b) % WORD,
    "mul": lambda a, b: (a * b) % WORD,
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else 0,
    "lt": lambda a, b: int(a < b),
    "gt": lambda a, b: int(a > b),
    "eq": lambda a, b: int(a == b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}

@unique
class TermKind(Enum):
    JUMP = "jump"
    JUMPI = "jumpi"
    RETURN = "return"
    RETURNPRIVATE = "returnprivate"
    REVERT = "revert"
    STOP = "stop"

    __hash__ = object.__hash__  # as for Opcode


# Records.  A record that only stores its fields is a `NamedTuple`: its
# class compiles one small `__new__` where a frozen dataclass compiles five
# methods, and an instance costs half as much to build (0.45 against
# 0.93 us for a statement, CPython 3.11).  A field read costs about 11 ns
# more than a slot's (15 against 4 ns), so a loop reading three or more
# fields of a record unpacks it once.  A record that checks its values
# derives from a `NamedTuple` of its fields and checks them in `__new__`;
# one with private state, such as an index, is a `Record`.  A `NamedTuple`
# equals a plain tuple, or a record of another class, with the same
# fields, so no set, dict key or `in` test mixes them.
class Terminator(NamedTuple):
    kind: TermKind
    cond: Operand | None = None
    targets: tuple[str, ...] = ()
    values: tuple[Operand, ...] = ()
    # Continuation token of a private return; the executor keeps its own
    # call stack, so the token is carried only for round-tripping.
    ret_target: str | None = None


class IrStatement(NamedTuple):
    """One three-address statement; `sid` is `function.block.index`."""

    sid: str
    opcode: Opcode
    defvar: str | None
    args: tuple[Operand, ...]
    # The variable operands, skipping literals and the callee name.
    uses: tuple[str, ...]

    @property
    def callee(self) -> str:
        assert self.opcode is Opcode.CALLPRIVATE
        return str(self.args[0])


class IrBlock(NamedTuple):
    bid: str
    statements: tuple[IrStatement, ...]
    terminator: Terminator


class Record:
    """A read-only record with private state besides its fields, such as
    an index.  A subclass annotates its fields, then its private state
    (names with a leading underscore), sets `__slots__` to their names,
    and hands `Record.__init__` one value for each, in that order.  As for
    a `NamedTuple`, equality, hashing and `repr` see the fields only."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name}={value!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name}")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class IrFunction(Record):
    name: str
    selector: str | None  # "0x" + 8 hex digits for public entry points
    params: tuple[str, ...]
    blocks: tuple[IrBlock, ...]
    _block_index: dict[str, IrBlock]
    __slots__ = tuple(__annotations__)

    def __init__(
        self, name: str, selector: str | None, params: tuple[str, ...], blocks: tuple[IrBlock, ...]
    ) -> None:
        super().__init__(name, selector, params, blocks, {b.bid: b for b in blocks})

    @property
    def is_public(self) -> bool:
        return self.selector is not None

    @property
    def entry(self) -> IrBlock:
        return self.blocks[0]

    def block(self, bid: str) -> IrBlock:
        return self._block_index[bid]


class IrProgram(Record):
    address: str  # "0x" + 40 hex digits, lowercase
    functions: tuple[IrFunction, ...]
    _fn_index: dict[str, IrFunction]
    _selector_index: dict[str, IrFunction]
    __slots__ = tuple(__annotations__)

    def __init__(self, address: str, functions: tuple[IrFunction, ...]) -> None:
        # The first function with a selector wins, as a scan would find it.
        super().__init__(
            address,
            functions,
            {f.name: f for f in functions},
            {f.selector: f for f in reversed(functions) if f.is_public},
        )

    def function(self, name: str) -> IrFunction:
        return self._fn_index[name]

    def public_functions(self) -> tuple[IrFunction, ...]:
        return tuple(f for f in self.functions if f.is_public)

    def function_of_selector(self, selector: str) -> IrFunction | None:
        return self._selector_index.get(selector)

    def statements(self) -> Iterator[tuple[IrFunction, IrBlock, IrStatement]]:
        for f in self.functions:
            for b in f.blocks:
                for s in b.statements:
                    yield f, b, s

    def statement(self, sid: str) -> IrStatement:
        """The statement `function.block.index`; KeyError for any other sid."""
        name, _, rest = sid.partition(".")
        bid, _, index = rest.partition(".")
        stmts = self._fn_index[name].block(bid).statements
        i = int(index) if index.isdecimal() else len(stmts)
        # A non-canonical index such as "01" finds a statement with another sid.
        if i >= len(stmts) or stmts[i].sid != sid:
            raise KeyError(sid)
        return stmts[i]

    def address_int(self) -> int:
        return int(self.address, 16)


def validate(program: IrProgram) -> None:
    """Check program-wide invariants; raises on the first violation."""
    names = {f.name for f in program.functions}
    if len(names) != len(program.functions):
        raise SsaViolation("duplicate function name")

    defined: dict[str, str] = {}

    def _define(var: str, where: str) -> None:
        if var in defined:
            raise SsaViolation(f"{var} defined at {defined[var]} and {where}")
        defined[var] = where

    # The variables each function defines, its parameters included.
    local_of: list[set[str]] = []
    for fn in program.functions:
        if not fn.blocks:
            raise DanglingTarget(f"function {fn.name} has no blocks")
        if len(fn._block_index) != len(fn.blocks):
            raise SsaViolation(f"duplicate block id in {fn.name}")
        for p in fn.params:
            _define(p, f"params of {fn.name}")
        local = set(fn.params)
        for b in fn.blocks:
            for s in b.statements:
                if s.defvar is not None:
                    _define(s.defvar, s.sid)
                    local.add(s.defvar)
        local_of.append(local)

    CALLPRIVATE = Opcode.CALLPRIVATE
    for fn, local in zip(program.functions, local_of):
        bids = fn._block_index
        for b in fn.blocks:
            for s in b.statements:
                if s.opcode is CALLPRIVATE and s.callee not in names:
                    raise DanglingTarget(
                        f"{s.sid}: CALLPRIVATE to unknown function {s.callee}"
                    )
                for v in s.uses:
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
