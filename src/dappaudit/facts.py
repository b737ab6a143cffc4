"""Base relations derived from the IR, in the style of datalog facts.

The stored relations: constants (with folding), external calls, call
arguments, math ops, function arguments, control dependence, statement
ownership by public selector, syntactic comparisons, and the
reflexive-transitive dataflow closure.  Storage and environment opcodes
(SLOAD/SSTORE/CALLER/TIMESTAMP/BALANCE) are exposed as views over the
program rather than duplicated as relations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .cfg import build_cfg
from .model import (
    ARITH_OPS,
    COMPARE_OPS,
    IrProgram,
    IrStatement,
    Opcode,
    Operand,
    TermKind,
)

WORD = 1 << 256


@dataclass(frozen=True)
class StorageOp:
    """An SLOAD or SSTORE with a resolved-constant slot, if constant."""

    sid: str
    slot: int | None
    # SLOAD: the loaded variable.  SSTORE: the stored operand.
    value: Operand
    function: str


@dataclass(frozen=True)
class FactDb:
    program: IrProgram
    constant: dict[str, int]
    # (call site, target operand, selector operand) for ABI-decoded calls.
    external_call: tuple[tuple[str, Operand, Operand], ...]
    # (call site, operand, ABI argument index)
    call_arg: tuple[tuple[str, Operand, int], ...]
    # (def var, operator, operands)
    math_op: tuple[tuple[str, str, tuple[Operand, ...]], ...]
    # (selector, parameter var, parameter index)
    func_arg: tuple[tuple[str, str, int], ...]
    # (condition var, sid, branch) - transitive control dependence
    controls: tuple[tuple[str, str, bool], ...]
    # sid -> public selectors whose entry points can reach the statement
    stmt_func: dict[str, frozenset[str]]
    # (sid, operator, lhs, rhs, def var) for LT/GT/EQ statements
    comp: tuple[tuple[str, str, Operand, Operand, str], ...]
    # Reflexive-transitive influence closure over variables.
    dataflow: frozenset[tuple[str, str]]

    # -- queries ------------------------------------------------------------

    def const_of(self, operand: Operand) -> int | None:
        if isinstance(operand, int):
            return operand
        return self.constant.get(operand)

    def df(self, src: Operand, dst: Operand) -> bool:
        """Does src influence dst?  Literal operands influence nothing."""
        if not (isinstance(src, str) and isinstance(dst, str)):
            return False
        return src == dst or (src, dst) in self.dataflow

    def df_any(self, sources, dst: Operand) -> bool:
        return any(self.df(s, dst) for s in sources)

    def selectors_of(self, sid: str) -> frozenset[str]:
        return self.stmt_func.get(sid, frozenset())

    def conditions_controlling(self, sid: str) -> frozenset[str]:
        return frozenset(c for c, s, _ in self.controls if s == sid)

    def value_controls(self, x: Operand, sid: str) -> bool:
        """x determines whether sid runs: x flows into a branch condition
        the CFG says the statement depends on."""
        return any(self.df(x, c) for c in self.conditions_controlling(sid))

    def compared(self, a: Operand, b: Operand) -> tuple[str, ...]:
        """Comparison sites where a and b flow into the two operands."""
        hits = []
        for sid, _, lhs, rhs, _ in self.comp:
            if (self.df(a, lhs) and self.df(b, rhs)) or (
                self.df(a, rhs) and self.df(b, lhs)
            ):
                hits.append(sid)
        return tuple(hits)

    # -- program views ------------------------------------------------------

    def statements_of(self, opcode: Opcode) -> tuple[IrStatement, ...]:
        return tuple(s for _, _, s in self.program.statements() if s.opcode is opcode)

    def defs_of(self, opcode: Opcode) -> tuple[str, ...]:
        return tuple(
            s.defvar
            for _, _, s in self.program.statements()
            if s.opcode is opcode and s.defvar is not None
        )

    def sloads(self) -> tuple[StorageOp, ...]:
        return tuple(
            StorageOp(s.sid, self.const_of(s.args[0]), s.defvar, fn.name)
            for fn, _, s in self.program.statements()
            if s.opcode is Opcode.SLOAD
        )

    def sstores(self) -> tuple[StorageOp, ...]:
        return tuple(
            StorageOp(s.sid, self.const_of(s.args[0]), s.args[1], fn.name)
            for fn, _, s in self.program.statements()
            if s.opcode is Opcode.SSTORE
        )

    def self_balance_defs(self) -> tuple[str, ...]:
        """Variables holding the contract's own balance."""
        own = self.program.address_int()
        return tuple(
            s.defvar
            for _, _, s in self.program.statements()
            if s.opcode is Opcode.BALANCE
            and s.defvar is not None
            and self.const_of(s.args[0]) == own
        )

    def plain_calls(self) -> tuple[IrStatement, ...]:
        return tuple(s for s in self.statements_of(Opcode.CALL) if len(s.args) == 2)


def derive_base_facts(program: IrProgram) -> FactDb:
    """All relations except the dataflow closure (left empty here)."""
    constant = _fold_constants(program)

    external_call: list[tuple[str, Operand, Operand]] = []
    call_arg: list[tuple[str, Operand, int]] = []
    math_op: list[tuple[str, str, tuple[Operand, ...]]] = []
    comp: list[tuple[str, str, Operand, Operand, str]] = []
    for _, _, s in program.statements():
        if s.opcode is Opcode.CALL and len(s.args) >= 3:
            external_call.append((s.sid, s.args[0], s.args[2]))
            for i, a in enumerate(s.args[3:]):
                call_arg.append((s.sid, a, i))
        elif s.opcode in ARITH_OPS and s.defvar is not None:
            math_op.append((s.defvar, s.opcode.value.lower(), s.args))
        elif s.opcode in COMPARE_OPS and s.defvar is not None:
            comp.append((s.sid, s.opcode.value.lower(), s.args[0], s.args[1], s.defvar))

    func_arg = [
        (fn.selector, p, i)
        for fn in program.public_functions()
        for i, p in enumerate(fn.params)
    ]

    controls = [
        (cond, sid, branch)
        for fn in program.functions
        for sid, deps in build_cfg(fn).stmt_controls.items()
        for cond, branch in sorted(deps, key=repr)
        if isinstance(cond, str)
    ]

    return FactDb(
        program=program,
        constant=constant,
        external_call=tuple(sorted(external_call, key=repr)),
        call_arg=tuple(sorted(call_arg, key=repr)),
        math_op=tuple(sorted(math_op, key=repr)),
        func_arg=tuple(sorted(func_arg)),
        controls=tuple(sorted(controls, key=repr)),
        stmt_func=_statement_selectors(program),
        comp=tuple(sorted(comp, key=repr)),
        dataflow=frozenset(),
    )


def dataflow_closure(db: FactDb) -> FactDb:
    """Fill in the reflexive-transitive dataflow relation."""
    succ: dict[str, set[str]] = {}

    def edge(src: Operand, dst: str | None) -> None:
        if isinstance(src, str) and dst is not None:
            succ.setdefault(src, set()).add(dst)

    program = db.program
    for _, _, s in program.statements():
        if s.opcode is Opcode.CALLPRIVATE:
            callee = program.function(s.callee)
            for actual, formal in zip(s.args[1:], callee.params):
                edge(actual, formal)
        elif s.opcode is Opcode.CALL:
            # External call results are fresh, unconstrained sources.
            continue
        elif s.defvar is not None:
            for v in s.var_operands():
                edge(v, s.defvar)

    # Returned values flow to the def at every site calling the function.
    defs_by_callee: dict[str, list[str]] = {}
    for _, _, s in program.statements():
        if s.opcode is Opcode.CALLPRIVATE and s.defvar is not None:
            defs_by_callee.setdefault(s.callee, []).append(s.defvar)
    for fn in program.functions:
        for b in fn.blocks:
            if b.terminator.kind is TermKind.RETURNPRIVATE:
                for v in b.terminator.values:
                    for d in defs_by_callee.get(fn.name, []):
                        edge(v, d)

    closure: set[tuple[str, str]] = set()
    for start in sorted(succ):
        seen = {start}
        work = [start]
        while work:
            for nxt in succ.get(work.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        closure.update((start, v) for v in seen)
    # Reflexive over every variable in the program.
    for fn in program.functions:
        closure.update((p, p) for p in fn.params)
    for _, _, s in program.statements():
        if s.defvar is not None:
            closure.add((s.defvar, s.defvar))
        closure.update((v, v) for v in s.var_operands())

    return replace(db, dataflow=frozenset(closure))


def build_facts(program: IrProgram) -> FactDb:
    return dataflow_closure(derive_base_facts(program))


def _fold_constants(program: IrProgram) -> dict[str, int]:
    """CONST defs plus ADD/SUB/MUL/DIV folded to fixpoint; division by zero
    leaves the result non-constant."""
    out: dict[str, int] = {}
    for _, _, s in program.statements():
        if s.opcode is Opcode.CONST:
            out[s.defvar] = s.args[0] % WORD

    def val(op: Operand) -> int | None:
        if isinstance(op, int):
            return op % WORD
        return out.get(op)

    foldable = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV}
    changed = True
    while changed:
        changed = False
        for _, _, s in program.statements():
            if s.opcode not in foldable or s.defvar in out:
                continue
            a, b = val(s.args[0]), val(s.args[1])
            if a is None or b is None:
                continue
            if s.opcode is Opcode.ADD:
                out[s.defvar] = (a + b) % WORD
            elif s.opcode is Opcode.SUB:
                out[s.defvar] = (a - b) % WORD
            elif s.opcode is Opcode.MUL:
                out[s.defvar] = (a * b) % WORD
            elif b == 0:
                continue
            else:
                out[s.defvar] = a // b
            changed = True
    return out


def _statement_selectors(program: IrProgram) -> dict[str, frozenset[str]]:
    """Propagate public selectors through private call chains (monotone)."""
    reach: dict[str, set[str]] = {fn.name: set() for fn in program.functions}
    for fn in program.public_functions():
        reach[fn.name].add(fn.selector)

    calls: list[tuple[str, str]] = [
        (fn.name, s.callee)
        for fn, _, s in program.statements()
        if s.opcode is Opcode.CALLPRIVATE
    ]
    changed = True
    while changed:
        changed = False
        for caller, callee in calls:
            if not reach[caller] <= reach[callee]:
                reach[callee] |= reach[caller]
                changed = True

    return {
        s.sid: frozenset(reach[fn.name])
        for fn, _, s in program.statements()
    }


_RELATION_DUMPERS = {
    "constant": lambda db: sorted(f"{v}\t{k}" for v, k in db.constant.items()),
    "external_call": lambda db: sorted(f"{c}\t{t}\t{s}" for c, t, s in db.external_call),
    "call_arg": lambda db: sorted(f"{c}\t{a}\t{i}" for c, a, i in db.call_arg),
    "math_op": lambda db: sorted(
        f"{d}\t{o}\t{' '.join(map(str, ops))}" for d, o, ops in db.math_op
    ),
    "func_arg": lambda db: sorted(f"{s}\t{v}\t{i}" for s, v, i in db.func_arg),
    "controls": lambda db: sorted(f"{c}\t{s}\t{int(b)}" for c, s, b in db.controls),
    "stmt_func": lambda db: sorted(
        f"{sid}\t{','.join(sorted(sels))}" for sid, sels in db.stmt_func.items()
    ),
    "comp": lambda db: sorted(
        f"{sid}\t{op}\t{l}\t{r}\t{d}" for sid, op, l, r, d in db.comp
    ),
    "dataflow": lambda db: sorted(f"{a}\t{b}" for a, b in db.dataflow),
}


def dump_facts(db: FactDb, directory: str | Path) -> list[Path]:
    """Write one sorted TSV per relation; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, dumper in _RELATION_DUMPERS.items():
        path = directory / f"{name}.tsv"
        lines = dumper(db)
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        written.append(path)
    return written
