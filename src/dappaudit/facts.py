"""Base relations derived from the IR, in the style of datalog facts.

The stored relations: constants (with folding), external calls, call
arguments, math ops, function arguments, control dependence, function
ownership by public selector, syntactic comparisons, and the storage and
environment relations (constant-slot SLOAD/SSTORE, CALLER, TIMESTAMP,
plain CALL).  All are collected in one walk over the statements, when
the database is built, and kept in program order, except the sorted
`comp`; `stmt_func` is a view.  The walk also records the CONST defs and
queues the ADD/SUB/MUL/DIV statements, folded once it ends.  A slot's
constant may be defined in a block listed after its SLOAD or SSTORE, so
slots are named only after folding.

The same walk records the dataflow graph, one step in both directions:
operands flow into the def (a CALL's result is a fresh source), actuals
into formals at CALLPRIVATE, and returned values into the def at each call
site; the private-call edges are added once the walk ends.  A def's
predecessors are its statement's own `uses`, shared, not copied;
parameters and call defs, which gain those edges, hold lists.  A rule asks
each dataflow question once, as one walk over the graph from a set of
variables, and tests membership in the answer; literals are dropped from
the set, since they influence nothing:

- `reached_from(sources)`: the variables some source influences, one
  forward walk.
- `reaching(targets)`: the variables that influence some target, one
  backward walk.
- `deciders(sid)`: `reaching` the conditions the statement depends on.
- `flows_through(sources, via, dst)`: a backward search from dst that stops
  at the first witness; without a source it answers at once.

No query keeps a memo.  The database's one cache is the whole closure,
filled by `dataflow_closure` and read by the `dataflow` view, which fills
it on first use; the audit never builds it.

Besides the relations, the database keeps `controls` indexed by
statement, the set of its conditions, the ADD defs, and, per public
selector, the branches its execution can meet with their short arms (see
`cfg`) and what their regions may set.  These are not relations and are
left out of the TSV dumps.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

from .cfg import branch_structure
from .model import (
    ARITH_OPS,
    COMPARE_OPS,
    IrFunction,
    IrProgram,
    IrStatement,
    OP_NAMES,
    Opcode,
    Operand,
    Record,
    TermKind,
    WORD,
    WORD_OPS,
)


class StorageOp(NamedTuple):
    """An SLOAD or SSTORE whose slot resolves to a constant."""

    sid: str
    slot: int
    # SLOAD: the loaded variable.  SSTORE: the stored operand.
    value: Operand


class Branch(NamedTuple):
    """A reachable JUMPI on a variable."""

    function: str
    block: str
    cond: str
    # Successor to follow when no checkpoint depends on the branch; None
    # when it has no short arm (see `cfg`).
    short_arm: str | None
    # Blocks either arm reaches before the immediate post-dominator (empty
    # without a short arm).
    blocks: frozenset[str]
    # Variables the statements of `blocks` may set: their definitions, and
    # the loads that may read a slot they store to (every load when the
    # slot has no constant, else the loads of that slot and those whose
    # slot has none).  None when the branch has no short arm or `blocks`
    # make a private call.
    sets: frozenset[str] | None


class FactDb(Record):
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
    # Function name -> public selectors whose entry points can reach it.
    fn_selectors: dict[str, frozenset[str]]
    # (sid, operator, lhs, rhs, def var) for LT/GT/EQ statements
    comp: tuple[tuple[str, str, Operand, Operand, str], ...]
    # The def vars of the `add` rows of `math_op`.
    adds: frozenset[str]
    # The dataflow graph: variable -> the variables it flows into in one
    # step, and the reverse.
    succ: dict[str, list[str]]
    pred: dict[str, list[str] | tuple[str, ...]]
    # Constant-slot storage operations, in program order.
    sloads: tuple[StorageOp, ...]
    sstores: tuple[StorageOp, ...]
    # slot -> variables loaded from it, in program order
    slot_loads: dict[int, tuple[str, ...]]
    caller_defs: tuple[str, ...]
    timestamp_defs: tuple[str, ...]
    # CALL statements without ABI arguments: ether sends.
    plain_calls: tuple[IrStatement, ...]
    # `controls` indexed by sid: the conditions controlling it.
    controlled_by: dict[str, frozenset[str]]
    # The conditions of `controls`.
    conditions: frozenset[str]
    # Public selector -> branches in the functions its entry point reaches.
    branches: dict[str, tuple[Branch, ...]]
    # Variable -> the variables it influences, itself included, for every
    # variable once `dataflow_closure` has run; empty before.
    _closure: dict[str, set[str]]
    __slots__ = tuple(__annotations__)

    def __init__(self, **relations) -> None:
        super().__init__(*(relations[name] for name in self._fields), {})

    @property
    def dataflow(self) -> frozenset[tuple[str, str]]:
        """The whole closure as (src, dst) pairs."""
        if not self._closure:
            dataflow_closure(self)
        return frozenset((a, b) for a, seen in self._closure.items() for b in seen)

    @property
    def stmt_func(self) -> dict[str, frozenset[str]]:
        """sid -> public selectors whose entry points can reach the statement."""
        return {s.sid: self.fn_selectors[f.name] for f, _, s in self.program.statements()}

    # -- queries ------------------------------------------------------------

    def const_of(self, operand: Operand) -> int | None:
        return _const_of(self.constant, operand)

    def reached_from(self, sources) -> set[str]:
        """The variables some source influences, the sources included: one
        forward walk from all of them, kept in no memo."""
        return _reach(self.succ, [s for s in sources if s in self.succ])

    def reaching(self, targets) -> set[str]:
        """The variables that influence some target, the targets included:
        one backward walk to all of them, kept in no memo."""
        return _reach(self.pred, [t for t in targets if t in self.pred])

    def flows_through(self, sources, via, dst: Operand) -> bool:
        """Does some source influence a member of `via` that influences dst?
        A backward search from dst over (variable, passed a member of `via`)
        states, stopped at the first witness; literals influence nothing."""
        sources = set(sources)
        if not sources or dst not in self.pred:
            return False
        # Breadth first, so the nearest witness ends the search.
        work = [(dst, dst in via)]
        seen = set(work)
        for v, passed in work:  # `work` grows while it is read
            if passed and v in sources:
                return True
            for u in self.pred[v]:
                # Every witness of (u, False) is one of (u, True).
                state = (u, passed or u in via)
                if state not in seen and (u, True) not in seen:
                    seen.add(state)
                    work.append(state)
        return False

    def selectors_of(self, sid: str) -> frozenset[str]:
        return self.fn_selectors.get(sid.partition(".")[0], frozenset())

    def conditions_controlling(self, sid: str) -> frozenset[str]:
        return self.controlled_by.get(sid, frozenset())

    def deciders(self, sid: str) -> set[str]:
        """The variables that decide whether sid runs: those flowing into a
        branch condition the CFG says the statement depends on."""
        return self.reaching(self.conditions_controlling(sid))


def derive_base_facts(program: IrProgram) -> FactDb:
    """All relations and the dataflow graph; no dataflow query is answered."""
    constant: dict[str, int] = {}
    # ADD/SUB/MUL/DIV statements by def, and the SLOADs and SSTOREs whose
    # slots are named once these are folded (see the module).
    foldable: dict[str, IrStatement] = {}
    storage: list[IrStatement] = []
    external_call: list[tuple[str, Operand, Operand]] = []
    call_arg: list[tuple[str, Operand, int]] = []
    math_op: list[tuple[str, str, tuple[Operand, ...]]] = []
    comp: list[tuple[str, str, Operand, Operand, str]] = []
    caller_defs: list[str] = []
    timestamp_defs: list[str] = []
    plain_calls: list[IrStatement] = []

    # The dataflow graph; `pred` shares each def's `uses` (see the module).
    succ: dict[str, list[str]] = {p: [] for fn in program.functions for p in fn.params}
    pred: dict[str, list[str] | tuple[str, ...]] = {p: [] for p in succ}
    private_calls: list[tuple[str, str, IrStatement]] = []  # (caller, callee, call)
    returned: dict[str, list[Operand]] = {fn.name: [] for fn in program.functions}
    # Enum members are class attributes, slow to look up in a loop.
    SLOAD, SSTORE, CALLER, TIMESTAMP = Opcode.SLOAD, Opcode.SSTORE, Opcode.CALLER, Opcode.TIMESTAMP
    CALL, CALLPRIVATE, CONST = Opcode.CALL, Opcode.CALLPRIVATE, Opcode.CONST
    RETURNPRIVATE, JUMPI = TermKind.RETURNPRIVATE, TermKind.JUMPI
    for fn in program.functions:
        for b in fn.blocks:
            for s in b.statements:
                sid, op, d, args, uses = s
                if d is not None:
                    if d not in succ:
                        succ[d] = []
                    # External call results are fresh, unconstrained sources.
                    if op is CALL or op is CALLPRIVATE:
                        pred[d] = []
                    else:
                        pred[d] = uses
                        for v in uses:
                            # A PHI, or a block listed before the one
                            # defining v, uses v before its definition.
                            try:
                                succ[v].append(d)
                            except KeyError:
                                succ[v] = [d]
                # Opcodes missing here add to no relation.
                if op is CONST:
                    constant[d] = args[0] % WORD
                elif op in ARITH_OPS:
                    math_op.append((d, OP_NAMES[op], args))
                    if op in _FOLD:
                        foldable[d] = s
                elif op in COMPARE_OPS:
                    comp.append((sid, OP_NAMES[op], args[0], args[1], d))
                elif op is SLOAD or op is SSTORE:
                    storage.append(s)
                elif op is CALL:
                    if len(args) >= 3:
                        external_call.append((sid, args[0], args[2]))
                        call_arg += [(sid, a, i) for i, a in enumerate(args[3:])]
                    else:
                        plain_calls.append(s)
                elif op is CALLER:
                    caller_defs.append(d)
                elif op is TIMESTAMP:
                    timestamp_defs.append(d)
                elif op is CALLPRIVATE:
                    private_calls.append((fn.name, args[0], s))
            t = b.terminator
            if t.kind is RETURNPRIVATE:
                returned[fn.name] += t.values
    # At each private call site, once every node is made, the actuals flow
    # into the formals and the returned values into the def.
    for _, callee, (_, _, d, args, _) in private_calls:
        for actual, formal in zip(args[1:], program.function(callee).params):
            if isinstance(actual, str):
                succ[actual].append(formal)
                pred[formal].append(actual)
        if d is not None:
            for v in returned[callee]:
                if isinstance(v, str):
                    succ[v].append(d)
                    pred[d].append(v)

    _fold_constants(constant, foldable, succ)
    sloads: list[StorageOp] = []
    sstores: list[StorageOp] = []
    # Loads whose slot the constant folding cannot name.
    unnamed_loads: list[str] = []
    for sid, op, d, args, _ in storage:
        if (slot := _const_of(constant, args[0])) is None:
            if op is SLOAD:
                unnamed_loads.append(d)
        elif op is SLOAD:
            sloads.append(StorageOp(sid, slot, d))
        else:
            sstores.append(StorageOp(sid, slot, args[1]))
    slot_loads: dict[int, list[str]] = {}
    for load in sloads:
        slot_loads.setdefault(load.slot, []).append(load.value)

    controls: list[tuple[str, str, bool]] = []
    arms: list[tuple[IrFunction, str, tuple[str, frozenset[str]] | None]] = []
    for fn in program.functions:
        # Without a JUMPI nothing is control dependent and there is no branch.
        if all(b.terminator.kind is not JUMPI for b in fn.blocks):
            continue
        deps, fn_arms = branch_structure(fn)
        controls += [
            (cond, sid, outcome)
            for sid, conds in deps.items()
            for cond, outcome in conds
            if isinstance(cond, str)
        ]
        arms += [(fn, bid, arm) for bid, arm in fn_arms.items()]
    controlled_by: dict[str, set[str]] = {}
    for cond, sid, _ in controls:
        controlled_by.setdefault(sid, set()).add(cond)

    every_load = frozenset(unnamed_loads).union(l.value for l in sloads)

    def sets(fn: IrFunction, blocks: frozenset[str]) -> frozenset[str] | None:
        """What the statements of `blocks` may set (see `Branch.sets`)."""
        out: set[str] = set()
        for bid in blocks:
            for _, op, d, args, _ in fn.block(bid).statements:
                if op is CALLPRIVATE:
                    return None
                if d is not None:
                    out.add(d)
                if op is SSTORE:
                    slot = _const_of(constant, args[0])
                    out.update(every_load if slot is None else slot_loads.get(slot, ()))
                    out.update(unnamed_loads)
        return frozenset(out)

    fn_selectors = _function_selectors(program, private_calls)
    branches: dict[str, list[Branch]] = {}
    for fn, bid, arm in arms:
        cond = fn.block(bid).terminator.cond
        if arm is None:
            br = Branch(fn.name, bid, cond, None, frozenset(), None)
        else:
            br = Branch(fn.name, bid, cond, *arm, sets(fn, arm[1]))
        for selector in fn_selectors[fn.name]:
            branches.setdefault(selector, []).append(br)

    comp.sort()  # by sid, as their reprs sort: sids are unique, of `\w` and dots

    return FactDb(
        program=program,
        constant=constant,
        external_call=tuple(external_call),
        call_arg=tuple(call_arg),
        math_op=tuple(math_op),
        func_arg=tuple(
            (f.selector, p, i) for f in program.public_functions() for i, p in enumerate(f.params)
        ),
        controls=tuple(controls),
        fn_selectors=fn_selectors,
        comp=tuple(comp),
        adds=frozenset(d for d, op, _ in math_op if op == "add"),
        succ=succ,
        pred=pred,
        sloads=tuple(sloads),
        sstores=tuple(sstores),
        slot_loads={slot: tuple(vs) for slot, vs in slot_loads.items()},
        caller_defs=tuple(caller_defs),
        timestamp_defs=tuple(timestamp_defs),
        plain_calls=tuple(plain_calls),
        controlled_by={sid: frozenset(c) for sid, c in controlled_by.items()},
        conditions=frozenset(c for c, _, _ in controls),
        branches={sel: tuple(brs) for sel, brs in branches.items()},
    )


def dataflow_closure(db: FactDb) -> FactDb:
    """Fill the closure cache that `dataflow` reads with one forward walk
    from every variable: the whole reflexive-transitive dataflow closure
    (see the module); returns db."""
    db._closure.update((v, _reach(db.succ, [v])) for v in db.succ)
    return db


def _reach(graph: Mapping[str, Sequence[str]], starts: list[str]) -> set[str]:
    """The nodes reachable in graph from the nodes `starts`, those included."""
    seen = set(starts)
    work = list(seen)
    while work:
        for nxt in graph[work.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


# The audit needs only the base facts; dataflow is answered on demand.
build_facts = derive_base_facts


def _const_of(constant: dict[str, int], operand: Operand) -> int | None:
    return operand if isinstance(operand, int) else constant.get(operand)


_FOLD = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV})


def _fold_constants(
    constant: dict[str, int], foldable: dict[str, IrStatement], succ: dict[str, list[str]]
) -> None:
    """Add the ADD/SUB/MUL/DIV defs of `foldable` to `constant`, the CONST
    defs, folded to fixpoint.  A worklist folds each statement once: a newly
    constant variable queues the foldable statements among its successors."""

    def val(op: Operand) -> int | None:
        if isinstance(op, int):
            return op % WORD
        return constant.get(op)

    work = list(foldable.values())
    while work:
        _, op, d, (x, y), _ = work.pop()
        if d in constant:
            continue
        a, b = val(x), val(y)
        # Unlike `WORD_OPS`, division by zero leaves the result non-constant.
        if a is None or b is None or (b == 0 and op is Opcode.DIV):
            continue
        constant[d] = WORD_OPS[OP_NAMES[op]](a, b)
        work += [foldable[u] for u in succ[d] if u in foldable]


def _function_selectors(
    program: IrProgram, calls: list[tuple[str, str, IrStatement]]
) -> dict[str, frozenset[str]]:
    """Function name -> public selectors whose entry points reach it
    through the (caller, callee, call) private calls."""
    callees: dict[str, list[str]] = {fn.name: [] for fn in program.functions}
    for caller, callee, _ in calls:
        callees[caller].append(callee)
    reach: dict[str, set[str]] = {name: set() for name in callees}
    for fn in program.public_functions():
        for name in _reach(callees, [fn.name]):
            reach[name].add(fn.selector)
    return {name: frozenset(sels) for name, sels in reach.items()}


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
