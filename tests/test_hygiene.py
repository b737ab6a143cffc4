"""Source hygiene: every module-level import in the package is used and
comes from the standard library or the package itself, every module-level
private name, every public function and class, and every field of a
record (a dataclass, a `NamedTuple` or a class with `__slots__`) is used,
every function reads each of its parameters, some call in the package
passes each defaulted parameter, only `facts.py` touches the storage of the
dataflow graph and its closure, the audit never builds that closure, only
`transport.py` imports `urllib`, and no module imports `dataclasses`."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dappaudit"


def _foreign(line: int, module: str) -> list[tuple[int, str]]:
    root = module.split(".")[0]
    if root in sys.stdlib_module_names or root == "dappaudit":
        return []
    return [(line, module)]


def check_imports(source: str) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Two lists of (line, name): each imported name the module never
    references, and each imported module that is neither in the standard
    library nor `dappaudit` (a relative import is the package itself).

    A reference is a bare name or the root of a dotted access.  A quoted
    annotation counts too, so a forward reference keeps its import.
    """
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    foreign: list[tuple[int, str]] = []
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
                foreign += _foreign(node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                foreign += _foreign(node.lineno, node.module)
            if node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    unused = [(line, name) for line, name in imported if name not in used]
    return unused, foreign


def _module_names(sources: dict[str, str]):
    """Each module-level name as (module, line, name, whether a `def` or
    `class` binds it), and every name some module loads, reads as an
    attribute or imports.  Only loads count, so a definition is not a use."""
    defined: list[tuple[str, int, str, bool]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            is_def = not isinstance(node, (ast.Assign, ast.AnnAssign))
            defined += [(module, node.lineno, n, is_def) for n in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each module-level name with one leading
    underscore that no module loads, reads as an attribute or imports."""
    defined, used = _module_names(sources)
    return [
        (m, line, name)
        for m, line, name, _ in defined
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


# Public names only tests call, kept on purpose (ROADMAP, standing
# decisions): `print_ir` is the parser round-trip oracle and criterion 8
# calls `encode_string_at`.
UNREFERENCED_PUBLIC_KEPT = {"print_ir", "encode_string_at"}


def unreferenced_public_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each public module-level function or class
    that no module loads, reads as an attribute or imports."""
    defined, used = _module_names(sources)
    return [
        (m, line, name)
        for m, line, name, is_def in defined
        if is_def
        and not name.startswith("_")
        and name not in used
        and name not in UNREFERENCED_PUBLIC_KEPT
    ]


# Fields kept although nothing reads them yet: role provenance for the
# trace (ROADMAP, standing decisions).
UNREAD_FIELDS_KEPT = {("SenderGuardFact", "load_site")}


def _is_record(node: ast.ClassDef) -> bool:
    """Decorated with `@dataclass` or `@dataclass(...)`, derived from
    `NamedTuple` (or `typing.NamedTuple`), or given `__slots__`."""
    for d in node.decorator_list:
        if isinstance(d, ast.Call):
            d = d.func
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return any(
        (isinstance(b, ast.Name) and b.id == "NamedTuple")
        or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
        for b in node.bases
    ) or any(_slots(item) is not None for item in node.body)


def _slots(item: ast.stmt) -> ast.expr | None:
    """The value of `item` when it assigns `__slots__`."""
    if isinstance(item, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
    ):
        return item.value
    return None


def _record_fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """(line, name) of each annotated name in the class body and each name
    a literal `__slots__` tuple or list spells out, `__weakref__` and the
    like excepted."""
    fields = []
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            fields.append((item.lineno, item.target.id))
        elif isinstance(value := _slots(item), (ast.Tuple, ast.List)):
            fields += [
                (e.lineno, e.value)
                for e in value.elts
                if isinstance(e, ast.Constant) and not e.value.startswith("__")
            ]
    return fields


def unread_dataclass_fields(sources: dict[str, str]) -> list[tuple[str, int, str, str]]:
    """(module, line, class, field) for each field of a record class (see
    `_is_record`; its fields are `_record_fields`) that no module reads as
    an attribute.

    A read is an attribute load of the field's name on any object that is
    not the target of a call (`plan.selectors()` calls a method, it reads
    no field); the match is by name alone, so a field that shares its name
    with another attribute some module reads passes.
    """
    fields: list[tuple[str, int, str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in called
            ):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                fields += [(module, line, node.name, f) for line, f in _record_fields(node)]
    return [
        f
        for f in fields
        if f[3] not in read and (f[2], f[3]) not in UNREAD_FIELDS_KEPT
    ]


def unread_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of a `def` that its
    body never reads, by line and then in parameter order.

    `self` and `cls` are exempt, as is a body that is only `...` (a
    protocol's method).  A read is a load of the bare name anywhere in the
    body, a nested function or lambda included.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if [ast.unparse(stmt) for stmt in node.body] == ["..."]:
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (p.lineno, node.name, p.arg)
            for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return sorted(found, key=lambda f: f[0])


# Defaulted parameters no package call passes, kept on purpose: tests hand
# the two HTTP clients a fake transport and clock, and the console script
# calls `main()` with no argument so that it reads `sys.argv`.
UNPASSED_DEFAULTS_KEPT = {
    ("llm.py", "LlmClient", "post"),
    ("llm.py", "LlmClient", "sleep"),
    ("chain.py", "RpcChain", "post"),
    ("chain.py", "RpcChain", "sleep"),
    ("cli.py", "main", "argv"),
}


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unpassed_defaults(sources: dict[str, str]) -> list[tuple[str, int, str, str]]:
    """(module, line, function, parameter) for each parameter with a
    default that no call in any module passes, by keyword or by position.

    Calls match a function by name alone, as `f(...)` or `x.f(...)`; an
    `__init__` goes by its class name, and a leading `self` or `cls` takes
    no position.  A call with `*args` passes every positional parameter and
    one with `**kwargs` every parameter.
    """
    calls: dict[str, list[ast.Call]] = {}
    defs: list[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    for module, source in sources.items():
        tree = ast.parse(source)
        inits = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _call_name(node)):
                calls.setdefault(name, []).append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, inits.get(id(node), node.name), node))

    def passed(name: str, param: str, position: int | None) -> bool:
        for call in calls.get(name, ()):
            keywords = {k.arg for k in call.keywords}
            if param in keywords or None in keywords:
                return True
            if position is not None and (
                len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args)
            ):
                return True
        return False

    found = []
    for module, name, node in defs:
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        defaulted = [
            (p, i) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)
        ]
        defaulted += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
        found += [
            (module, p.lineno, name, p.arg)
            for p, i in defaulted
            if (module, name, p.arg) not in UNPASSED_DEFAULTS_KEPT
            and not passed(name, p.arg, None if i is None else i - shift)
        ]
    return sorted(found)


# Attributes holding the dataflow graph, its closure and the cache of the
# closure; their format is private to facts.py, which answers every
# dataflow query.
CLOSURE_ATTRIBUTES = ("dataflow", "reach", "succ", "pred", "_closure")


def closure_accesses(source: str) -> list[tuple[int, str]]:
    """(line, attribute) for each access to a closure attribute of any
    object, in source order."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in CLOSURE_ATTRIBUTES
    )


def imports_of(source: str, root: str) -> list[tuple[int, str]]:
    """(line, module) for each import of the module `root` or a submodule
    of it, wherever the import stands."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted((line, m) for line, m in found if m.split(".")[0] == root)


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Any, Protocol\n"
        "from .model import Opcode, Operand\n"
        "def f(x: 'Any') -> int:\n"
        "    return os.getpid('Opcode')\n"
        "y: 'list[Operand]' = []\n"
    )
    assert check_imports(source)[0] == [(2, "sys"), (3, "Protocol"), (4, "Opcode")]


def test_package_has_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    orphans = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in check_imports(path.read_text())[0]
    ]
    assert orphans == [], "unused imports:\n" + "\n".join(orphans)


def test_third_party_imports_are_detected():
    source = (
        "import json, requests.adapters\n"
        "import urllib.request as u\n"
        "from urllib3.util import Retry\n"
        "from dappaudit.model import Opcode\n"
        "from . import chain\n"
        "from .llm import LlmClient\n"
        "def f():\n"
        "    import certifi\n"
    )
    assert check_imports(source)[1] == [
        (1, "requests.adapters"),
        (3, "urllib3.util"),
        (8, "certifi"),
    ]


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in modules
        for line, module in check_imports(path.read_text())[1]
    ]
    assert foreign == [], "imports from outside the standard library:\n" + "\n".join(foreign)


def test_dead_private_names_are_detected():
    sources = {
        "a.py": (
            "_USED_HERE = 1\n"
            "_IMPORTED = 2\n"
            "_READ_AS_ATTRIBUTE = 3\n"
            "_DEAD: int = 4\n"
            "__dunder__ = 5\n"
            "def _helper():\n"
            "    return _USED_HERE\n"
            "class _Dead:\n"
            "    _attr = 6\n"
        ),
        "b.py": (
            "from .a import _IMPORTED\n"
            "from . import a\n"
            "_orphan = a._READ_AS_ATTRIBUTE\n"
        ),
    }
    assert dead_private_names(sources) == [
        ("a.py", 4, "_DEAD"),
        ("a.py", 6, "_helper"),
        ("a.py", 8, "_Dead"),
        ("b.py", 3, "_orphan"),
    ]


def test_package_has_no_dead_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    dead = [f"{m}:{line}: {name}" for m, line, name in dead_private_names(sources)]
    assert dead == [], "private names nothing uses:\n" + "\n".join(dead)


def test_unreferenced_public_names_are_detected():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "def used_here():\n"
            "    return LIMIT\n"
            "def imported():\n"
            "    return used_here()\n"
            "def read_as_attribute():\n"
            "    pass\n"
            "def only_tests_call():\n"
            "    pass\n"
            "class Orphan:\n"
            "    def method(self):\n"
            "        return LIMIT\n"
            "def print_ir():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b.py": (
            "from .a import imported\n"
            "from . import a\n"
            "def run():\n"
            "    return a.read_as_attribute\n"
        ),
    }
    assert unreferenced_public_names(sources) == [
        ("a.py", 8, "only_tests_call"),
        ("a.py", 10, "Orphan"),
        ("b.py", 3, "run"),
    ]


def test_package_has_no_unreferenced_public_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    orphans = [f"{m}:{line}: {name}" for m, line, name in unreferenced_public_names(sources)]
    assert orphans == [], "public names no module of the package uses:\n" + "\n".join(orphans)


def test_unread_dataclass_fields_are_detected():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Edge:\n"
            "    site: str\n"
            "    planted: bool\n"
            "    shared: int = 0\n"
            "@dataclass\n"
            "class SenderGuardFact:\n"
            "    load_site: str\n"
            "class Plain:\n"
            "    unread: int\n"
            "class Row(NamedTuple):\n"
            "    site: str\n"
            "    dropped: int\n"
            "class Pair(typing.NamedTuple):\n"
            "    lost: int\n"
            "    called: int\n"
            "class Interval:\n"
            "    __slots__ = ('lo', 'hi', '__weakref__')\n"
            "class Indexed(Record):\n"
            "    site: str\n"
            "    _index: dict\n"
            "    __slots__ = tuple(__annotations__)\n"
        ),
        "b.py": (
            "def f(edge, other, match):\n"
            "    edge.planted = True\n"
            "    match.called()\n"
            "    return edge.site, other.shared, other.lo\n"
        ),
    }
    assert unread_dataclass_fields(sources) == [
        ("a.py", 5, "Edge", "planted"),
        ("a.py", 14, "Row", "dropped"),
        ("a.py", 16, "Pair", "lost"),
        ("a.py", 17, "Pair", "called"),
        ("a.py", 19, "Interval", "hi"),
        ("a.py", 22, "Indexed", "_index"),
    ]


def test_package_has_no_unread_dataclass_fields():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    unread = [
        f"{m}:{line}: {cls}.{name}" for m, line, cls, name in unread_dataclass_fields(sources)
    ]
    assert unread == [], "dataclass fields nothing reads:\n" + "\n".join(unread)


def test_unread_parameters_are_detected():
    source = (
        "class Chain(Protocol):\n"
        "    def get(self, slot: int) -> int: ...\n"
        "    @classmethod\n"
        "    def make(cls, path, *rest, mode=1, **opts):\n"
        "        return rest, opts\n"
        "def run(program, st, s, limits):\n"
        "    st.env[s.defvar] = lambda: program\n"
        "    return True\n"
        "def store(st, s):\n"
        "    s = st\n"
    )
    assert unread_parameters(source) == [
        (4, "make", "path"),
        (4, "make", "mode"),
        (6, "run", "limits"),
        (9, "store", "s"),
    ]


def test_package_functions_read_every_parameter():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unread = [
        f"{path.name}:{line}: {fn}({param})"
        for path in modules
        for line, fn, param in unread_parameters(path.read_text())
    ]
    assert unread == [], "parameters a function never reads:\n" + "\n".join(unread)


def test_unpassed_defaults_are_detected():
    sources = {
        "a.py": (
            "class Reader:\n"
            "    def __init__(self, path, mode='r', *, strict=False):\n"
            "        self.path = path\n"
            "    def read(self, size=-1, hint=None):\n"
            "        return size, hint\n"
            "def build(text, kind, tokenizer=None, limit=10):\n"
            "    return Reader(text, 'rb').read(4)\n"
            "def spread(*rest, flag=True, **opts):\n"
            "    return build(*rest)\n"
            "def main(argv=None, verbose=False):\n"
            "    return argv, verbose\n"
        ),
        "cli.py": (
            "def main(argv=None):\n"
            "    return spread(1, 2, **{'flag': False})\n"
        ),
    }
    assert unpassed_defaults(sources) == [
        ("a.py", 2, "Reader", "strict"),
        ("a.py", 4, "read", "hint"),
        ("a.py", 10, "main", "argv"),
        ("a.py", 10, "main", "verbose"),
    ]


def test_package_defaults_are_passed_somewhere():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    unpassed = [
        f"{m}:{line}: {fn}({param}=...)" for m, line, fn, param in unpassed_defaults(sources)
    ]
    assert unpassed == [], "defaulted parameters no package call passes:\n" + "\n".join(
        unpassed
    )


def test_closure_accesses_are_detected():
    source = (
        "def f(db, analysis):\n"
        "    n = len(db.dataflow)\n"
        "    if db.df('va', 'vb'):\n"
        "        return analysis.db.reach.get('va')\n"
        "    reach = dataflow = succ = n + len(db.pred)\n"
        "    return reach, dataflow, succ\n"
    )
    assert closure_accesses(source) == [(2, "dataflow"), (4, "reach"), (5, "pred")]


def test_only_facts_touches_the_closure():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "facts.py")
    assert modules
    leaks = [
        f"{path.name}:{line}: .{attr}"
        for path in modules
        for line, attr in closure_accesses(path.read_text())
    ]
    assert leaks == [], "dataflow closure read outside facts.py:\n" + "\n".join(leaks)


def test_audit_never_builds_the_closure(monkeypatch):
    # Every rule asks its own walk; only the `dataflow` view and the fact
    # dumps need the whole closure.
    from dappaudit import facts
    from dappaudit.pipeline import RunConfig, audit_contract

    def refuse(db):
        raise AssertionError("the audit built the dataflow closure")

    monkeypatch.setattr(facts, "dataflow_closure", refuse)
    fixtures = Path(__file__).parent / "fixtures"
    corpus = sorted((fixtures / "corpus").glob("*.ir"))
    assert len(corpus) == 14
    # The mixed program has no claims of its own; any attributes file will do.
    for ir, attrs in [
        *((ir, ir.with_suffix(".attrs.json")) for ir in corpus),
        (fixtures / "mixed_utilities.ir", corpus[0].with_suffix(".attrs.json")),
    ]:
        audit_contract(RunConfig(ir, attrs, chain_mock=fixtures / "chain.json"))


def test_urllib_imports_are_detected():
    source = (
        "import json, urllib.request\n"
        "from urllib import parse\n"
        "from .urllib import x\n"
        "import urllib3\n"
        "def f():\n"
        "    from urllib.error import HTTPError\n"
    )
    assert imports_of(source, "urllib") == [
        (1, "urllib.request"),
        (2, "urllib"),
        (6, "urllib.error"),
    ]


def test_only_transport_imports_urllib():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "transport.py")
    assert modules
    leaks = [
        f"{path.name}:{line}: {module}"
        for path in modules
        for line, module in imports_of(path.read_text(), "urllib")
    ]
    assert leaks == [], "urllib imported outside transport.py:\n" + "\n".join(leaks)


def test_package_never_imports_dataclasses():
    # A dataclass compiles its methods when its module loads, and
    # `dataclasses` pulls in `inspect`: both slow the CLI's start-up.
    # Records are `NamedTuple`s or `model.Record`s instead.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {module}"
        for path in modules
        for line, module in imports_of(path.read_text(), "dataclasses")
    ]
    assert found == [], "dataclasses imported by the package:\n" + "\n".join(found)
