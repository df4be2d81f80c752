"""Tier-1 guard: src/uniparse/ holds only code the package runs or exports.

An AST scan of every module fails on an unused import; on a module-level
function, class or assigned name (a constant) that no package module names
or imports and that `uniparse.__all__` does not export; and on a non-dunder
method or property of a package class K whose name no package module reads
outside the method's own body: as a name, as an attribute of an object of
unknown class, or as an attribute of K or a class inheriting from K (a read
of C.m, or of self.m or cls.m inside class C, counts only for C and its
bases); and on a function nested in another that the enclosing function
never reads outside the nested def's own body. Test helpers and oracles
belong in tests/; a name kept for a caller outside the package goes in
ALLOWED with the reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uniparse"

# "module.name" -> why the package keeps a name it does not use itself.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "dispatch.PLACEHOLDER_PREFIX": "benchmark's placeholder-leak check, perfbench/checks.py",
    "docmodel.document_bytes": "benchmark self-test comparing IR bytes, perfbench/test_bench.py",
    "formats.ParsedDocument.iter_items": "benchmark's consolidate.merges counter, perfbench/run.py",
    "layout.LayoutTree.detection_count": "benchmark's layout.detections counter, perfbench/run.py",
    "server._Handler.do_POST": "http.server calls it for each POST",
    "server._Handler.log_message": "http.server calls it to log each request",
}


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[tuple[str, str]]:
    """(local name, imported name) for each name an import statement binds."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
    return [(a.asname or a.name, a.name) for a in node.names]


def _loads(tree: ast.AST) -> Counter:
    """How often the code under tree reads each name."""
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _reads(tree: ast.AST, classes: set[str], owner: str | None = None) -> Counter:
    """How often the code under tree reads each name, as a name or as an
    attribute, keyed (class, name): the class is K for a read of K.m (or
    module.K.m) of a package class K, and for self.m or cls.m inside class
    K; it is None for any other read. owner is the class tree lies in."""
    counts: Counter = Counter()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[None, node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            named = (value.id if isinstance(value, ast.Name)
                     else value.attr if isinstance(value, ast.Attribute) else None)
            if named in ("self", "cls") and isinstance(value, ast.Name):
                named = owner
            counts[named if named in classes else None, node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, owner)
    return counts


def _nested_defs(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """The functions defined in func's body, outside any further def, class
    or lambda."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain names an assignment binds (dunders such as __all__ excepted)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def dead_code(sources: dict[str, str]) -> list[str]:
    """Findings for a package given as {module name: source text}, where
    the module name is the file's stem ("__init__" for the package)."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    exported: set[str] = set()
    if "__init__" in trees:
        for node in trees["__init__"].body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
    # (module, name) pairs some module imports or reads as module.name
    used: set[tuple[str, str]] = set()
    findings = []
    for mod, tree in trees.items():
        loads = _loads(tree)
        module_aliases = {}  # local name -> package module, from `from . import m`
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            bound = _bound_names(node)
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    used.update((node.module, name) for _, name in bound)
                else:
                    module_aliases.update(bound)
            findings += [f"{mod}: unused import {local}" for local, _ in bound
                         if local not in loads and not (mod == "__init__" and local in exported)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in module_aliases):
                used.add((module_aliases[node.value.id], node.attr))
    for mod, tree in trees.items():
        # top-level statements reading each name; a definition's own body
        # does not keep it alive
        readers = Counter(name for node in tree.body for name in _loads(node))
        for node in tree.body:
            for name in _defined_names(node):
                if (name in exported or f"{mod}.{name}" in ALLOWED or (mod, name) in used
                        or readers[name] > (name in _loads(node))):
                    continue
                findings.append(f"{mod}: {name} is never used")
    # a method or property of class K lives while a module reads its name
    # outside the method's own body: as a bare name or on an object of
    # unknown class, or on K or a class that inherits from K
    defs = [(mod, cls) for mod, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)]
    classes = {cls.name for _mod, cls in defs}
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)} for _mod, cls in defs}

    def heirs(name: str) -> set[str]:
        """name and every package class that inherits from it."""
        out = {name}
        while grown := {k for k, b in bases.items() if b & out} - out:
            out |= grown
        return out

    reads = sum((_reads(tree, classes) for tree in trees.values()), Counter())
    for mod, cls in defs:
        readers = [None, *heirs(cls.name)]
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and f"{mod}.{cls.name}.{node.name}" not in ALLOWED):
                own = _reads(node, classes, cls.name)
                if sum(reads[k, node.name] - own[k, node.name] for k in readers) <= 0:
                    findings.append(f"{mod}: {cls.name}.{node.name} is never used")
    # a nested function lives while its enclosing function reads its name
    # outside the nested def's own body
    for mod, tree in trees.items():
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            counts = _loads(outer)
            for inner in _nested_defs(outer):
                if counts[inner.name] - _loads(inner)[inner.name] <= 0:
                    findings.append(f"{mod}: {outer.name}.<locals>.{inner.name} is never used")
    return sorted(findings)


def test_package_has_no_dead_code():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    findings = dead_code(sources)
    assert not findings, "\n".join(findings)


def test_guard_reports_a_planted_unused_import_and_function():
    sources = {
        "__init__": "from .a import live\n__all__ = ['live']\n",
        "a": (
            "import json\n"
            "from .b import helper\n\n"
            "def live():\n    return helper()\n\n"
            "def orphan():\n    return orphan()\n"
        ),
        "b": "def helper():\n    return 1\n",
    }
    assert dead_code(sources) == ["a: orphan is never used", "a: unused import json"]


def test_guard_reports_a_planted_unread_constant():
    sources = {
        "__init__": "from .a import live\n__all__ = ['live']\n",
        "a": (
            "from .b import IMPORTED\n\n"
            "READ = 1\n"
            "UNREAD: int = 2\n"
            "PAIR_A, PAIR_B = 3, 4\n"
            "SELF = [0]\n"
            "SELF = SELF + [1]\n\n"
            "def live():\n    return READ + PAIR_A + IMPORTED\n"
        ),
        "b": "IMPORTED = 5\nNEVER = 6\n",
    }
    assert dead_code(sources) == ["a: PAIR_B is never used", "a: SELF is never used",
                                  "a: UNREAD is never used", "b: NEVER is never used"]


def test_guard_reports_a_planted_unread_method_and_property():
    sources = {
        "__init__": "from .a import Live\n__all__ = ['Live']\n",
        "a": (
            "class Live:\n"
            "    def __init__(self):\n        self.n = self.read_method()\n\n"
            "    def read_method(self):\n        return self.read_property\n\n"
            "    @property\n    def read_property(self):\n        return 1\n\n"
            "    @property\n    def unread_property(self):\n        return 2\n\n"
            "    def unread_method(self):\n        return 3\n\n"
            "    def self_read_method(self, n):\n"
            "        return self.self_read_method(n - 1) if n else 0\n"
        ),
    }
    assert dead_code(sources) == ["a: Live.self_read_method is never used",
                                  "a: Live.unread_method is never used",
                                  "a: Live.unread_property is never used"]


def test_guard_tells_apart_methods_of_one_name_on_two_classes():
    sources = {
        "__init__": "from .b import live\n__all__ = ['live']\n",
        "a": (
            "class Base:\n"
            "    def inherited(self):\n        return 0\n\n"
            "class Spec:\n"
            "    @classmethod\n    def from_dict(cls, data):\n        return cls()\n\n"
            "    @classmethod\n    def load(cls, text):\n        return cls.from_dict(text)\n\n"
            "class Truth:\n"
            "    @classmethod\n    def from_dict(cls, data):\n        return cls()\n\n"
            "    def to_dict(self):\n        return {}\n\n"
            "class Child(Base):\n"
            "    def run(self):\n        return self.inherited()\n"
        ),
        "b": (
            "from . import a\n\n"
            "def live(obj):\n"
            "    return a.Spec.load('x'), a.Truth, obj.to_dict(), a.Child().run()\n"
        ),
    }
    assert dead_code(sources) == ["a: Truth.from_dict is never used"]


def test_guard_reports_a_planted_unread_nested_function():
    sources = {
        "__init__": "from .a import live\n__all__ = ['live']\n",
        "a": (
            "def live(n):\n"
            "    def called():\n        return 1\n\n"
            "    def passed():\n        return 2\n\n"
            "    def sibling_read():\n        return 3\n\n"
            "    def reads_sibling():\n        return sibling_read()\n\n"
            "    def unread():\n        return 4\n\n"
            "    def recursive(k):\n        return recursive(k - 1) if k else 0\n\n"
            "    if n:\n"
            "        def branch():\n            return 5\n\n"
            "    def outer():\n"
            "        def inner_unread():\n            return 6\n\n"
            "        def inner_read():\n            return 7\n\n"
            "        return inner_read\n\n"
            "    class Local:\n"
            "        def method(self):\n            return 8\n\n"
            "    return called(), map(passed, ()), reads_sibling, outer, Local().method\n"
        ),
    }
    assert dead_code(sources) == ["a: live.<locals>.branch is never used",
                                  "a: live.<locals>.recursive is never used",
                                  "a: live.<locals>.unread is never used",
                                  "a: outer.<locals>.inner_unread is never used"]
