"""Tier-1 guard: the per-item code of the formatters, consolidation, layout,
the planner, reading order and the engine reads enum members from module
constants and tables.

On CPython 3.10 and 3.11, `SemanticCategory.TABLE` inside a function costs
about 130-200 ns per load, because the enum metaclass defines __getattr__;
a module global costs about 10 and a dict lookup about 25. An AST scan fails
on any load of a `SemanticCategory.<member>` or `RelationKind.<member>`
attribute inside a function or lambda body of the scanned modules. Tables
and constants built at module level are exempt, and so are default values
and decorators, which run once.
"""

from __future__ import annotations

import ast
from pathlib import Path

from uniparse.docmodel import SemanticCategory
from uniparse.layout import RelationKind

SRC = Path(__file__).resolve().parents[1] / "src" / "uniparse"
SCANNED = ("formats", "consolidate", "layout", "dispatch", "ordering", "engine")
MEMBERS = {"SemanticCategory": set(SemanticCategory.__members__),
           "RelationKind": set(RelationKind.__members__)}


def member_loads(module: str, source: str) -> list[str]:
    """'module:line: Enum.MEMBER' for each load of an enum member inside a
    function or lambda body of the source, once however deeply nested."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.Lambda):
            bodies = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies = fn.body
        else:
            continue
        for body in bodies:
            for node in ast.walk(body):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.attr in MEMBERS.get(node.value.id, ())):
                    found.add((node.lineno, node.col_offset, f"{node.value.id}.{node.attr}"))
    return [f"{module}:{line}: {load}" for line, _col, load in sorted(found)]


def test_per_item_code_loads_no_enum_member():
    findings = [finding for module in SCANNED
                for finding in member_loads(module, (SRC / f"{module}.py").read_text())]
    assert not findings, "\n".join(findings)


def test_guard_reports_planted_member_loads():
    source = (
        "from .docmodel import SemanticCategory\n"
        "from .layout import RelationKind\n"
        "TABLE = SemanticCategory.TABLE\n"
        "WRITERS = {SemanticCategory.FORMULA: lambda item: RelationKind.TITLE}\n"
        "KINDS = {c: c.value for c in SemanticCategory}\n\n"
        "def uses_constants(item, default=SemanticCategory.CAPTION):\n"
        "    return item.category is TABLE or SemanticCategory.__members__\n\n"
        "def outer(item):\n"
        "    def inner():\n"
        "        return item.category is SemanticCategory.PARAGRAPH\n"
        "    return inner() or item.partner_of(RelationKind.CAPTION)\n"
    )
    assert member_loads("a", source) == [
        "a:4: RelationKind.TITLE",
        "a:12: SemanticCategory.PARAGRAPH",
        "a:13: RelationKind.CAPTION",
    ]
