"""Every function, class and method in the package has a caller.

A top-level function or class of `src/narrsum`, or a method that is not a
dunder, must be named somewhere in `src/` or `perfbench/` beyond its own
definition: as a name, an attribute, an import, or inside a string that is
not a docstring (`perfbench/spans.py` names what it wraps by string). The
names are bare, so a name that k definitions share must be named at least
k times: one caller of `a.f` does not keep an unused `b.f` alive. A symbol
that only the tests use belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "narrsum"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstring_ids(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _mentions(tree: ast.AST) -> Counter:
    docstrings = _docstring_ids(tree)
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(IDENTIFIER.findall(node.value))
    return names


def _definitions(tree: ast.Module) -> list[str]:
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    defined.append(f"{node.name}.{member.name}")
    return defined


def test_every_package_symbol_is_used_outside_the_tests():
    mentions: Counter = Counter()
    for directory in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            mentions.update(_mentions(ast.parse(path.read_text(encoding="utf-8"))))
    definitions = [
        (path.name, qualified, qualified.rsplit(".", 1)[-1])
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    defined = Counter(name for _, _, name in definitions)
    dead = [f"{file}: {qualified}" for file, qualified, name in definitions if mentions[name] < defined[name]]
    assert dead == [], f"defined but never used in src/ or perfbench/: {dead}"
