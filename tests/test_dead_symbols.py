"""Every function, class and method in the package has a caller.

A top-level function or class of `src/narrsum`, or a method that is not a
dunder, must be named somewhere in `src/` or `perfbench/` beyond its own
definition: as a name, an attribute, an import, or inside a string that is
not a docstring (`perfbench/spans.py` names what it wraps by string). The
names are bare, so a name that k definitions share must be named at least
k times: one caller of `a.f` does not keep an unused `b.f` alive. A symbol
that only the tests use belongs in the tests.

A name that a module of `src/narrsum` assigns at top level, unless it is a
dunder, must likewise be read somewhere in `src/` or `perfbench/`: as a name
or an attribute in load context, so that neither its own assignment nor an
import keeps a table alive that nothing reads.
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


def _load_mentions(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _assigned(tree: ast.Module) -> list[str]:
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and not (sub.id.startswith("__") and sub.id.endswith("__"))
    ]


def _trees(*directories: Path):
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_package_symbol_is_used_outside_the_tests():
    mentions: Counter = Counter()
    for _, tree in _trees(ROOT / "src", ROOT / "perfbench"):
        mentions.update(_mentions(tree))
    definitions = [
        (path.name, qualified, qualified.rsplit(".", 1)[-1])
        for path, tree in _trees(PACKAGE)
        for qualified in _definitions(tree)
    ]
    defined = Counter(name for _, _, name in definitions)
    dead = [f"{file}: {qualified}" for file, qualified, name in definitions if mentions[name] < defined[name]]
    assert dead == [], f"defined but never used in src/ or perfbench/: {dead}"


def test_every_module_level_name_of_the_package_is_read():
    reads: Counter = Counter()
    for _, tree in _trees(ROOT / "src", ROOT / "perfbench"):
        reads.update(_load_mentions(tree))
    assigned = [(path.name, name) for path, tree in _trees(PACKAGE) for name in _assigned(tree)]
    defined = Counter(name for _, name in assigned)
    unread = [f"{file}: {name}" for file, name in assigned if reads[name] < defined[name]]
    assert unread == [], f"assigned at module level but never read in src/ or perfbench/: {unread}"
