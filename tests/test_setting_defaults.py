"""Every pipeline setting has one default, the one in `config.py`.

`RunConfig` holds each setting's default and valid range. A function or
method parameter in `src/narrsum` that carries a setting, whether named
after a `RunConfig` field or by one of the local names in `ALIASES`, takes
its value from the caller and has no default of its own: a second default
would keep its old value when the config's changes. The README's
Configuration section names every field, and its table names nothing else.
"""

import ast
import dataclasses
import re
from pathlib import Path

from narrsum.config import RunConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "narrsum"
README = Path(__file__).resolve().parents[1] / "README.md"
FIELDS = {f.name for f in dataclasses.fields(RunConfig)}

# Parameter names that carry a setting under another name -> that setting.
ALIASES = {
    "max_steps": "max_extract_sentences",
    "max_tokens": "max_sentence_tokens",
    "max_size": "vocab_size",
    "limit": "word_limit",
    "decay": "lr_decay",
    "max_norm": "clip_norm",
    "checkpoint_every": "checkpoint_every_batches",
    "episodes": "rl_episodes",
    "policy_lr": "rl_lr",
    "critic_lr": "rl_lr",
    "aggregation": "reference_aggregation",
    "threshold": "lexrank_threshold",
    "tol": "pagerank_tol",
    "max_iter": "pagerank_max_iter",
}


def _defaulted_parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return names


def _setting_defaults(source: str) -> list[str]:
    """`function(parameter)`, or `Class.method(parameter)`, for each
    parameter carrying a setting that has a default."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{prefix}{node.name}({name})"
                    for name in _defaulted_parameters(node)
                    if name in FIELDS or name in ALIASES
                )
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def test_no_parameter_carrying_a_setting_has_a_default():
    assert set(ALIASES.values()) <= FIELDS, "an alias names no RunConfig field"
    found = [
        f"{path.name}: {hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
        for hit in _setting_defaults(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"settings with a second default outside config.py: {found}"


def test_readme_configuration_names_exactly_the_fields():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration\n"):]
    section = section[: section.index("\n## ")]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    unknown = set(re.findall(r"`([a-z_]+)`", table)) - FIELDS
    assert unknown == set(), f"README configuration table names no RunConfig field: {sorted(unknown)}"
    unnamed = {name for name in FIELDS if f"`{name}`" not in section}
    assert unnamed == set(), f"RunConfig fields the README configuration section does not name: {sorted(unnamed)}"
