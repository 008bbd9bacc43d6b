"""Per-layer tracing from outside the package.

`install` wraps public callables of `narrsum` modules and records each call
in an in-memory call tree: one node per (parent node, name), holding the call
count and inclusive seconds. A node's self time is its inclusive time minus
that of its children. The roots are the stage spans the benchmark opens, so
every span sits under its stage. Nothing in `narrsum` is edited; a function is
replaced in every `narrsum` module that binds it, because `from .rouge import
rouge_l_summary` makes a second binding that patching `rouge` alone would miss.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute or Class.method) wrapped by `install`.
TARGETS = (
    ("corpus", "load_dataset"),
    ("rouge", "lcs_length"),
    ("rouge", "lcs_match_positions"),
    ("rouge", "rouge_l_summary"),
    ("oracle", "align_summary"),
    ("oracle", "build_oracle"),
    ("autodiff", "backward"),
    ("autodiff", "topo_order"),
    ("autodiff", "lstm_cell"),
    ("autodiff", "Adam.step"),
    ("autodiff", "save_checkpoint"),
    ("autodiff", "load_checkpoint"),
    ("extractor", "ExtractorModel.encode"),
    ("extractor", "ExtractorModel.decode"),
    ("extractor", "ExtractorModel.teacher_forced_loss"),
    ("abstractor", "AbstractorModel.encode"),
    ("abstractor", "AbstractorModel.teacher_forced_loss"),
    ("abstractor", "AbstractorModel.paraphrase"),
    ("rl", "rollout"),
    ("rl", "A2CTrainer.update"),
    ("rl", "compute_reward"),
    ("baselines", "textrank_graph"),
    ("baselines", "lexrank_graph"),
    ("baselines", "power_iteration"),
    ("harness", "summarize_document"),
    ("harness", "evaluate_system"),
    ("synthgen", "generate"),
)

RL_STAGE = "harness.train-rl"


class Tracer:
    """Call tree of spans plus named counters, all kept in memory."""

    def __init__(self) -> None:
        self.names = ["<root>"]
        self.parents = [-1]
        self.calls = [0]
        self.seconds = [0.0]
        self.counts: Counter = Counter()
        self.stage: str | None = None
        self._index: dict[tuple[int, str], int] = {}
        self._current = 0

    def enter(self, name: str) -> tuple[int, int]:
        parent = self._current
        node = self._index.get((parent, name))
        if node is None:
            node = len(self.names)
            self._index[(parent, name)] = node
            self.names.append(name)
            self.parents.append(parent)
            self.calls.append(0)
            self.seconds.append(0.0)
        self._current = node
        return node, parent

    def leave(self, node: int, parent: int, seconds: float) -> None:
        self.calls[node] += 1
        self.seconds[node] += seconds
        self._current = parent

    @contextlib.contextmanager
    def span(self, name: str, *, stage: bool = False):
        """A span opened by the benchmark itself; a stage span names the current stage."""
        node, parent = self.enter(name)
        if stage:
            self.stage = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.leave(node, parent, time.perf_counter() - start)
            if stage:
                self.stage = None

    def nodes(self) -> list[dict]:
        """Every span node with its parent id, call count, inclusive and self seconds."""
        child_seconds = [0.0] * len(self.names)
        for node in range(1, len(self.names)):
            child_seconds[self.parents[node]] += self.seconds[node]
        return [
            {"id": node, "parent": self.parents[node], "name": self.names[node],
             "calls": self.calls[node], "s": self.seconds[node],
             "self_s": self.seconds[node] - child_seconds[node]}
            for node in range(1, len(self.names))
        ]

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-name totals over the tree (no wrapped callable calls itself)."""
        totals: dict[str, dict[str, float]] = {}
        for n in self.nodes():
            t = totals.setdefault(n["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in t:
                t[key] += n[key]
        return totals


def _name_rollout(args, kwargs) -> str:
    return f"rl.rollout.{kwargs.get('mode')}"


def _after_topo_order(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["autodiff.topo_order.nodes"] += len(result)


def _after_save_checkpoint(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["autodiff.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _after_paraphrase(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["abstractor.output_tokens"] += len(result)
    if tracer.stage == RL_STAGE:
        tracer.counts["rl.paraphrase_calls"] += 1


def _after_rollout(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.stage == RL_STAGE:
        n_sentences = len(args[0].sentences)
        tracer.counts["rl.nonstop_steps"] += sum(s.action < n_sentences for s in result.steps)


NAMERS: dict[str, Callable] = {"rl.rollout": _name_rollout}
AFTER: dict[str, Callable] = {
    "autodiff.topo_order": _after_topo_order,
    "autodiff.save_checkpoint": _after_save_checkpoint,
    "abstractor.AbstractorModel.paraphrase": _after_paraphrase,
    "rl.rollout": _after_rollout,
}


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    namer = NAMERS.get(name)
    after = AFTER.get(name)
    perf_counter = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        node, parent = tracer.enter(namer(args, kwargs) if namer else name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(node, parent, perf_counter() - start)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target for `tracer`; returns the function that undoes it."""
    undo: list[tuple[object, str, object]] = []
    for module_name, _ in TARGETS:
        importlib.import_module(f"narrsum.{module_name}")
    packages = [m for name, m in list(sys.modules.items()) if name.startswith("narrsum.")]
    for module_name, attr in TARGETS:
        module = sys.modules[f"narrsum.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, _wrap(tracer, original, name))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name)
        for m in packages:
            for binding, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, binding, original))
                    setattr(m, binding, wrapper)

    def uninstall() -> None:
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return uninstall
