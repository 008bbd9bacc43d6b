"""Measures that only the tests read: the abstractor's teacher-forced
accuracy (A5's metric), the mean greedy-rollout reward (A6's yardstick) and
the `tracemalloc` peak of a call. None is part of a CLI stage."""

import tracemalloc
from typing import Sequence

import numpy as np

from narrsum.config import RunConfig
from narrsum.corpus import END_ID, Document, Vocab
from narrsum.extractor import ExtractorModel
from narrsum.oracle import OracleAlignment
from narrsum.rl import _paired_examples, rollout


def teacher_forced_accuracy(model, pairs: Sequence[tuple[list[int], list[int]]]) -> float:
    """Fraction of forced steps whose argmax equals the target token."""
    hits = total = 0
    for src, tgt in pairs:
        predicted = np.argmax(model.forced_logits(src, tgt).data, axis=1)
        hits += int((predicted == np.asarray(list(tgt) + [END_ID])).sum())
        total += len(predicted)
    return hits / total if total else 0.0


def mean_greedy_reward(
    reports: Sequence[Document],
    alignments: Sequence[OracleAlignment],
    extractor: ExtractorModel,
    abstractor,
    vocab: Vocab,
    config: RunConfig,
    *,
    paraphrase_cache: dict | None = None,
) -> float:
    """Mean greedy-rollout step reward across reports."""
    paired = _paired_examples(reports, alignments)
    if not paired:
        raise ValueError("no usable reports to evaluate")
    rewards = []
    for report, gold in paired:
        traj = rollout(
            report,
            gold,
            extractor,
            abstractor,
            vocab,
            config,
            mode="greedy",
            paraphrase_cache=paraphrase_cache,
        )
        rewards.append(traj.mean_reward())
    return float(np.mean(rewards))


def traced_peak(run) -> int:
    """The `tracemalloc` peak, in bytes, while `run()` runs (or raises)."""
    tracemalloc.start()
    try:
        run()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak
