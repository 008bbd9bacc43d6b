"""Extractive proxy labels for supervised pre-training.

For each gold summary sentence, find the report sentence whose LCS
covers it best; per report, keep the reference summary that those
extractions reconstruct with the highest summary-level recall.
`aligned_reports` is the one join of a split's reports with their
alignments, which every training stage reads its data through.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, read_jsonl, write_jsonl
from .rouge import lcs_length, rouge_l_summary

log = logging.getLogger(__name__)


@dataclass
class OracleAlignment:
    report_id: str
    chosen_summary: int
    per_sentence: list[tuple[int, int, float]]
    extract_targets: list[int]

    def to_record(self) -> dict:
        return {
            "report_id": self.report_id,
            "chosen_summary": self.chosen_summary,
            "pairs": [[t, j, r] for t, j, r in self.per_sentence],
            "targets": list(self.extract_targets),
        }

    @staticmethod
    def from_record(record: dict) -> "OracleAlignment":
        return OracleAlignment(
            report_id=record["report_id"],
            chosen_summary=int(record["chosen_summary"]),
            per_sentence=[(int(t), int(j), float(r)) for t, j, r in record["pairs"]],
            extract_targets=[int(i) for i in record["targets"]],
        )


class SourceIndex:
    """The sentences of one report, indexed for the best-LCS search and
    for the sentence graphs of `baselines`: the report's only sentence x
    type counter.

    For each token type it keeps the sentences holding that type and how
    often, as flat postings grouped by type: memory is linear in the
    report's token count, with no sentences x vocabulary matrix.
    """

    def __init__(self, sentences: Sequence[Sequence[str]]):
        self.sentences = sentences
        self._types: dict[str, int] = {}
        tokens = [self._types.setdefault(tok, len(self._types)) for sent in sentences for tok in sent]
        n = max(len(sentences), 1)
        owners = np.repeat(np.arange(len(sentences)), [len(sent) for sent in sentences])
        # One posting per (type, sentence) pair, sorted by type, then by sentence.
        keys, self._counts = np.unique(np.array(tokens, dtype=np.int64) * n + owners, return_counts=True)
        self._ids = keys % n
        self._starts = np.searchsorted(keys // n, np.arange(len(self._types) + 1)).tolist()

    @property
    def df(self) -> np.ndarray:
        """Per type, in order of first appearance, the number of sentences holding it."""
        return np.diff(self._starts)

    def gram(self, type_weights: np.ndarray, counted: bool = True) -> np.ndarray:
        """`m @ m.T` for the sentences x types matrix `m` whose entry for a
        sentence and a type it holds is that type's weight (types in `df`'s
        order), times the sentence's count of it when `counted`.

        The postings of n consecutive types at a time are scattered into
        one reused n x n buffer and multiplied once, and the products are
        summed: no array is larger than n x n, whatever the vocabulary.
        """
        n = len(self.sentences)
        df = self.df
        values = np.repeat(type_weights, df)
        if counted:
            values *= self._counts
        width = max(n, 1)
        gram = np.zeros((n, n))
        block = np.zeros((n, width))
        product = np.empty((n, n))
        for first in range(0, len(df), width):
            used = min(width, len(df) - first)
            lo, hi = self._starts[first], self._starts[first + used]
            rows, cols = self._ids[lo:hi], np.repeat(np.arange(used), df[first : first + used])
            block[rows, cols] = values[lo:hi]
            gram += np.matmul(block[:, :used], block[:, :used].T, out=product)
            block[rows, cols] = 0.0
        return gram

    def overlap_bounds(self, target: Sequence[str]) -> np.ndarray:
        """Per sentence, the clipped unigram overlap with `target`: an upper bound on their LCS."""
        spans = []
        for tok, need in Counter(target).items():
            t = self._types.get(tok)
            if t is not None:
                spans.append((self._starts[t], self._starts[t + 1], need))
        if not spans:
            return np.zeros(len(self.sentences))
        ids = np.concatenate([self._ids[start:end] for start, end, _ in spans])
        caps = np.concatenate([np.minimum(self._counts[start:end], need) for start, end, need in spans])
        return np.bincount(ids, weights=caps, minlength=len(self.sentences))

    def best_source(self, target: Sequence[str]) -> tuple[int, int]:
        """The lowest index among the sentences with the longest LCS against `target`, and that length.

        Sentences are walked in index order and an LCS is computed only
        where the unigram bound could beat the best length so far, so the
        result is that of the full scan with a strict `>`.
        """
        bounds = self.overlap_bounds(target)
        best_idx, best = 0, 0
        candidates = np.flatnonzero(bounds)
        for i, bound in zip(candidates.tolist(), bounds[candidates].tolist()):
            if bound > best:
                matches = lcs_length(self.sentences[i], target)
                if matches > best:
                    best_idx, best = i, matches
        return best_idx, best


def align_summary(
    report: Document, summary: Sequence[Sequence[str]], index: SourceIndex | None = None
) -> list[tuple[int, int, float]]:
    """Best report sentence per summary sentence by LCS recall.

    Recall is taken with the summary sentence as the denominator; ties,
    including the all-zero case, fall to the lowest report index. `index`,
    when given, must be built from this report's sentences.
    """
    if not report.sentences:
        raise ValueError(f"report {report.id} has no sentences")
    if index is None:
        index = SourceIndex(report.sentences)
    rows = []
    for t, target in enumerate(summary):
        best_idx, matches = index.best_source(target)
        # Every candidate shares the denominator, so the most matches is the best recall.
        recall = matches / len(target) if target else 0.0
        rows.append((t, best_idx, recall))
    return rows


def _dedup_keep_order(indices: Sequence[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for idx in indices:
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
    return out


def pick_reference(
    report_id: str,
    report: Sequence[Sequence[str]],
    summaries: Sequence[Sequence[Sequence[str]]],
    rows: Sequence[list[tuple[int, int, float]]],
) -> OracleAlignment:
    """The alignment, among each summary's `rows`, whose extraction targets
    reconstruct that summary with the highest summary-level recall; ties
    fall to the earliest summary. Sentences are token sequences."""
    targets = [_dedup_keep_order([jt for _, jt, _ in summary_rows]) for summary_rows in rows]
    recalls = [rouge_l_summary([report[i] for i in kept], summary).recall for kept, summary in zip(targets, summaries)]
    j = max(range(len(rows)), key=lambda k: (recalls[k], -k))
    return OracleAlignment(report_id, j, rows[j], targets[j])


def select_reference(report: Document) -> OracleAlignment:
    """Pick the reference summary best reconstructed by its own alignment."""
    if not report.summaries:
        raise ValueError(f"report {report.id} has no summaries to align")
    index = SourceIndex(report.sentences)
    rows = [align_summary(report, summary, index) for summary in report.summaries]
    return pick_reference(report.id, report.sentences, report.summaries, rows)


def build_oracle(reports: Sequence[Document]) -> list[OracleAlignment]:
    """One alignment per report, in report-id order; summary-less reports skipped."""
    alignments = []
    for report in sorted(reports, key=lambda r: r.id):
        if not report.summaries:
            log.warning("skipping report %s: no gold summaries to align", report.id)
            continue
        alignments.append(select_reference(report))
    return alignments


def aligned_reports(
    reports: Sequence[Document], alignments: Sequence[OracleAlignment]
) -> list[tuple[Document, OracleAlignment]]:
    """Each report paired with its alignment, in the order of `reports`.

    An alignment of a report not in `reports`, and a report without an
    alignment, are each warned about and left out.
    """
    by_id = {report.id: report for report in reports}
    found = {al.report_id: al for al in alignments}
    for report_id in sorted(found.keys() - by_id.keys()):
        log.warning("alignment for unknown report %s ignored", report_id)
    for report_id in sorted(by_id.keys() - found.keys()):
        log.warning("report %s has no alignment; skipped", report_id)
    return [(report, found[report_id]) for report_id, report in by_id.items() if report_id in found]


def abstractor_pairs(
    alignment: OracleAlignment, report: Document
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(report sentence, gold summary sentence) pairs, duplicates included."""
    chosen = report.summaries[alignment.chosen_summary]
    return [(report.sentences[j], chosen[t]) for t, j, _ in alignment.per_sentence]


def save_alignments(alignments: Sequence[OracleAlignment], path: str | Path) -> None:
    write_jsonl((al.to_record() for al in alignments), path)


def load_alignments(path: str | Path) -> list[OracleAlignment]:
    return read_jsonl(path, OracleAlignment.from_record)
