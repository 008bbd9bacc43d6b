"""Extractive proxy labels for supervised pre-training.

For each gold summary sentence, find the report sentence whose LCS
covers it best; per report, keep the reference summary that those
extractions reconstruct with the highest summary-level recall.
`aligned_reports` is the one join of a split's reports with their
alignments, which every training stage reads its data through.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, read_jsonl, write_jsonl
from .rouge import lcs_length, rouge_l_summary

log = logging.getLogger(__name__)

# A type held by df of a report's n sentences takes `SourceIndex.gram`'s
# pair path when _PAIR_DF_RATIO * df <= n, and the dense blocks otherwise.
# The pair path costs a type about c_pair * df^2 and a dense block about
# c_dense * n^2, so the two meet at n / df = sqrt(c_pair / c_dense). Timed per
# type on one core (Xeon, OpenBLAS at 1 thread), with n types of one df in a
# full block, the costs were equal at n / df of about 15-20 for n = 300, 23 for
# n = 1000 and 26 for n = 3000 (c_pair 4-7 ns, c_dense 11-35 ps); 24 lies in
# that range.
_PAIR_DF_RATIO = 24


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
        """The alignment a record holds; a field of the wrong JSON type is a `ValueError`."""
        pairs = [_typed(pair, list) for pair in _typed(record["pairs"], list)]
        return OracleAlignment(
            report_id=_typed(record["report_id"], str),
            chosen_summary=_typed(record["chosen_summary"], int),
            # Unpacking refuses a pair that is not 3 items.
            per_sentence=[(_typed(t, int), _typed(j, int), float(_typed(r, int, float))) for t, j, r in pairs],
            extract_targets=[_typed(i, int) for i in _typed(record["targets"], list)],
        )


def _typed(value, *types: type):
    """`value` if its exact type is one of `types` (a JSON `true` is no int) and it is not a NaN or infinity."""
    if type(value) not in types or (type(value) is float and not math.isfinite(value)):
        raise ValueError(f"expected {' or '.join(t.__name__ for t in types)} and no NaN or infinity, got {value!r}")
    return value


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
        self._first = np.searchsorted(keys // n, np.arange(len(self._types) + 1))
        self._starts = self._first.tolist()
        # Per type, in order of first appearance, the number of sentences holding it.
        self.df = np.diff(self._first)

    def gram(self, type_weights: np.ndarray, counted: bool = True) -> np.ndarray:
        """`m @ m.T` for the sentences x types matrix `m` whose entry for a
        sentence and a type it holds is that type's weight (types in `df`'s
        order), times the sentence's count of it when `counted`.

        A type held by few sentences adds the product of its values for each
        ordered pair of its sentences, and those pairs are summed by
        `np.bincount`; the other types are multiplied as dense blocks (see
        `_PAIR_DF_RATIO`). No array is larger than n x n, and at most four
        n x n arrays are alive at once, whatever the vocabulary.
        """
        values = np.repeat(type_weights, self.df)
        if counted:
            values *= self._counts
        rare = _PAIR_DF_RATIO * self.df <= len(self.sentences)
        gram = self._pair_sums(values, np.flatnonzero(rare))
        self._add_blocks(gram, values, np.flatnonzero(~rare))
        return gram

    def _postings(self, types: np.ndarray) -> np.ndarray:
        """Where the postings of `types` (at least one) lie, type after type."""
        df = self.df[types]
        ends = np.cumsum(df)
        return np.repeat(self._first[types] - ends + df, df) + np.arange(ends[-1])

    def _pair_sums(self, values: np.ndarray, types: np.ndarray) -> np.ndarray:
        """The gram of `types` alone: per type, the product of its values
        over each ordered pair of the sentences holding it, summed.

        A type held by one sentence adds only to that diagonal entry. The
        others are taken by `df`: per group, one broadcast writes the pair
        keys `a * n + b` and one their products into buffers of at most
        n * n // 2 pairs, and each full buffer is summed by one `np.bincount`.
        """
        n = len(self.sentences)
        types = types[np.argsort(self.df[types], kind="stable")]
        df = self.df[types]
        counts = np.bincount(df, minlength=2)
        ends = np.cumsum(counts).tolist()  # the types of df d are types[ends[d - 1] : ends[d]]
        single = self._first[types[: ends[1]]]
        room = min(int(np.dot(df, df)) - len(single), n * n // 2)
        keys, products = np.empty(room, dtype=np.int64), np.empty(room)
        gram, used = None, 0
        for d in (np.flatnonzero(counts[2:]) + 2).tolist():
            # room >= d * d: it counts this group's pairs, and _PAIR_DF_RATIO * d <= n.
            step, last = room // (d * d), ends[d]
            for lo in range(ends[d - 1], last, step):
                chunk = types[lo : min(lo + step, last)]
                size = len(chunk) * d * d
                if used + size > room:
                    gram = _add_counts(gram, keys[:used], products[:used], n * n)
                    used = 0
                # d x len(chunk) postings: the types run along the inner axis,
                # so that the broadcasts loop over long rows, not d-long ones.
                self._write_pairs(self._first[chunk] + np.arange(d)[:, None], values, keys[used : used + size],
                                  products[used : used + size])
                used += size
        gram = _add_counts(gram, keys[:used], products[:used], n * n).reshape(n, n)
        gram.reshape(-1)[:: n + 1] += np.bincount(self._ids[single], np.square(values[single]), minlength=n)
        return gram

    def _write_pairs(self, posting: np.ndarray, values: np.ndarray, keys: np.ndarray, products: np.ndarray) -> None:
        """For postings `posting[:, k]` of one type per column k, write each
        ordered pair (a, b) of them as key `ids[a] * n + ids[b]` and product
        `values[a] * values[b]`, in (a, b, k) order. A method of its own so
        that its temporaries are freed before the next buffer is summed."""
        ids, vals = self._ids[posting], values[posting]
        shape = (len(posting), *posting.shape)
        np.add((ids * len(self.sentences))[:, None], ids, out=keys.reshape(shape))
        np.multiply(vals[:, None], vals, out=products.reshape(shape))

    def _add_blocks(self, gram: np.ndarray, values: np.ndarray, types: np.ndarray) -> None:
        """Add to `gram` the gram of `types`, up to n types at a time: each
        block of their columns of `m` is scattered into one reused buffer,
        only as wide as the block, and multiplied once."""
        if not len(types):
            return
        n = len(gram)
        width = min(n, len(types))
        block = np.zeros((n, width))
        product = np.empty((n, n))
        for first in range(0, len(types), width):
            chunk = types[first : first + width]
            posting = self._postings(chunk)
            rows, cols = self._ids[posting], np.repeat(np.arange(len(chunk)), self.df[chunk])
            block[rows, cols] = values[posting]
            used = block[:, : len(chunk)]
            gram += np.matmul(used, used.T, out=product)
            block[rows, cols] = 0.0

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


def _add_counts(total: np.ndarray | None, keys: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """`np.bincount(keys, weights, minlength=length)`, added into `total` unless it is None."""
    # Empty `weights` give int64 zeros.
    counts = np.bincount(keys, weights, minlength=length).astype(np.float64, copy=False)
    if total is None:
        return counts
    total += counts
    return total


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


def select_reference(report: Document, index: SourceIndex | None = None) -> OracleAlignment:
    """Pick the reference summary best reconstructed by its own alignment.

    `index`, when given, must be built from this report's sentences.
    """
    if not report.summaries:
        raise ValueError(f"report {report.id} has no summaries to align")
    if index is None:
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
