"""Extractive proxy labels for supervised pre-training.

For each gold summary sentence, find the report sentence whose LCS
covers it best; per report, keep the reference summary that those
extractions reconstruct with the highest summary-level recall.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Document, ReportExample, Sentence, SummarySet, read_jsonl, write_jsonl
from .rouge import rouge_l_sentence, rouge_l_summary

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
            chosen_summary=record["chosen_summary"],
            per_sentence=[(int(t), int(j), float(r)) for t, j, r in record["pairs"]],
            extract_targets=[int(i) for i in record["targets"]],
        )


def align_summary(report: Document, summary: Sequence[Sentence]) -> list[tuple[int, int, float]]:
    """Best report sentence per summary sentence by LCS recall.

    Recall is taken with the summary sentence as the denominator; ties,
    including the all-zero case, fall to the lowest report index.
    """
    if not report.sentences:
        raise ValueError(f"report {report.id} has no sentences")
    rows = []
    for t, target in enumerate(summary):
        best_idx = 0
        best_recall = -1.0
        for i, source in enumerate(report.sentences):
            recall = rouge_l_sentence(source.tokens, target.tokens).recall
            if recall > best_recall:
                best_idx, best_recall = i, recall
        rows.append((t, best_idx, best_recall))
    return rows


def _dedup_keep_order(indices: Sequence[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for idx in indices:
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
    return out


def select_reference(report: Document, summary_set: SummarySet) -> OracleAlignment:
    """Pick the reference summary best reconstructed by its own alignment."""
    if not summary_set.summaries:
        raise ValueError(f"report {report.id} has no summaries to align")
    best: OracleAlignment | None = None
    best_recall = -1.0
    for j, (_, sentences) in enumerate(summary_set.summaries):
        rows = align_summary(report, sentences)
        targets = _dedup_keep_order([jt for _, jt, _ in rows])
        extracted = [list(report.sentences[i].tokens) for i in targets]
        reference = [list(s.tokens) for s in sentences]
        recall = rouge_l_summary(extracted, reference).recall
        if recall > best_recall:
            best = OracleAlignment(report.id, j, rows, targets)
            best_recall = recall
    assert best is not None
    return best


def build_oracle(examples: Sequence[ReportExample]) -> list[OracleAlignment]:
    """One alignment per report, in report-id order; summary-less reports skipped."""
    alignments = []
    for ex in sorted(examples, key=lambda e: e.document.id):
        if not ex.summary_set.summaries:
            log.warning("skipping report %s: no gold summaries to align", ex.document.id)
            continue
        alignments.append(select_reference(ex.document, ex.summary_set))
    return alignments


def abstractor_pairs(
    alignment: OracleAlignment, report: Document, summary_set: SummarySet
) -> list[tuple[list[str], list[str]]]:
    """(report sentence, gold summary sentence) pairs, duplicates included."""
    _, chosen = summary_set.summaries[alignment.chosen_summary]
    pairs = []
    for t, j, _ in alignment.per_sentence:
        pairs.append((list(report.sentences[j].tokens), list(chosen[t].tokens)))
    return pairs


def save_alignments(alignments: Sequence[OracleAlignment], path: str | Path) -> None:
    write_jsonl((al.to_record() for al in alignments), path)


def load_alignments(path: str | Path) -> list[OracleAlignment]:
    return [OracleAlignment.from_record(record) for record in read_jsonl(path)]
