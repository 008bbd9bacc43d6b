"""Proxy-label tests: alignment argmax, reference choice, persistence."""

import json
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrsum import oracle
from narrsum.abstractor import prepare_abstractor_pairs
from narrsum.corpus import RESERVED_TOKENS, DataError, Document, Vocab
from narrsum.extractor import prepare_extractor_examples
from narrsum.oracle import (
    OracleAlignment,
    SourceIndex,
    abstractor_pairs,
    align_summary,
    aligned_reports,
    build_oracle,
    load_alignments,
    save_alignments,
    select_reference,
)
from narrsum.rouge import lcs_length, rouge_l_sentence, rouge_l_summary


def make_doc(doc_id, token_lists, summaries=()):
    """A report of `token_lists`, with gold summaries each given as token lists."""
    return Document(doc_id, [tuple(toks) for toks in token_lists], [[tuple(toks) for toks in s] for s in summaries])


def scan_align_summary(report, summary):
    """Every (report sentence, summary sentence) LCS; the reference the bound-pruned argmax replaced."""
    rows = []
    for t, target in enumerate(summary):
        best_idx = 0
        best_recall = -1.0
        for i, source in enumerate(report.sentences):
            recall = rouge_l_sentence(source, target).recall
            if recall > best_recall:
                best_idx, best_recall = i, recall
        rows.append((t, best_idx, best_recall))
    return rows


# ---------------------------------------------------------------- align_summary


def test_align_verbatim_copies():
    doc = make_doc("r", [["profit", "rose"], ["costs", "fell"], ["cash", "grew"]])
    rows = align_summary(doc, [("profit", "rose"), ("costs", "fell")])
    assert rows == [(0, 0, 1.0), (1, 1, 1.0)]


def test_align_tie_prefers_lowest_index():
    doc = make_doc("r", [["profit", "up"], ["profit", "up", "again"]])
    assert align_summary(doc, [("profit", "up")]) == [(0, 0, 1.0)]


def test_align_zero_overlap_falls_to_index_zero():
    doc = make_doc("r", [["alpha"], ["beta"]])
    assert align_summary(doc, [("zeta", "eta")]) == [(0, 0, 0.0)]


token_lists = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=5), min_size=1, max_size=6
)


@settings(max_examples=150)
@given(token_lists, token_lists)
def test_align_dominance(report_sents, summary_sents):
    doc = make_doc("r", report_sents)
    for t, j, recall in align_summary(doc, [tuple(s) for s in summary_sents]):
        target = summary_sents[t]
        assert recall == pytest.approx(lcs_length(report_sents[j], target) / len(target))
        for other in report_sents:
            assert lcs_length(other, target) / len(target) <= recall + 1e-12


# Report tokens repeat often over four letters; "x" and "y" never occur in a report.
ragged_reports = st.lists(st.lists(st.sampled_from("abcd"), max_size=8), min_size=1, max_size=10)
ragged_targets = st.lists(st.lists(st.sampled_from("abcdxy"), max_size=8), max_size=6)


@settings(max_examples=300)
@given(ragged_reports, ragged_targets)
# Equal bounds, the later sentence with the longer LCS.
@example([["b", "a"], ["a", "b"], ["a", "b", "a"]], [["a", "b"]])
# Equal bounds and equal LCS at a later index.
@example([["c"], ["a", "b"], ["b", "a", "b"], ["a", "b"]], [["a", "b"], ["b", "a"]])
# No overlap, tokens absent from the report, an empty target.
@example([["a", "b"], ["c"]], [["x", "y"], ["d"], []])
def test_pruned_align_matches_full_scan(report_sents, summary_sents):
    doc = make_doc("r", report_sents)
    summary = [tuple(s) for s in summary_sents]
    assert align_summary(doc, summary) == scan_align_summary(doc, summary)
    index = SourceIndex(report_sents)
    for target in summary_sents:
        expected = [sum((Counter(source) & Counter(target)).values()) for source in report_sents]
        assert index.overlap_bounds(target).tolist() == expected


def test_pruned_align_skips_sentences_that_cannot_win(monkeypatch):
    calls = []

    def counting_lcs(a, b):
        calls.append(a)
        return lcs_length(a, b)

    monkeypatch.setattr(oracle, "lcs_length", counting_lcs)
    doc = make_doc("r", [["profit", "rose"], ["costs", "fell"], ["profit", "fell"], ["cash", "grew"]])
    assert align_summary(doc, [("profit", "rose")]) == [(0, 0, 1.0)]
    assert calls == [("profit", "rose")]


# ---------------------------------------------------------------- select_reference


def test_select_single_summary():
    doc = make_doc("r", [["a", "b"], ["c", "d"]], [[["a", "b"]]])
    alignment = select_reference(doc)
    assert alignment.chosen_summary == 0
    assert alignment.extract_targets == [0]


def test_select_prefers_reconstructable_summary():
    disjoint = [["zebra", "quark"]]
    verbatim = [["profit", "rose", "sharply"]]
    doc = make_doc("r", [["profit", "rose", "sharply"], ["costs", "fell", "hard"]], [disjoint, verbatim])
    alignment = select_reference(doc)
    assert alignment.chosen_summary == 1
    assert alignment.per_sentence == [(0, 0, 1.0)]


def test_select_matches_exhaustive_recomputation():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    report_sents = [[vocab[rng.integers(0, 12)] for _ in range(6)] for _ in range(10)]
    summaries = [[[vocab[rng.integers(0, 12)] for _ in range(5)] for _ in range(3)] for _ in range(3)]
    doc = make_doc("r", report_sents, summaries)
    alignment = select_reference(doc)

    recalls = []
    for sentences in summaries:
        rows = align_summary(doc, sentences)
        targets = []
        for _, jt, _ in rows:
            if jt not in targets:
                targets.append(jt)
        extracted = [report_sents[i] for i in targets]
        recalls.append(rouge_l_summary(extracted, sentences).recall)
    expected = max(range(3), key=lambda j: (recalls[j], -j))
    assert alignment.chosen_summary == expected


def test_select_tie_prefers_lowest_summary():
    doc = make_doc("r", [["a", "b"]], [[["a", "b"]], [["a", "b"]]])
    assert select_reference(doc).chosen_summary == 0


# ---------------------------------------------------------------- build + persist


def _examples():
    return [
        make_doc("r1", [["profit", "rose"], ["costs", "fell"]], [[["profit", "rose"], ["costs", "fell"]]]),
        make_doc("r2", [["cash", "grew"], ["debt", "shrank"]], [[["debt", "shrank"]]]),
    ]


def test_build_oracle_round_trip(tmp_path):
    alignments = build_oracle(_examples())
    assert [a.report_id for a in alignments] == ["r1", "r2"]
    assert alignments[0].extract_targets == [0, 1]
    assert alignments[1].extract_targets == [1]

    path = tmp_path / "alignments.jsonl"
    save_alignments(alignments, path)
    first = path.read_bytes()
    save_alignments(alignments, path)
    assert path.read_bytes() == first

    reloaded = load_alignments(path)
    assert reloaded == alignments


def test_build_oracle_skips_summaryless(caplog):
    examples = _examples()
    examples.append(make_doc("r3", [["lонely"]]))
    with caplog.at_level(logging.WARNING):
        alignments = build_oracle(examples)
    assert [a.report_id for a in alignments] == ["r1", "r2"]
    assert any("r3" in rec.message for rec in caplog.records)


def test_targets_dedup_keeps_first_occurrence():
    doc = make_doc("r", [["alpha", "beta"], ["gamma", "delta"]], [[["gamma"], ["alpha"], ["gamma", "delta"]]])
    alignment = select_reference(doc)
    assert [j for _, j, _ in alignment.per_sentence] == [1, 0, 1]
    assert alignment.extract_targets == [1, 0]
    assert len(alignment.extract_targets) <= len(alignment.per_sentence)


def test_abstractor_pairs_duplicates_included():
    doc = make_doc("r", [["alpha", "beta"], ["gamma", "delta"]], [[["gamma"], ["alpha"], ["gamma", "delta"]]])
    alignment = select_reference(doc)
    pairs = abstractor_pairs(alignment, doc)
    assert pairs == [
        (("gamma", "delta"), ("gamma",)),
        (("alpha", "beta"), ("alpha",)),
        (("gamma", "delta"), ("gamma", "delta")),
    ]


def _three_reports():
    """Reports r1..r3, each with its own tokens and one gold summary copying its second sentence."""
    return [make_doc(rid, [[f"{rid}a"], [f"{rid}b"]], [[[f"{rid}b"]]]) for rid in ("r1", "r2", "r3")]


def test_aligned_reports_follow_report_order_not_record_order():
    examples = _three_reports()
    alignments = [OracleAlignment(rid, 0, [(0, 1, 1.0)], [1]) for rid in ("r3", "r1", "r2")]
    joined = aligned_reports(examples, alignments)
    assert [(report.id, al.report_id) for report, al in joined] == [("r1", "r1"), ("r2", "r2"), ("r3", "r3")]
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + [f"{rid}{x}" for rid in ("r1", "r2", "r3") for x in "ab"])
    assert [rid for rid, _, _ in prepare_extractor_examples(examples, alignments, vocab)] == ["r1", "r2", "r3"]
    pairs = prepare_abstractor_pairs(examples, alignments, vocab)
    assert [vocab.decode(src) for src, _ in pairs] == [["r1b"], ["r2b"], ["r3b"]]


def test_aligned_reports_warn_for_unknown_and_unaligned_reports(caplog):
    alignments = [OracleAlignment("ghost", 0, [(0, 0, 1.0)], [0]), OracleAlignment("r2", 0, [(0, 1, 1.0)], [1])]
    with caplog.at_level(logging.WARNING, logger="narrsum.oracle"):
        joined = aligned_reports(_three_reports(), alignments)
    assert [report.id for report, _ in joined] == ["r2"]
    messages = [rec.getMessage() for rec in caplog.records]
    assert messages == [
        "alignment for unknown report ghost ignored",
        "report r1 has no alignment; skipped",
        "report r3 has no alignment; skipped",
    ]


@pytest.mark.parametrize(
    "bad_line",
    [
        b"{not json", b'{"report_id": "r2", "pairs": [], "targets": []}', b"[1, 2]", b'"r2"',
        b'{"report_id": "r\xff2"}', b'{"report_id": "r2", "chosen_summary": "first", "pairs": [], "targets": []}',
    ],
    ids=["not-json", "missing-field", "list", "string", "not-utf8", "non-integer-summary"],
)
def test_load_alignments_names_file_and_line_of_a_malformed_record(tmp_path, bad_line):
    path = tmp_path / "alignments.jsonl"
    good = json.dumps(OracleAlignment("r1", 0, [(0, 1, 1.0)], [1]).to_record()).encode()
    path.write_bytes(good + b"\n\n" + bad_line + b"\n" + good + b"\n")
    with pytest.raises(DataError, match=r"alignments\.jsonl line 3: malformed record"):
        load_alignments(path)


def test_record_round_trip_preserves_fields():
    alignment = OracleAlignment("rep", 2, [(0, 3, 0.5), (1, 1, 1.0)], [3, 1])
    again = OracleAlignment.from_record(alignment.to_record())
    assert again == alignment
