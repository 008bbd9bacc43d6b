"""Synthetic corpus tests: determinism, optimality, round-trip."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrsum import synthgen
from narrsum.config import ConfigError
from narrsum.corpus import load_dataset
from narrsum.harness import cli
from narrsum.oracle import build_oracle, load_alignments
from narrsum.synthgen import MAX_REJECTED_DRAWS, SynthSpec, _Uncontained, generate


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(noise_rate=1.0)
    with pytest.raises(ValueError):
        SynthSpec(summary_sentences=5, sentences_per_report=4)
    with pytest.raises(ValueError):
        SynthSpec(vocabulary_size=3)
    with pytest.raises(ValueError):
        SynthSpec(min_sentence_tokens=0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": -2}, "seed must be at least 0"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"n_reports": "3"}, "n_reports must be an integer"),
        ({"noise_rate": None}, "noise_rate must be a number"),
    ],
)
def test_spec_rejects_mistyped_fields_and_negative_seed(fields, message):
    with pytest.raises(ValueError, match=message):
        SynthSpec(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": -2}, "bad synthesis spec: seed must be at least 0"),
        ({"n_reports": "3"}, "bad synthesis spec: n_reports must be an integer"),
        (5, "bad synthesis spec: synth spec root must be a JSON object"),
        # Only 10 one-token sentences avoid containing each other, far fewer than 40.
        (
            {"vocabulary_size": 10, "sentences_per_report": 40, "min_sentence_tokens": 1, "max_sentence_tokens": 1},
            f"synthesis spec cannot be met: {MAX_REJECTED_DRAWS} draws in a row",
        ),
    ],
)
def test_cli_unusable_spec_is_config_error(tmp_path, capsys, fields, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields), encoding="utf-8")
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err


def test_cli_refused_spec_leaves_data_root_as_it_was(tmp_path):
    # Training reports draw first; the unmeetable sentence count refuses the first one.
    spec = tmp_path / "spec.json"
    fields = {"vocabulary_size": 10, "sentences_per_report": 40, "min_sentence_tokens": 1, "max_sentence_tokens": 1}
    spec.write_text(json.dumps(fields), encoding="utf-8")
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(existing)]) == 2
    assert sorted(p.relative_to(existing).as_posix() for p in existing.rglob("*")) == ["notes.txt"]
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(tmp_path / "absent")]) == 2
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize(
    "first, second, stale",
    [
        ({"n_reports": 4}, {"n_reports": 2}, "training/annual_reports/tr0002.txt"),
        ({"summaries_per_report": 2}, {}, "training/gold_summaries/tr0000_2.txt"),
    ],
)
def test_cli_refuses_a_root_holding_files_of_another_spec(tmp_path, capsys, first, second, stale):
    """Rerunning a spec into its own root rewrites it alike; a spec that would
    leave another's report or summary files behind exits 2 naming the first,
    with the root as it was."""
    data, spec = tmp_path / "data", tmp_path / "spec.json"
    spec.write_text(json.dumps(first), encoding="utf-8")
    for _ in range(2):
        assert cli(["synthgen", "--spec", str(spec), "--data-root", str(data)]) == 0
    before = tree_digest(data)
    capsys.readouterr()
    spec.write_text(json.dumps(second), encoding="utf-8")
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(data)]) == 2
    assert str(data / stale) in capsys.readouterr().err
    assert tree_digest(data) == before


def test_refused_report_in_a_later_split_writes_nothing(tmp_path, monkeypatch):
    accept = synthgen.select_reference
    monkeypatch.setattr(
        synthgen, "select_reference", lambda report, index: None if report.id == "te0001" else accept(report)
    )
    with pytest.raises(ConfigError, match="te0001"):
        generate(SynthSpec(n_reports=2, n_validation_reports=1), tmp_path / "data")
    assert not (tmp_path / "data").exists()


def test_cli_report_without_argmax_consistent_draw_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synthgen, "select_reference", lambda report, index: None)
    assert cli(["synthgen", "--data-root", str(tmp_path / "data")]) == 2
    assert "no argmax-consistent report tr0000" in capsys.readouterr().err


def test_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 5, "n_reports": 3, "noise_rate": 0.1}), encoding="utf-8")
    spec = SynthSpec.from_json(path)
    assert (spec.seed, spec.n_reports, spec.noise_rate) == (5, 3, 0.1)
    path.write_text(json.dumps({"seed": 5, "bogus": 1}), encoding="utf-8")
    with pytest.raises(ValueError):
        SynthSpec.from_json(path)


def test_same_seed_byte_identical(tmp_path):
    spec = SynthSpec(seed=11, n_reports=4, sentences_per_report=8, summary_sentences=2, noise_rate=0.1)
    generate(spec, tmp_path / "a")
    generate(spec, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    generate(SynthSpec(seed=12, n_reports=4, sentences_per_report=8, summary_sentences=2, noise_rate=0.1), tmp_path / "c")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_small_noisy_corpus_keeps_its_bytes(tmp_path):
    """A fixed spec's corpus, digested when each token was its own rng call.

    The digest holds for the NumPy the project is tested on; a NumPy that
    changes its generator's stream may move it, and this test then says so.
    """
    spec = SynthSpec(seed=23, n_reports=3, sentences_per_report=10, summary_sentences=3, noise_rate=0.2,
                     summaries_per_report=2)
    generate(spec, tmp_path)
    assert tree_digest(tmp_path) == "3e2b3526bb64636cf5deec13fa4bd1619f9c52bd1bf1c95158e2440fcf946887"


@pytest.mark.parametrize("n", [10, 50, 2000, 20_000, 2**31, 2**32 + 5])
@pytest.mark.parametrize("seed", [0, 1, 7, 1001])
def test_one_sized_draw_equals_scalar_draws(n, seed):
    """`_draw_sentence` draws a sentence's tokens in one call: that must give
    the values of one call per token and leave the generator where they do."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in (1, 2, 3, 7, 22, 30):
        assert batched.integers(n, size=k).tolist() == [int(scalar.integers(n)) for _ in range(k)]
    assert batched.random() == scalar.random()
    assert int(batched.integers(n)) == int(scalar.integers(n))


def test_noise_free_oracle_recovery(tmp_path):
    spec = SynthSpec(seed=3, n_reports=6, sentences_per_report=10, summary_sentences=3, noise_rate=0.0)
    truth = generate(spec, tmp_path)
    data = load_dataset(tmp_path, 60)
    recovered = build_oracle(data.training)
    assert recovered == truth["training"]
    for alignment in truth["training"]:
        assert all(recall == 1.0 for _, _, recall in alignment.per_sentence)


def test_noisy_oracle_recovery_is_total(tmp_path):
    spec = SynthSpec(
        seed=7, n_reports=10, sentences_per_report=12, summary_sentences=3,
        noise_rate=0.15, summaries_per_report=2,
    )
    truth = generate(spec, tmp_path)
    data = load_dataset(tmp_path, 60)
    recovered = build_oracle(data.training)
    assert recovered == truth["training"]


def test_round_trip_token_sequences(tmp_path):
    spec = SynthSpec(seed=9, n_reports=3, sentences_per_report=6, summary_sentences=2)
    generate(spec, tmp_path)
    data = load_dataset(tmp_path, 60)
    assert len(data.training) == 3
    assert len(data.validation) == spec.n_validation_reports
    assert len(data.split("testing")) == spec.n_testing_reports
    for report in data.training:
        assert len(report.sentences) == 6
        for sent in report.sentences:
            assert 5 <= len(sent) <= 9
            assert all(tok.startswith("w") for tok in sent)
        for summary in report.summaries:
            assert len(summary) == 2


def test_truth_files_reload(tmp_path):
    spec = SynthSpec(seed=4, n_reports=3, sentences_per_report=6, summary_sentences=2)
    truth = generate(spec, tmp_path)
    for split in ("training", "validation", "testing"):
        reloaded = load_alignments(tmp_path / f"truth_alignments_{split}.jsonl")
        assert reloaded == truth[split]


def test_targets_are_sorted_and_unique(tmp_path):
    spec = SynthSpec(seed=2, n_reports=5, sentences_per_report=9, summary_sentences=4)
    truth = generate(spec, tmp_path)
    for alignment in truth["training"]:
        targets = alignment.extract_targets
        assert targets == sorted(set(targets))
        assert len(alignment.per_sentence) == 4


def is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(tok in it for tok in needle)


def pairwise_uncontained(candidates):
    """Reference for `_Uncontained`: each candidate against every kept sentence, both ways."""
    kept = []
    for cand in candidates:
        if any(is_subsequence(cand, s) or is_subsequence(s, cand) for s in kept):
            continue
        kept.append(cand)
    return kept


ragged_candidates = st.integers(1, 8).flatmap(
    lambda v: st.lists(
        st.lists(st.sampled_from([f"w{i}" for i in range(v)]), min_size=1, max_size=12),
        min_size=1,
        max_size=60,
    )
)


@settings(max_examples=300, deadline=None)
@given(ragged_candidates)
@example([["a", "b"], ["b", "a"], ["a", "b", "a"], ["a"], ["b", "b"], ["c", "a", "b"]])
@example([["a", "b", "c"], ["c", "b", "a"], ["a", "c"], ["b", "a", "c", "b"]])
def test_postings_filter_matches_pairwise_scan(candidates):
    kept = _Uncontained()
    offered = [kept.offer(list(cand)) for cand in candidates]
    expected = pairwise_uncontained(candidates)
    assert kept.sentences == expected
    assert [cand for cand, ok in zip(candidates, offered) if ok] == expected
