"""Command-line round trips plus units for the text and report helpers."""

import dataclasses
import json
import logging
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from narrsum import autodiff as ad
from narrsum import harness, rl
from narrsum.abstractor import AbstractorModel
from narrsum.config import ConfigError, RunConfig, load_config
from narrsum.corpus import (
    DataError,
    Document,
    load_dataset,
    sentences_from_text,
)
from narrsum.extractor import ExtractorModel, doc_to_ids, pointer_chooser
from narrsum.rouge import REPORT_METRICS, RougeScore
from narrsum.harness import (
    EvaluationReport,
    _load_models,
    _resolve_config,
    _training_vocab,
    build_parser,
    cli,
    detokenize,
    evaluate_system,
    report_rows,
    summarize_document,
    truncate_sentences,
    truncate_to_word_limit,
    write_report,
)

# The published settings.
CONFIG = RunConfig()
MAX_TOKENS = CONFIG.max_sentence_tokens

TINY_CONFIG = {
    "embedding_dim": 12,
    "hidden_dim": 8,
    "vocab_size": 80,
    "extractor_epochs": 2,
    "abstractor_epochs": 2,
    "batch_size": 4,
    "rl_episodes": 2,
    "rl_updates_every": 2,
    "max_output_tokens": 8,
}

TINY_SPEC = {
    "n_reports": 4,
    "n_validation_reports": 2,
    "n_testing_reports": 2,
    "sentences_per_report": 8,
    "summary_sentences": 2,
    "seed": 7,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A synthetic corpus taken through synthgen -> ... -> summarize."""
    root = tmp_path_factory.mktemp("cli")
    data, out = root / "data", root / "out"
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    spec = root / "synth.json"
    spec.write_text(json.dumps(TINY_SPEC))
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(data)]) == 0
    base = ["--config", str(cfg), "--data-root", str(data), "--out", str(out)]
    for sub in ("ingest", "oracle", "train-extractor", "train-abstractor", "summarize"):
        assert cli([sub, *base]) == 0
    return {"data": data, "out": out, "cfg": cfg, "base": base, "root": root}


# ---------------------------------------------------------------- text helpers


def test_truncate_to_word_limit_frozen():
    tokens = [f"t{i}" for i in range(1200)]
    assert truncate_to_word_limit(tokens, CONFIG.word_limit) == tokens[:1000]
    assert truncate_to_word_limit(tokens[:999], CONFIG.word_limit) == tokens[:999]
    assert truncate_to_word_limit(["a", "b"], 2) == ["a", "b"]
    with pytest.raises(ValueError):
        truncate_to_word_limit(tokens, 0)


def test_truncate_sentences_budget_crosses_mid_sentence():
    sents = [["a"] * 5, ["b"] * 4, ["c"] * 3]
    assert truncate_sentences(sents, 7) == [["a"] * 5, ["b"] * 2]
    assert truncate_sentences(sents, 100) == sents
    assert truncate_sentences(sents, 9) == [["a"] * 5, ["b"] * 4]
    assert truncate_sentences(sents, 5) == [["a"] * 5]


def test_truncate_sentences_drops_empty_sentences():
    """Empty rewrites and empty report sentences both vanish here, before the text is written."""
    assert truncate_sentences([[], ["a"] * 2, [], ["b"]], 3) == [["a"] * 2, ["b"]]
    assert truncate_sentences([["a"] * 3, []], 3) == [["a"] * 3]


def test_detokenize_periods_and_capitals():
    assert detokenize([["profit", "rose"], ["costs", "fell"]]) == "Profit rose. Costs fell."
    assert detokenize([["profit", "rose", "."]]) == "Profit rose ."
    assert detokenize([[], ["margin"]]) == "Margin."
    assert detokenize([]) == ""


def test_detokenize_round_trips_through_sentence_splitter():
    text = detokenize([["net", "profit", "rose"], ["debt", "fell", "sharply"]])
    assert text == "Net profit rose. Debt fell sharply."
    back = sentences_from_text(text, MAX_TOKENS)
    assert back == [("net", "profit", "rose"), ("debt", "fell", "sharply")]


# ---------------------------------------------------------------- evaluation


def _refs(rid: str, *texts: str) -> dict[str, list[list[tuple[str, ...]]]]:
    return {rid: [sentences_from_text(t, MAX_TOKENS) for t in texts]}


def test_evaluate_identical_prediction_scores_one():
    text = "Profit rose sharply this year. Operating costs fell."
    result = evaluate_system({"r1": text}, _refs("r1", text), CONFIG)
    for label in REPORT_METRICS:
        assert result.cells[label].f1 == pytest.approx(1.0)
        assert result.cells[label].precision == pytest.approx(1.0)
    assert result.missing_references == []


def test_evaluate_empty_prediction_scores_zero():
    result = evaluate_system({"r1": ""}, _refs("r1", "Profit rose."), CONFIG)
    for label in REPORT_METRICS:
        assert result.cells[label] == RougeScore(0.0, 0.0, 0.0)
    assert "r1" in result.per_document


def test_evaluate_missing_reference_excluded(caplog):
    with caplog.at_level(logging.WARNING):
        result = evaluate_system({"ghost": "Profit rose."}, _refs("r1", "Profit rose."), CONFIG)
    assert result.missing_references == ["ghost"]
    assert result.per_document == {}
    assert all(result.cells[label] == RougeScore(0.0, 0.0, 0.0) for label in REPORT_METRICS)
    assert "without references" in caplog.text


def test_evaluate_reference_set_without_summaries_counts_missing():
    refs = {"r1": []}
    result = evaluate_system({"r1": "Profit rose."}, refs, CONFIG)
    assert result.missing_references == ["r1"]


def test_evaluate_cells_average_over_documents():
    refs = {**_refs("a", "alpha beta gamma."), **_refs("b", "delta epsilon zeta.")}
    preds = {"a": "Alpha beta gamma.", "b": "One two three."}
    result = evaluate_system(preds, refs, CONFIG)
    assert result.cells["rouge-1"].f1 == pytest.approx(0.5)
    assert result.per_document["a"]["rouge-1"].f1 == pytest.approx(1.0)
    assert result.per_document["b"]["rouge-1"].f1 == pytest.approx(0.0)


def test_evaluate_mean_aggregation_averages_references():
    refs = _refs("r1", "alpha beta gamma.", "delta epsilon zeta.")
    best = evaluate_system({"r1": "Alpha beta gamma."}, refs, RunConfig(reference_aggregation="max"))
    mean = evaluate_system({"r1": "Alpha beta gamma."}, refs, RunConfig(reference_aggregation="mean"))
    assert best.cells["rouge-1"].f1 == pytest.approx(1.0)
    assert mean.cells["rouge-1"].f1 == pytest.approx(0.5)


def test_report_rows_fixed_order():
    text = "Profit rose."
    report = EvaluationReport("testing", "max", [evaluate_system({"r1": text}, _refs("r1", text), CONFIG)])
    labels = [label for label, _ in report_rows(report)]
    assert labels == [
        "precision(rouge-l)", "recall(rouge-l)", "f1(rouge-l)",
        "precision(rouge-1)", "recall(rouge-1)", "f1(rouge-1)",
        "precision(rouge-2)", "recall(rouge-2)", "f1(rouge-2)",
        "precision(rouge-su4)", "recall(rouge-su4)", "f1(rouge-su4)",
    ]


def test_write_report_files(tmp_path):
    text = "Profit rose sharply. Costs fell."
    systems = [
        evaluate_system({"r1": text}, _refs("r1", text), CONFIG, system="mine"),
        evaluate_system({"r1": "Unrelated words entirely."}, _refs("r1", text), CONFIG, system="noise"),
    ]
    write_report(EvaluationReport("testing", "max", systems), tmp_path)
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,mine,noise"
    assert len(csv_lines) == 13
    assert csv_lines[3] == "f1(rouge-l),1.000000,0.000000"
    txt = (tmp_path / "report.txt").read_text()
    assert "split: testing  aggregation: max" in txt
    assert "mine: 1 documents scored" in txt
    doc_lines = (tmp_path / "report_documents.csv").read_text().splitlines()
    assert doc_lines[0] == "system,report_id,metric,precision,recall,f1"
    assert len(doc_lines) == 1 + 2 * 4  # two systems x four variants for one report
    assert doc_lines[1] == "mine,r1,rouge-l,1.000000,1.000000,1.000000"


# ---------------------------------------------------------------- config plumbing


def test_load_config_rejects_unknown_keys(tmp_path, capsys):
    """Among them the switches of an RL fine-tune of the abstractor, an
    entropy bonus, advantage normalisation and frozen embeddings."""
    path = tmp_path / "c.json"
    for key, value in (("nonsense_key", 3), ("freeze_embeddings", False), ("rl_finetune_abstractor", False),
                       ("entropy_coef", 0.0), ("normalize_advantage", False)):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_config(path)
        assert cli(["train-rl", "--config", str(path), "--data-root", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert "unknown config fields" in capsys.readouterr().err


def test_load_config_rejects_broken_json_and_non_objects(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    with pytest.raises(ConfigError):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(listy)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_flag_overrides_beat_config_file(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 5, "data_root": "from_file"}))
    parser = build_parser()
    ns = parser.parse_args(["ingest", "--config", str(cfg), "--seed", "9"])
    config = _resolve_config(ns)
    assert config.seed == 9
    assert config.data_root == "from_file"
    ns = parser.parse_args(["ingest", "--config", str(cfg), "--data-root", "flag_wins"])
    assert _resolve_config(ns).data_root == "flag_wins"
    assert _resolve_config(parser.parse_args(["ingest"])) == RunConfig()


# ---------------------------------------------------------------- argument parsing

# No case names a data root, so every command that parses stops at its
# missing `--data-root` (or its missing `--config` file) before reading data.
PARSE_CASES = [
    [], ["-h"], ["--help"], ["--"], ["--", "ingest"], ["frobnicate"], ["--seed", "3"], ["-", "ingest"],
    ["ingest"], ["--seed", "3", "ingest", "--out", "o"], ["ingest", "--seed", "3", "--out=o"],
    ["--seed=4", "train-abstractor"], ["--out=o", "baseline", "--method", "lead"],
    ["--conf", "absent.json", "ingest"], ["ingest", "--conf", "absent.json"], ["--se", "2", "oracle", "--o", "x"],
    ["--out", "oracle", "train-rl"], ["--out", "train-rl", "oracle"], ["ingest", "oracle"],
    ["baseline", "--split", "testing"], ["baseline", "--method", "zzz"], ["baseline", "--method", "lead", "-h"],
    ["-h", "baseline"], ["baseline", "-h", "--method", "zzz"], ["summarize", "--split", "validation", "--help"],
    ["--bogus", "ingest", "oracle"], ["--bogus", "ingest", "oracle", "-h"], ["--seed", "x", "ingest"],
    ["evaluate", "--pred", "a", "b", "--split", "validation"], ["train-extractor", "--", "x"],
    ["summarize", "--extractor", "e", "--abstractor", "a", "--split", "training"],
    ["synthgen", "--spec", "s.json", "--seed", "7"], ["train-rl", "--out", "o", "--config"],
    ["ingest", "--bogus"], ["--bogus"], ["--bogus", "ingest"], ["baseline", "--method", "lead", "extra"],
]


def _full_parser():
    """The CLI parser with every command's arguments built before it parses."""
    parser = build_parser()
    for command in parser.commands.values():
        command.format_usage()
    return parser


def _cli_outcome(argv, monkeypatch, capsys, full_parser):
    """(exit code, namespaces handed to `_resolve_config`, stdout, stderr) of
    `cli(argv)`, with every command's arguments built first when `full_parser`."""
    namespaces = []
    resolve = harness._resolve_config
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_resolve_config", lambda ns: namespaces.append(vars(ns)) or resolve(ns))
        if full_parser:
            patch.setattr(harness, "build_parser", _full_parser)
        code = cli(argv)
    out, err = capsys.readouterr()
    return code, namespaces, out, err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_cli_parse_with_lazy_command_parsers_equals_the_full_parse(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _cli_outcome(argv, monkeypatch, capsys, False) == _cli_outcome(argv, monkeypatch, capsys, True)


def test_cli_builds_only_the_parser_of_the_command_it_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    build = harness._CommandParser._build
    monkeypatch.setattr(harness._CommandParser, "_build", lambda self: built.append(self.prog) or build(self))
    assert cli(["--out", "oracle", "baseline", "--method", "lead"]) == 1  # no --data-root
    assert set(built) == {"narrsum baseline"}


def test_cli_usage_error_prints_the_usage_of_the_failing_command(capsys):
    assert cli(["baseline", "--split", "testing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: narrsum baseline")
    assert err.endswith("error: the following arguments are required: --method\n")
    assert cli(["ingest"]) == 1  # refused by the command, not by its parser
    assert capsys.readouterr().err.startswith("usage: narrsum ingest")
    assert cli(["ingest", "--bogus"]) == 1  # left over by the command's parser
    err = capsys.readouterr().err
    assert err.startswith("usage: narrsum ingest")
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    assert cli([]) == 1
    assert capsys.readouterr().err.startswith("usage: narrsum [-h]")


# ---------------------------------------------------------------- model plumbing


def _toy_models(tmp_path, vocab_tail=("alpha", "beta"), dims=(6, 4)):
    vocab = ["<pad>", "<unk>", "<s>", "</s>", *vocab_tail]
    rng = np.random.default_rng(0)
    extractor = ExtractorModel(len(vocab), dims[0], dims[1], rng)
    abstractor = AbstractorModel(len(vocab), dims[0], dims[1], rng)
    ex_path, ab_path = tmp_path / "e.ckpt", tmp_path / "a.ckpt"
    extractor.save(ex_path, vocab)
    abstractor.save(ab_path, vocab)
    return ex_path, ab_path, vocab


def test_load_models_round_trip(tmp_path):
    ex_path, ab_path, vocab = _toy_models(tmp_path)
    extractor, abstractor, loaded = _load_models(ex_path, ab_path, RunConfig(), False)
    assert loaded.to_list() == vocab
    assert extractor.hidden_dim == 4 and abstractor.hidden_dim == 4


def test_load_models_vocab_mismatch_is_data_error(tmp_path):
    ex_path, ab_path, vocab = _toy_models(tmp_path)
    rng = np.random.default_rng(1)
    other = ["<pad>", "<unk>", "<s>", "</s>", "gamma", "delta"]
    AbstractorModel(len(other), 6, 4, rng).save(ab_path, other)
    with pytest.raises(DataError, match="disagree"):
        _load_models(ex_path, ab_path, RunConfig(), False)


def test_load_models_requires_embedded_vocab(tmp_path):
    ex_path, ab_path, vocab = _toy_models(tmp_path)
    ExtractorModel(len(vocab), 6, 4, np.random.default_rng(2)).save(ex_path, None)
    with pytest.raises(DataError, match="vocabulary"):
        _load_models(ex_path, ab_path, RunConfig(), False)


def test_load_models_missing_file_is_data_error(tmp_path):
    ex_path, ab_path, _ = _toy_models(tmp_path)
    with pytest.raises(DataError, match="missing"):
        _load_models(tmp_path / "nope.ckpt", ab_path, RunConfig(), False)


def test_load_models_config_enforced_only_when_asked(tmp_path):
    ex_path, ab_path, _ = _toy_models(tmp_path)
    mismatched = RunConfig(embedding_dim=300, hidden_dim=64)
    _load_models(ex_path, ab_path, mismatched, False)  # config not supplied: no check
    with pytest.raises(DataError, match="does not match"):
        _load_models(ex_path, ab_path, mismatched, True)
    _load_models(ex_path, ab_path, RunConfig(embedding_dim=6, hidden_dim=4), True)


def test_training_vocab_covers_summary_only_tokens():
    summary = sentences_from_text("alpha zulu.", MAX_TOKENS)
    doc = Document("r1", sentences_from_text("alpha beta gamma.", MAX_TOKENS), [summary])
    dataset_like = type("D", (), {"training": [doc]})()
    vocab = _training_vocab(dataset_like, RunConfig())
    assert "zulu" in vocab.to_list()
    again = _training_vocab(dataset_like, RunConfig())
    assert vocab.to_list() == again.to_list()


# ---------------------------------------------------------------- summarize unit


def _stop_first_pipeline(text: str, seed: int):
    """A document and untrained models whose pointer picks stop at its first step."""
    doc = Document("r1", sentences_from_text(text, MAX_TOKENS), [])
    vocab = _training_vocab(type("D", (), {"training": [doc]})(), RunConfig())
    rng = np.random.default_rng(seed)
    extractor = ExtractorModel(vocab.size, 6, 4, rng)
    abstractor = AbstractorModel(vocab.size, 6, 4, rng)
    p = extractor.params
    # Project the stop sentinel onto 20 * sign(att_v) so its first-step score is the largest.
    p["stop_key"].data[:] = np.linalg.lstsq(p["att_wk"].data.T, 20.0 * np.sign(p["att_v"].data), rcond=None)[0]
    return doc, vocab, extractor, abstractor


def _first_step(extractor, ids_lists):
    """The first greedy pointer step, from a fresh encoding and decode."""
    keys = extractor.encode(ids_lists).data
    (step,) = extractor.decode(keys, len(ids_lists), pointer_chooser("greedy", None), 1)
    return step


def test_summarize_document_falls_back_when_pointer_stops_early():
    doc, vocab, extractor, abstractor = _stop_first_pipeline("Alpha beta gamma. Delta epsilon zeta.", 3)
    first = _first_step(extractor, doc_to_ids(doc, vocab))
    assert first.action == len(doc.sentences)
    config = RunConfig(embedding_dim=6, hidden_dim=4, max_output_tokens=5)
    extraction, text = summarize_document(doc, extractor, abstractor, vocab, config)
    assert len(extraction.indices) == 1
    assert 0 <= extraction.indices[0] < len(doc.sentences)
    assert extraction.indices == [int(np.argmax(first.probs[:-1]))]


def test_summarize_document_fallback_reuses_the_extraction_encoding(monkeypatch):
    doc, vocab, extractor, abstractor = _stop_first_pipeline("Alpha beta gamma. Delta epsilon zeta. Eta theta.", 5)
    ids_lists = doc_to_ids(doc, vocab)
    first = _first_step(extractor, ids_lists)
    assert first.action == len(ids_lists)
    encoded = []
    encode = extractor.encode
    monkeypatch.setattr(extractor, "encode", lambda ids: encoded.append(ids) or encode(ids))
    config = RunConfig(embedding_dim=6, hidden_dim=4, max_output_tokens=5)
    extraction, _ = summarize_document(doc, extractor, abstractor, vocab, config)
    assert len(encoded) == 1
    assert extraction.indices == [int(np.argmax(first.probs[:-1]))]


def test_summarize_document_respects_word_limit():
    doc = Document("r1", sentences_from_text("Alpha beta gamma delta. Epsilon zeta eta theta.", MAX_TOKENS), [])
    vocab = _training_vocab(type("D", (), {"training": [doc]})(), RunConfig())
    rng = np.random.default_rng(4)
    extractor = ExtractorModel(vocab.size, 6, 4, rng)
    abstractor = AbstractorModel(vocab.size, 6, 4, rng)
    config = RunConfig(embedding_dim=6, hidden_dim=4, max_output_tokens=8, word_limit=3)
    _, text = summarize_document(doc, extractor, abstractor, vocab, config)
    assert len(text.split()) <= 3


# ---------------------------------------------------------------- CLI round trips


def test_cli_pipeline_outputs(pipeline):
    out = pipeline["out"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["splits"]["training"] == {"reports": 4, "summaries": 4}
    assert manifest["splits"]["testing"] == {"reports": 2, "summaries": 2}
    for split in ("training", "validation", "testing"):
        assert (out / f"alignments_{split}.jsonl").exists()
    assert (out / "extractor.ckpt").exists()
    assert (out / "abstractor.ckpt").exists()
    summaries = sorted((out / "summaries").glob("*.txt"))
    assert len(summaries) == 2
    assert all(p.read_text().endswith("\n") for p in summaries)
    assert (out / "summaries" / "extractions.jsonl").exists()


def test_cli_oracle_rerun_is_byte_identical(pipeline):
    out = pipeline["out"]
    before = {p.name: p.read_bytes() for p in out.glob("alignments_*.jsonl")}
    assert cli(["oracle", *pipeline["base"]]) == 0
    after = {p.name: p.read_bytes() for p in out.glob("alignments_*.jsonl")}
    assert before == after


def test_cli_summarize_rerun_is_byte_identical(pipeline):
    target = pipeline["out"] / "summaries"
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    assert cli(["summarize", *pipeline["base"]]) == 0
    after = {p.name: p.read_bytes() for p in target.iterdir()}
    assert before == after


def test_cli_baseline_and_evaluate(pipeline):
    out = pipeline["out"]
    for method in ("textrank", "lexrank", "lead"):
        assert cli(["baseline", "--method", method, *pipeline["base"]]) == 0
        files = sorted((out / f"baseline_{method}").glob("*.txt"))
        assert len(files) == 2
    preds = [str(out / "summaries"), str(out / "baseline_textrank"), str(out / "baseline_lead")]
    assert cli(["evaluate", "--pred", *preds, *pipeline["base"]]) == 0
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,summaries,baseline_textrank,baseline_lead"
    assert len(csv_lines) == 13
    for line in csv_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for value in cells[1:]:
            assert 0.0 <= float(value) <= 1.0
    before = (out / "report.csv").read_bytes()
    assert cli(["evaluate", "--pred", *preds, *pipeline["base"]]) == 0
    assert (out / "report.csv").read_bytes() == before
    assert (out / "report_documents.csv").exists()


def test_cli_train_rl_writes_artifacts(pipeline):
    out = pipeline["out"]
    assert cli(["train-rl", *pipeline["base"]]) == 0
    assert (out / "extractor_rl.ckpt").exists()
    assert (out / "critic.ckpt").exists()
    curve = (out / "rl_rewards.csv").read_text().splitlines()
    assert curve[0] == "episode,mean_reward,mean_advantage,critic_loss"
    assert len(curve) == 1 + TINY_CONFIG["rl_episodes"]


def test_cli_global_flags_accepted_on_either_side(pipeline, tmp_path):
    spec = pipeline["root"] / "synth.json"
    before, after = tmp_path / "d1", tmp_path / "d2"
    assert cli(["--data-root", str(before), "synthgen", "--spec", str(spec)]) == 0
    assert cli(["synthgen", "--spec", str(spec), "--data-root", str(after)]) == 0
    a = sorted(p.relative_to(before) for p in before.rglob("*.txt"))
    b = sorted(p.relative_to(after) for p in after.rglob("*.txt"))
    assert a == b and a
    for rel in a:
        assert (before / rel).read_bytes() == (after / rel).read_bytes()


def test_cli_exit_codes(pipeline, tmp_path):
    assert cli([]) == 1
    assert cli(["frobnicate"]) == 1
    assert cli(["ingest"]) == 1  # no data root anywhere
    assert cli(["baseline", "--method", "zzz", "--data-root", str(tmp_path)]) == 1
    assert cli(["--help"]) == 0
    assert cli(["summarize", "--help"]) == 0

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"nonsense_key": 3}')
    assert cli(["ingest", "--config", str(bad_cfg), "--data-root", str(tmp_path)]) == 2
    assert cli(["ingest", "--data-root", str(tmp_path / "missing")]) == 2
    assert cli(["summarize", "--data-root", str(pipeline["data"]),
                "--out", str(tmp_path / "empty_out")]) == 2
    assert cli(["evaluate", "--pred", str(tmp_path / "nope"),
                "--data-root", str(pipeline["data"]), "--out", str(tmp_path)]) == 2
    bad_spec = tmp_path / "spec.json"
    bad_spec.write_text('{"made_up_field": 1}')
    assert cli(["synthgen", "--spec", str(bad_spec), "--data-root", str(tmp_path / "d")]) == 2


def test_cli_train_stages_reuse_validation_alignments(pipeline, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    for path in pipeline["out"].glob("alignments_*.jsonl"):
        (out / path.name).write_bytes(path.read_bytes())

    def no_rebuild(examples):
        raise AssertionError("oracle rebuilt although its alignment files exist")

    monkeypatch.setattr(harness, "build_oracle", no_rebuild)
    base = ["--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(["train-extractor", *base]) == 0
    assert cli(["train-abstractor", *base]) == 0


@pytest.mark.parametrize(
    "field, value",
    [pytest.param(name, 0, id=name) for name in (
        "vocab_size", "embedding_dim", "hidden_dim", "batch_size", "extractor_epochs", "abstractor_epochs",
        "max_sentence_tokens", "max_output_tokens", "max_extract_sentences", "rl_updates_every",
        "pagerank_max_iter", "clip_norm", "lr", "beam_width", "word_limit",
    )]
    + [pytest.param(name, value, id=f"{name}={value}") for name, value in (
        ("rl_lr", -0.001), ("lr_decay", 0.0), ("lr_decay", 1.5), ("damping", -0.1), ("damping", 1.1),
        ("checkpoint_every_batches", -1), ("rl_episodes", -3),
    )]
    # Wrong types: a bool, float or string for an integer.
    + [pytest.param(name, value, id=f"{name}={value!r}") for name, value in (
        ("batch_size", True), ("checkpoint_every_batches", False), ("hidden_dim", 2.5), ("beam_width", 1.5),
        ("extractor_epochs", 2.0), ("seed", "3"),
    )]
    # A bool or string for a number, anything but a string for the data root, a negative seed.
    + [pytest.param(name, value, id=f"{name}={value!r}") for name, value in (
        ("lexrank_threshold", "x"), ("pagerank_tol", "x"), ("lr", True), ("clip_norm", True),
        ("rl_lr", False), ("data_root", 5), ("seed", -1),
    )]
    # JSON NaN and infinities in number fields, and the ranges of the penalty and the graph settings.
    + [pytest.param(name, value, id=f"{name}={value!r}") for name, value in (
        ("lr", math.inf), ("rl_lr", math.nan), ("clip_norm", math.inf), ("damping", math.nan),
        ("repetition_penalty", math.nan), ("repetition_penalty", 0.9),
        ("lexrank_threshold", math.nan), ("lexrank_threshold", math.inf), ("lexrank_threshold", -math.inf),
        ("lexrank_threshold", -1), ("lexrank_threshold", 1.5),
        ("pagerank_tol", math.nan), ("pagerank_tol", math.inf), ("pagerank_tol", -math.inf), ("pagerank_tol", -1),
    )],
)
def test_cli_rejects_non_positive_sizes(pipeline, tmp_path, capsys, field, value):
    """Each out-of-range or mistyped config value is a config error (exit 2) before any output."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, field: value}))
    args = ["train-extractor", "--config", str(cfg),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_defaults_are_the_published_decoding_settings():
    config = RunConfig()
    assert config.beam_width == 2
    assert config.repetition_penalty == 2.0
    assert config.max_output_tokens == 60


def test_run_config_is_frozen():
    config = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lr = 0.5
    assert (config.replace(lr=0.5).lr, config.lr) == (0.5, 0.001)


@pytest.mark.parametrize("stage", ["train-extractor", "train-abstractor", "train-rl"])
def test_cli_training_without_usable_alignments_is_data_error(pipeline, tmp_path, capsys, stage):
    """An empty training alignment file leaves nothing to train on: exit 2, not a traceback."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "alignments_training.jsonl").write_text("")
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    args = [stage, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 2
    assert "error: no " in capsys.readouterr().err


@pytest.mark.parametrize("corruption", ["not-json", "missing-field", "not-utf8"])
@pytest.mark.parametrize("stage", ["train-extractor", "train-abstractor", "train-rl"])
def test_cli_training_with_malformed_alignments_is_data_error(pipeline, tmp_path, capsys, stage, corruption):
    """A broken line in the alignment file is exit 2 naming the file and line, not a traceback."""
    out = tmp_path / "out"
    out.mkdir()
    lines = (pipeline["out"] / "alignments_training.jsonl").read_bytes().splitlines()
    if corruption == "not-json":
        lines[1] = lines[1][:-1]
    elif corruption == "not-utf8":
        lines[1] = lines[1].replace(b'"report_id":"', b'"report_id":"\xff', 1)
        assert b"\xff" in lines[1]
    else:
        record = json.loads(lines[1])
        del record["chosen_summary"]
        lines[1] = json.dumps(record).encode()
    (out / "alignments_training.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    args = [stage, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 2
    assert "alignments_training.jsonl line 2: malformed record" in capsys.readouterr().err


@pytest.mark.parametrize("corruption", [
    "float-target", "string-target", "bool-summary", "infinite-score",
    "pairs-not-list", "targets-not-list", "pair-not-list", "pair-of-two", "numeric-report-id",
])
def test_cli_training_with_mistyped_alignment_field_is_data_error(pipeline, tmp_path, capsys, corruption):
    """A record field of the wrong type is refused, not converted: exit 2
    naming the file and the line, and no checkpoint is written."""
    out = tmp_path / "out"
    out.mkdir()
    for path in pipeline["out"].glob("alignments_*.jsonl"):
        (out / path.name).write_bytes(path.read_bytes())
    lines = (out / "alignments_training.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    targets, pair = record["targets"], record["pairs"][0]
    if corruption == "float-target":
        targets[-1] += 0.7
    elif corruption == "string-target":
        targets[-1] = str(targets[-1])
    elif corruption == "bool-summary":
        assert record["chosen_summary"] == 0
        record["chosen_summary"] = False
    elif corruption == "infinite-score":
        pair[2] = math.inf
    elif corruption == "pairs-not-list":
        record["pairs"] = {}
    elif corruption == "targets-not-list":
        record["targets"] = "".join(str(t) for t in targets)
    elif corruption == "pair-not-list":
        record["pairs"][0] = "".join(str(v) for v in (*pair[:2], int(pair[2])))
    elif corruption == "pair-of-two":
        del pair[2]
    else:
        record["report_id"] = 5
    lines[1] = json.dumps(record)
    (out / "alignments_training.jsonl").write_text("\n".join(lines) + "\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    args = ["train-extractor", "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]),
            "--out", str(out)]
    assert cli(args) == 2
    assert "alignments_training.jsonl line 2: malformed record" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("stage", ["train-extractor", "train-abstractor", "train-rl"])
def test_cli_training_with_alignment_path_that_is_a_directory_is_data_error(pipeline, tmp_path, capsys, stage):
    """An alignment file that cannot be opened is exit 2 naming it, not a traceback."""
    out = tmp_path / "out"
    (out / "alignments_training.jsonl").mkdir(parents=True)
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    args = [stage, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 2
    assert f"cannot read {out / 'alignments_training.jsonl'}" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["train-extractor", "train-abstractor", "train-rl"])
def test_cli_training_with_duplicate_alignment_records_is_data_error(pipeline, tmp_path, capsys, stage):
    """A second record for one report is exit 2 naming file and report, not a report trained on twice."""
    out = tmp_path / "out"
    out.mkdir()
    lines = (pipeline["out"] / "alignments_training.jsonl").read_text().splitlines()
    (out / "alignments_training.jsonl").write_text("\n".join([*lines, lines[0]]) + "\n")
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    args = [stage, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "alignments_training.jsonl" in err
    assert f"more than one alignment of report {json.loads(lines[0])['report_id']}" in err


@pytest.mark.parametrize("command", ["ingest", "oracle", "train-extractor", "evaluate"])
def test_cli_out_that_is_a_file_is_usage_error(pipeline, tmp_path, capsys, command):
    """An --out naming an existing file is exit 1 naming it, before the stage reads anything."""
    out = tmp_path / "out.txt"
    out.write_text("keep me\n")
    args = [command, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 1
    assert f"--out {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("command, flag, below", [
    (["ingest"], "--out", True),
    (["oracle"], "--out", True),
    (["baseline", "--method", "lead"], "--out", True),
    (["synthgen"], "--data-root", False),
    (["synthgen"], "--data-root", True),
])
def test_cli_output_under_a_file_is_usage_error(pipeline, tmp_path, capsys, command, flag, below):
    """An --out, or synthgen's data root, that is or lies below an existing
    file is exit 1 naming both, and nothing is written."""
    blocker = tmp_path / "afile"
    blocker.write_text("keep me\n")
    target = blocker / "sub" if below else blocker
    paths = {"--config": str(pipeline["cfg"]), "--data-root": str(pipeline["data"]), "--out": str(tmp_path / "out")}
    paths[flag] = str(target)
    assert cli([*command, *(arg for pair in paths.items() for arg in pair)]) == 1
    err = capsys.readouterr().err
    assert f"{flag} {target}" in err and f"{blocker}" in err and "exists and is not a directory" in err
    assert blocker.read_text() == "keep me\n"
    assert list(tmp_path.iterdir()) == [blocker]


def test_cli_evaluate_refuses_pred_dirs_sharing_a_name(pipeline, tmp_path, capsys):
    """Two --pred directories of one name would head two report columns alike:
    exit 1 naming both, and no report is written."""
    first, second = tmp_path / "a" / "summaries", tmp_path / "b" / "summaries"
    for pred in (first, second):
        shutil.copytree(pipeline["out"] / "summaries", pred)
    out = tmp_path / "out"
    args = ["evaluate", "--pred", str(first), str(second), *pipeline["base"][:4], "--out", str(out)]
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not out.exists()


def test_cli_evaluate_names_a_system_after_its_resolved_directory(pipeline, tmp_path, monkeypatch):
    """`--pred .` run inside a prediction directory names the system after
    that directory, as `--pred <its path>` does."""
    out = tmp_path / "out"
    config = ["--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"].resolve())]
    monkeypatch.chdir(pipeline["out"] / "summaries")
    assert cli(["evaluate", "--pred", ".", *config, "--out", str(out)]) == 0
    by_dot = (out / "report.csv").read_text()
    assert by_dot.splitlines()[0] == "metric,summaries"
    shutil.rmtree(out)
    assert cli(["evaluate", "--pred", str(pipeline["out"] / "summaries"), *config, "--out", str(out)]) == 0
    assert (out / "report.csv").read_text() == by_dot


def test_cli_evaluate_refuses_a_pred_dir_without_a_name(pipeline, tmp_path, capsys):
    """The root has no name to head a report column: exit 1, and nothing is written."""
    out = tmp_path / "out"
    assert cli(["evaluate", "--pred", "/", *pipeline["base"][:4], "--out", str(out)]) == 1
    assert "--pred / has no directory name" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rl_with_fewer_episodes_than_one_update_makes_one_update(pipeline, tmp_path, monkeypatch):
    """A run shorter than one wave of rl_updates_every episodes updates once,
    at its last episode, on all of its episodes."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    waves = []
    update = rl.A2CTrainer.update

    def counted(self, trajectories):
        waves.append(len(trajectories))
        return update(self, trajectories)

    monkeypatch.setattr(rl.A2CTrainer, "update", counted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "rl_episodes": 3, "rl_updates_every": 4}))
    assert cli(["train-rl", "--config", str(cfg), "--data-root", str(pipeline["data"]), "--out", str(out)]) == 0
    assert waves == [3]
    curve = (out / "rl_rewards.csv").read_text().splitlines()
    assert len(curve) == 1 + 3
    critic_losses = [row.split(",")[3] for row in curve[1:]]
    assert critic_losses[:2] == ["0.000000", "0.000000"] and critic_losses[2] != "0.000000"


def test_cli_diverging_training_is_reported_not_raised(pipeline, tmp_path, capsys):
    """A finite but huge learning rate makes a gradient non-finite: exit 2
    with the divergence named, and no final checkpoint."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "lr": 1e250}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli(["train-abstractor", "--config", str(cfg), "--data-root", str(pipeline["data"]), "--out", str(out)])
    assert code == 2
    assert "error: training diverged: non-finite gradient in parameter" in capsys.readouterr().err
    assert not (out / "abstractor.ckpt").exists()


def test_cli_summarize_split_flag(pipeline, tmp_path):
    out2 = tmp_path / "out2"
    args = ["summarize", "--split", "validation",
            "--extractor", str(pipeline["out"] / "extractor.ckpt"),
            "--abstractor", str(pipeline["out"] / "abstractor.ckpt"),
            "--data-root", str(pipeline["data"]), "--out", str(out2)]
    assert cli(args) == 0
    assert len(sorted((out2 / "summaries").glob("*.txt"))) == 2


def test_cli_summarize_refuses_incomplete_extractor(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "incomplete.ckpt"
    arrays, cfg, vocab = ad.load_checkpoint(pipeline["out"] / "extractor.ckpt")
    del arrays["dec_w"]
    ad.save_checkpoint(ckpt, arrays, cfg, vocab)
    args = ["summarize", "--extractor", str(ckpt),
            "--abstractor", str(pipeline["out"] / "abstractor.ckpt"),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    assert "missing ['dec_w']" in capsys.readouterr().err


def test_cli_summarize_refuses_garbage_extractor(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "garbage.ckpt"
    ckpt.write_bytes(b"\x89not a checkpoint\n\x00\x01")
    args = ["summarize", "--extractor", str(ckpt),
            "--abstractor", str(pipeline["out"] / "abstractor.ckpt"),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    assert "not a checkpoint file" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["appended", "truncated"])
def test_cli_summarize_refuses_vocab_that_does_not_fit_the_embedding(pipeline, tmp_path, capsys, edit):
    paths = {}
    for name in ("extractor", "abstractor"):
        arrays, cfg, vocab = ad.load_checkpoint(pipeline["out"] / f"{name}.ckpt")
        size = len(vocab)
        vocab = vocab + [f"extra{i}" for i in range(5)] if edit == "appended" else vocab[:-5]
        paths[name] = tmp_path / f"{name}.ckpt"
        ad.save_checkpoint(paths[name], arrays, cfg, vocab)
    args = ["summarize", "--extractor", str(paths["extractor"]),
            "--abstractor", str(paths["abstractor"]),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert str(paths["extractor"]) in err
    assert f"embeds {len(vocab)} vocabulary tokens" in err and f"vocab_size {size}" in err


@pytest.mark.parametrize(
    "case, message",
    [
        ("header_only", "header 'names'"),
        ("config_without_sizes", "config 'vocab_size'"),
        ("edited_config", "does not match its config_hash"),
    ],
)
def test_cli_summarize_refuses_incomplete_checkpoint_header(pipeline, tmp_path, capsys, case, message):
    ckpt = tmp_path / "extractor.ckpt"
    if case == "header_only":
        ckpt.write_bytes(b'{"format":"narrsum-ckpt-v1"}\n')
    elif case == "config_without_sizes":
        arrays, _, vocab = ad.load_checkpoint(pipeline["out"] / "extractor.ckpt")
        ad.save_checkpoint(ckpt, arrays, {"kind": "extractor"}, vocab)
    else:
        line, blob = (pipeline["out"] / "extractor.ckpt").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["config"]["note"] = "retrained"
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    args = ["summarize", "--extractor", str(ckpt),
            "--abstractor", str(pipeline["out"] / "abstractor.ckpt"),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    assert message in capsys.readouterr().err


def test_cli_summarize_refuses_checkpoint_with_inflated_sizes(pipeline, tmp_path, capsys):
    """A header claiming 256 hidden units, with its hash recomputed, is refused on its shapes."""
    ckpt = tmp_path / "extractor.ckpt"
    line, blob = (pipeline["out"] / "extractor.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"]["hidden_dim"] = 256
    header["config_hash"] = ad.config_hash(header["config"])
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    args = ["summarize", "--extractor", str(ckpt),
            "--abstractor", str(pipeline["out"] / "abstractor.ckpt"),
            "--data-root", str(pipeline["data"]), "--out", str(tmp_path / "out")]
    assert cli(args) == 2
    assert f"shape mismatch for 'word_f_w' in checkpoint {ckpt}" in capsys.readouterr().err


def _copy_corpus(pipeline, tmp_path) -> Path:
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    return data


@pytest.mark.parametrize(
    "case, named",
    [
        ("oracle-undecodable-report", "tr0001.txt"),
        ("oracle-undecodable-summary", "va0000_1.txt"),
        ("oracle-report-directory", "tr9999.txt"),
        ("baseline-undecodable-report", "te0001.txt"),
        ("evaluate-undecodable-prediction", "te0000.txt"),
        ("undecodable-config", "config.json"),
        ("config-directory", "config.json"),
    ],
)
def test_cli_unreadable_text_input_is_data_error_naming_it(pipeline, tmp_path, capsys, case, named):
    """Undecodable or unreadable text exits 2 naming the file, not with a traceback."""
    data = _copy_corpus(pipeline, tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_bytes(pipeline["cfg"].read_bytes())
    out = tmp_path / "out"
    stage = ["oracle"]
    if case == "oracle-undecodable-report":
        (data / "training" / "annual_reports" / named).write_bytes(b"Profit \xff rose.\n")
    elif case == "oracle-undecodable-summary":
        (data / "validation" / "gold_summaries" / named).write_bytes(b"\xff\n")
    elif case == "oracle-report-directory":
        (data / "training" / "annual_reports" / named).mkdir()
    elif case == "baseline-undecodable-report":
        (data / "testing" / "annual_reports" / named).write_bytes(b"Profit \xff rose.\n")
        stage = ["baseline", "--method", "lead"]
    elif case == "evaluate-undecodable-prediction":
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / named).write_bytes(b"Profit \xff rose.\n")
        stage = ["evaluate", "--pred", str(pred)]
    elif case == "undecodable-config":
        cfg.write_bytes(b'{"seed": "\xff"}')
    else:
        cfg.unlink()
        cfg.mkdir()
    args = [*stage, "--config", str(cfg), "--data-root", str(data), "--out", str(out)]
    assert cli(args) == 2
    assert named in capsys.readouterr().err


def test_cli_testing_split_stages_never_read_training(pipeline, tmp_path):
    """Stages on `--split testing` parse only that split: a bad training report cannot stop them."""
    clean = pipeline["data"]
    corrupt = _copy_corpus(pipeline, tmp_path)
    report = corrupt / "training" / "annual_reports" / "tr0000.txt"
    report.write_bytes(report.read_bytes() + b"Profit \xff rose.\n")
    outs = {}
    for name, data in (("clean", clean), ("corrupt", corrupt)):
        out = tmp_path / name
        base = ["--split", "testing", "--config", str(pipeline["cfg"]), "--data-root", str(data),
                "--out", str(out)]
        assert cli(["summarize", "--extractor", str(pipeline["out"] / "extractor.ckpt"),
                    "--abstractor", str(pipeline["out"] / "abstractor.ckpt"), *base]) == 0
        for method in ("textrank", "lexrank", "lead"):
            assert cli(["baseline", "--method", method, *base]) == 0
        preds = [str(out / "summaries"), *(str(out / f"baseline_{m}") for m in ("textrank", "lexrank", "lead"))]
        assert cli(["evaluate", "--pred", *preds, *base]) == 0
        outs[name] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(outs["clean"]) == 2 * 4 + 4 + 3  # 2 reports + extractions x 4 systems, 3 report files
    assert outs["corrupt"] == outs["clean"]
    base = ["--config", str(pipeline["cfg"]), "--data-root", str(corrupt), "--out", str(tmp_path / "bad")]
    assert cli(["oracle", *base]) == 2
    assert not (tmp_path / "bad").exists()
    assert cli(["train-extractor", *base]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("chosen_summary", 1),  # one summary per report
        ("gold", TINY_SPEC["summary_sentences"]),
        ("report", TINY_SPEC["sentences_per_report"]),
        ("target", TINY_SPEC["sentences_per_report"]),
        ("target", 999),
        ("target", -1),
        ("repeat", None),  # a target listed twice would be a masked pick, scored -1e9 in the loss
    ],
)
@pytest.mark.parametrize("stage", ["train-extractor", "train-abstractor", "train-rl"])
def test_cli_training_with_out_of_range_alignment_is_data_error(pipeline, tmp_path, capsys, stage, field, value):
    """An alignment index outside its report or summaries, or a repeated
    target, is exit 2 naming file and report, and the stage writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    lines = (pipeline["out"] / "alignments_training.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    if field == "chosen_summary":
        record["chosen_summary"] = value
    elif field == "gold":
        record["pairs"][0][0] = value
    elif field == "report":
        record["pairs"][0][1] = value
    elif field == "repeat":
        value = record["targets"][0]
        record["targets"].append(value)
    else:
        record["targets"][-1] = value
    lines[1] = json.dumps(record)
    (out / "alignments_training.jsonl").write_text("\n".join(lines) + "\n")
    for name in ("extractor.ckpt", "abstractor.ckpt"):
        shutil.copy(pipeline["out"] / name, out / name)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    args = [stage, "--config", str(pipeline["cfg"]), "--data-root", str(pipeline["data"]), "--out", str(out)]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "alignments_training.jsonl" in err and f"report {record['report_id']}" in err
    assert (f"target {value} repeated" if field == "repeat" else str(value)) in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_loaded_alignment_for_an_unknown_report_is_kept_for_the_stage(pipeline, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    lines = (pipeline["out"] / "alignments_training.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record.update(report_id="elsewhere", chosen_summary=7, targets=[999])
    (out / "alignments_training.jsonl").write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    alignments = harness._load_or_build_alignments(load_dataset(pipeline["data"], MAX_TOKENS), "training", out)
    assert [al.report_id for al in alignments][0] == "elsewhere"
