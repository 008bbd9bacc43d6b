"""Ingestion tests: splitting, tokenizing, vocabulary, dataset layout."""

import logging
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrsum.config import RunConfig
from narrsum.corpus import (
    ABBREVIATIONS,
    END_ID,
    PAD_ID,
    RESERVED_TOKENS,
    START_ID,
    UNK_ID,
    DataError,
    Vocab,
    build_vocab,
    load_dataset,
    read_text,
    sentences_from_text,
    split_sentence_spans,
    tokenize_words,
)


# The published token cap and vocabulary size.
CONFIG = RunConfig()
MAX_TOKENS = CONFIG.max_sentence_tokens


def split_sentences(text: str) -> list[str]:
    """Sentence substrings of a raw document, in order."""
    return [text[a:b] for a, b in split_sentence_spans(text)]


# ---------------------------------------------------------------- splitting


def test_split_sentences_frozen():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []
    assert split_sentences("Profit rose. Costs fell.") == ["Profit rose.", "Costs fell."]
    assert split_sentences("Mr. Smith resigned. He left.") == ["Mr. Smith resigned.", "He left."]


def test_split_sentences_abbreviations():
    assert split_sentences("See Fig. 3 for details.") == ["See Fig. 3 for details."]
    assert split_sentences("Costs (e.g. Rent) fell. Profit rose.") == [
        "Costs (e.g. Rent) fell.",
        "Profit rose.",
    ]
    assert split_sentences("Results improved, i.e. Margins grew.") == [
        "Results improved, i.e. Margins grew."
    ]


def test_split_requires_upper_or_digit_after_boundary():
    assert split_sentences("profit rose. costs fell.") == ["profit rose. costs fell."]
    assert split_sentences("Profit rose. 4 units sold.") == ["Profit rose.", "4 units sold."]
    assert split_sentences("Profit rose! Costs fell? Yes.") == ["Profit rose!", "Costs fell?", "Yes."]


def test_split_case_sensitive_stop_list():
    # "MR." is not on the stop list, so the boundary stands.
    assert split_sentences("MR. Smith resigned.") == ["MR.", "Smith resigned."]


text_strategy = st.text(
    alphabet=st.sampled_from(list("abcDE .!?\n\t12(Mr")),
    max_size=80,
)


@settings(max_examples=200)
@given(text_strategy)
def test_spans_preserve_non_whitespace(text):
    spans = split_sentence_spans(text)
    rebuilt = "".join(text[a:b] for a, b in spans)
    assert [c for c in rebuilt if not c.isspace()] == [c for c in text if not c.isspace()]
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert a1 < b1 <= a2 < b2
    for a, b in spans:
        assert not text[a].isspace() and not text[b - 1].isspace()


# ---------------------------------------------------------------- tokenizing


def test_tokenize_frozen():
    assert tokenize_words("Profit rose 4.5%!", MAX_TOKENS) == ["profit", "rose", "4", "5"]
    assert tokenize_words("", MAX_TOKENS) == []


def test_tokenize_truncates_to_limit():
    sentence = " ".join(f"w{i}" for i in range(100))
    tokens = tokenize_words(sentence, MAX_TOKENS)
    assert len(tokens) == 60
    assert tokens == [f"w{i}" for i in range(60)]


@settings(max_examples=200)
@given(st.text(max_size=60))
def test_tokenize_case_invariant(text):
    assert tokenize_words(text, MAX_TOKENS) == tokenize_words(text.upper(), MAX_TOKENS)


@settings(max_examples=200)
@given(st.text(max_size=60))
def test_tokenize_shape(text):
    for tok in tokenize_words(text, MAX_TOKENS):
        assert tok and tok == tok.lower()
        assert all(c.isalnum() for c in tok)


def test_sentences_from_text_drops_wordless_spans():
    sents = sentences_from_text("Profit rose. ?!. Costs fell.", MAX_TOKENS)
    assert sents == [("profit", "rose"), ("costs", "fell")]


_BOUNDARY = re.compile(r"[.!?]\s+(?=[A-Z0-9])")
_WORD = re.compile(r"[A-Za-z0-9]+")


def reference_sentences(text: str, max_tokens: int) -> list[tuple[str, ...]]:
    """Sentence splitting and tokenizing of every text the regex way: each
    candidate boundary walks back to its word, and each span is casefolded
    and searched for word runs."""
    cuts = [0]
    for match in _BOUNDARY.finditer(text):
        punct = word_start = match.start()
        while word_start > 0 and not text[word_start - 1].isspace():
            word_start -= 1
        if text[word_start : punct + 1].lstrip("\"'([{“‘") not in ABBREVIATIONS:
            cuts.append(punct + 1)
    cuts.append(len(text))
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        tokens = _WORD.findall(text[lo:hi].casefold())[:max_tokens]
        if tokens:
            out.append(tuple(tokens))
    return out


_ASCII_PIECES = [*"aAbBzZ09 .!?\"'()[]{}", "Mr.", "e.g.", "Fig.", *"\t\n\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f"]
_PIECES = _ASCII_PIECES + [*"ßKﬁİ“‘"]


@settings(max_examples=400)
@given(
    st.one_of(*(st.lists(st.sampled_from(pieces), max_size=40).map("".join) for pieces in (_ASCII_PIECES, _PIECES))),
    st.sampled_from([1, 3, 100]),
)
def test_sentences_from_text_equals_the_regex_reference(text, max_tokens):
    assert sentences_from_text(text, max_tokens) == reference_sentences(text, max_tokens)


# ---------------------------------------------------------------- vocabulary


def test_build_vocab_reserved_and_small():
    vocab = build_vocab([("gamma", "alpha"), ("beta", "alpha")], CONFIG.vocab_size)
    assert vocab.size == 7
    assert vocab.id_to_token[:4] == list(RESERVED_TOKENS)
    assert (PAD_ID, UNK_ID, START_ID, END_ID) == (0, 1, 2, 3)
    # alpha is most frequent; beta/gamma tie resolved lexicographically.
    assert vocab.id_to_token[4:] == ["alpha", "beta", "gamma"]


def test_build_vocab_caps_size():
    tokens = [f"t{i:05d}" for i in range(CONFIG.vocab_size + 5000)]
    sentences = [tuple(tokens[i : i + 50]) for i in range(0, len(tokens), 50)]
    vocab = build_vocab(sentences, CONFIG.vocab_size)
    assert vocab.size == CONFIG.vocab_size + 4


def test_build_vocab_empty_errors():
    with pytest.raises(DataError):
        build_vocab([], CONFIG.vocab_size)


def test_vocab_lookup_and_round_trip():
    vocab = build_vocab([("profit", "rose")], CONFIG.vocab_size)
    assert vocab.encode(["profit"])[0] >= 4
    assert vocab.encode(["absent"]) == [UNK_ID]
    ids = vocab.encode(["profit", "absent", "rose"])
    assert vocab.decode(ids) == ["profit", "<unk>", "rose"]
    clone = Vocab.from_list(vocab.to_list())
    assert clone.token_to_id == vocab.token_to_id


def test_vocab_bijection():
    vocab = build_vocab([("a", "b", "c", "a")], CONFIG.vocab_size)
    for tok, idx in vocab.token_to_id.items():
        assert vocab.id_to_token[idx] == tok


def test_vocab_from_list_requires_reserved_prefix():
    with pytest.raises(DataError):
        Vocab.from_list(["a", "b", "c", "d", "e"])


# ---------------------------------------------------------------- dataset layout


def write_corpus(root, split_files):
    """split_files: {split: ([(report_id, text)], [(file_stem, text)])}."""
    for split, (reports, summaries) in split_files.items():
        rdir = root / split / "annual_reports"
        sdir = root / split / "gold_summaries"
        rdir.mkdir(parents=True)
        sdir.mkdir(parents=True)
        for rid, text in reports:
            (rdir / f"{rid}.txt").write_text(text, encoding="utf-8")
        for stem, text in summaries:
            (sdir / f"{stem}.txt").write_text(text, encoding="utf-8")


def miniature(root):
    write_corpus(
        root,
        {
            "training": (
                [("r1", "Profit rose. Costs fell."), ("r2", "Cash grew fast.")],
                [("r1_1", "Profit rose."), ("r1_2", "Costs fell."), ("r2_1", "Cash grew.")],
            ),
            "validation": ([("v1", "Margins widened.")], [("v1_1", "Margins widened.")]),
            "testing": ([("t1", "Debt shrank.")], []),
        },
    )


def test_load_dataset_miniature(tmp_path):
    miniature(tmp_path)
    data = load_dataset(tmp_path, MAX_TOKENS)
    assert [report.id for report in data.training] == ["r1", "r2"]
    assert [len(report.summaries) for report in data.training] == [2, 1]
    assert data.manifest() == {
        "training": {"reports": 2, "summaries": 3},
        "validation": {"reports": 1, "summaries": 1},
        "testing": {"reports": 1, "summaries": 0},
    }
    r1 = data.training[0]
    assert r1.sentences == [("profit", "rose"), ("costs", "fell")]
    assert r1.summaries == [[("profit", "rose")], [("costs", "fell")]]  # r1_1, then r1_2
    # Test split keeps reference-free reports.
    assert data.split("testing")[0].summaries == []


def test_load_dataset_missing_split(tmp_path):
    miniature(tmp_path)
    (tmp_path / "validation" / "annual_reports" / "v1.txt").unlink()
    (tmp_path / "validation" / "annual_reports").rmdir()
    with pytest.raises(DataError):
        load_dataset(tmp_path, MAX_TOKENS)
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nowhere", MAX_TOKENS)


def test_load_dataset_training_without_summaries_excluded(tmp_path, caplog):
    miniature(tmp_path)
    (tmp_path / "training" / "annual_reports" / "r3.txt").write_text("Orphan report.", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        data = load_dataset(tmp_path, MAX_TOKENS)
    assert [report.id for report in data.training] == ["r1", "r2"]
    assert any("r3" in record.message for record in caplog.records)


def test_load_dataset_empty_report_excluded(tmp_path, caplog):
    """An empty report is skipped with one warning; its summaries are not
    then reported as summaries of an unknown report."""
    miniature(tmp_path)
    (tmp_path / "testing" / "annual_reports" / "t2.txt").write_text("???", encoding="utf-8")
    (tmp_path / "testing" / "gold_summaries" / "t2_1.txt").write_text("Debt shrank.", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        data = load_dataset(tmp_path, MAX_TOKENS)
        assert [report.id for report in data.split("testing")] == ["t1"]
    assert [r.message for r in caplog.records if "t2" in r.message] == ["excluding empty report t2 from testing"]
    assert not any("unknown" in r.message for r in caplog.records)


def test_load_dataset_summary_numeric_order(tmp_path):
    write_corpus(
        tmp_path,
        {
            "training": (
                [("rep_a", "Alpha beta. Gamma delta.")],
                [("rep_a_10", "Alpha."), ("rep_a_2", "Beta."), ("rep_a_1", "Gamma.")],
            ),
            "validation": ([("v1", "One two.")], [("v1_1", "One.")]),
            "testing": ([("t1", "Three four.")], []),
        },
    )
    data = load_dataset(tmp_path, MAX_TOKENS)
    # Summaries follow their numeric suffixes 1, 2, 10, and the report id is
    # everything before the last underscore.
    assert data.training[0].id == "rep_a"
    assert data.training[0].summaries == [[("gamma",)], [("beta",)], [("alpha",)]]


def test_load_dataset_parses_a_split_once_when_first_read(tmp_path):
    miniature(tmp_path)
    data = load_dataset(tmp_path, MAX_TOKENS)
    # A split nobody reads is never parsed, so its bad file goes unnoticed.
    (tmp_path / "testing" / "annual_reports" / "t1.txt").write_bytes(b"Debt \xff shrank.")
    first = data.training
    for path in (tmp_path / "training" / "annual_reports").iterdir():
        path.unlink()
    assert data.split("training") is first and data.training is first
    assert [report.id for report in first] == ["r1", "r2"]
    assert [report.id for report in data.validation] == ["v1"]
    with pytest.raises(DataError, match="t1.txt"):
        data.split("testing")


@pytest.mark.parametrize("split", ["training", "testing"])
@pytest.mark.parametrize("subdir", ["annual_reports", "gold_summaries"])
def test_load_dataset_checks_every_split_layout_before_reading(tmp_path, split, subdir):
    miniature(tmp_path)
    shutil.rmtree(tmp_path / split / subdir)
    with pytest.raises(DataError, match=subdir):
        load_dataset(tmp_path, MAX_TOKENS)


@pytest.mark.parametrize(
    "name, make",
    [
        ("annual_reports/r9.txt", lambda p: p.write_bytes(b"Profit \xff rose.")),
        ("annual_reports/r9.txt", lambda p: p.mkdir()),
        ("gold_summaries/r1_3.txt", lambda p: p.write_bytes(b"\xffProfit rose.")),
        ("gold_summaries/r1_3.txt", lambda p: p.mkdir()),
    ],
    ids=["undecodable-report", "report-directory", "undecodable-summary", "summary-directory"],
)
def test_unreadable_corpus_file_is_data_error_naming_it(tmp_path, name, make):
    miniature(tmp_path)
    make(tmp_path / "training" / name)
    data = load_dataset(tmp_path, MAX_TOKENS)
    with pytest.raises(DataError, match=name.split("/")[1]):
        data.training


def test_read_text_raises_the_given_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ValueError, match="c.json is not UTF-8 text"):
        read_text(path, ValueError)
    (tmp_path / "ok.txt").write_text("Profit é rose.", encoding="utf-8")
    assert read_text(tmp_path / "ok.txt") == "Profit é rose."
