"""Dataset ingestion: sentence splitting, word tokenization, vocabulary.

The on-disk layout is ``<root>/<split>/annual_reports/<report_id>.txt``
plus ``<root>/<split>/gold_summaries/<report_id>_<j>.txt`` for the three
splits training, validation, testing. All text is UTF-8.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")

SPLITS = ("training", "validation", "testing")

PAD_ID, UNK_ID, START_ID, END_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")

# Words whose trailing period never ends a sentence. Matched case-sensitively
# against the non-whitespace run ending at the candidate punctuation, after
# stripping any leading brackets or quotes.
ABBREVIATIONS = frozenset({"Mr.", "Mrs.", "Dr.", "St.", "No.", "Fig.", "e.g.", "i.e.", "etc."})
_ABBREVIATION_ENDS = tuple(ABBREVIATIONS)

_BOUNDARY = re.compile(r"[.!?]\s+(?=[A-Z0-9])")
_WORD = re.compile(r"[A-Za-z0-9]+")
# Casefolds ASCII text and makes every character outside [a-z0-9] a space, so
# that `str.split()` of the result gives `_WORD`'s casefolded runs.
_ASCII_WORD_TABLE = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum() else " " for c in range(128)})


class DataError(Exception):
    """Raised for unusable dataset layouts or files."""


@dataclass
class Document:
    """One report: its sentences, each the tuple of its tokens, and its gold
    summaries, each a list of such sentences, in the order of their file
    suffixes."""

    id: str
    sentences: list[tuple[str, ...]]
    summaries: list[list[tuple[str, ...]]]


def split_sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, trimmed of surrounding whitespace."""
    cuts = [0]
    for match in _BOUNDARY.finditer(text):
        punct = match.start()
        # A stop-listed word would end `text[: punct + 1]`, so only a candidate
        # ending with one walks back to the start of its word.
        if text.endswith(_ABBREVIATION_ENDS, 0, punct + 1):
            word_start = punct
            while word_start > 0 and not text[word_start - 1].isspace():
                word_start -= 1
            if text[word_start : punct + 1].lstrip("\"'([{“‘") in ABBREVIATIONS:
                continue
        cuts.append(punct + 1)
    cuts.append(len(text))
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        segment = text[lo:hi]
        stripped = segment.strip()
        if not stripped:
            continue
        start = lo + (len(segment) - len(segment.lstrip()))
        spans.append((start, start + len(stripped)))
    return spans


def sentence_line(tokens: Sequence[str]) -> str:
    """A non-empty sentence written out: space-joined, closed with a period
    unless it already ends with one, first letter capitalized.

    The period and the capital let `split_sentence_spans` find the sentence
    boundary again when the text is read back; tokenizing case-folds.
    """
    text = " ".join(tokens)
    if not text.endswith("."):
        text += "."
    return text[0].upper() + text[1:]


def tokenize_words(sentence_text: str, max_tokens: int) -> list[str]:
    """Lowercased alphanumeric runs, truncated to the first max_tokens.

    Case folding (not plain lower()) keeps the output stable under case
    changes such as the German eszett. On ASCII text casefold() equals
    lower(), which maps exactly A-Z to a-z and keeps every position, so
    `sentences_from_text` tokenizes ASCII text through one translation
    table and `str.split` instead.
    """
    return _WORD.findall(sentence_text.casefold())[:max_tokens]


def sentences_from_text(text: str, max_tokens: int) -> list[tuple[str, ...]]:
    """Split and tokenize, dropping spans that contain no word characters."""
    spans = split_sentence_spans(text)
    if text.isascii():
        # Same tokens as `tokenize_words` per span, from one pass over the whole text.
        words = text.translate(_ASCII_WORD_TABLE)
        sentences = (words[start:end].split()[:max_tokens] for start, end in spans)
    else:
        sentences = (tokenize_words(text[start:end], max_tokens) for start, end in spans)
    return [tuple(tokens) for tokens in sentences if tokens]


@dataclass
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def to_list(self) -> list[str]:
        return list(self.id_to_token)

    @staticmethod
    def from_list(tokens: Sequence[str]) -> "Vocab":
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise DataError("vocabulary list must start with the reserved tokens")
        return Vocab({t: i for i, t in enumerate(tokens)}, list(tokens))


def build_vocab(sentences: Sequence[Sequence[str]], max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over the sentences' tokens, plus reserved ids.

    Ties in frequency go to the lexicographically smaller token.
    """
    if not sentences:
        raise DataError("cannot build a vocabulary from zero sentences")
    counts: Counter = Counter()
    for sent in sentences:
        counts.update(sent)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    id_to_token = list(RESERVED_TOKENS) + [tok for tok, _ in ranked]
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


class LoadedDataset:
    """The three splits of a corpus whose layout has been checked.

    A split's files are read and tokenised the first time the split is
    read, then kept, so a stage parses only the splits it uses.
    """

    def __init__(self, split_dirs: dict[str, Path], max_tokens: int):
        self._split_dirs = split_dirs
        self._max_tokens = max_tokens
        self._parsed: dict[str, list[Document]] = {}

    def split(self, name: str) -> list[Document]:
        if name not in SPLITS:
            raise DataError(f"unknown split: {name!r}")
        if name not in self._parsed:
            self._parsed[name] = _load_split(self._split_dirs[name], name, self._max_tokens)
        return self._parsed[name]

    @property
    def training(self) -> list[Document]:
        return self.split("training")

    @property
    def validation(self) -> list[Document]:
        return self.split("validation")

    def manifest(self) -> dict[str, dict[str, int]]:
        out = {}
        for name in SPLITS:
            reports = self.split(name)
            out[name] = {"reports": len(reports), "summaries": sum(len(doc.summaries) for doc in reports)}
        return out


def _summary_sort_key(name: str):
    try:
        return (0, int(name))
    except ValueError:
        return (1, name)


def _load_split(split_dir: Path, split_name: str, max_tokens: int) -> list[Document]:
    by_report: dict[str, list[tuple[str, Path]]] = {}
    for path in sorted((split_dir / "gold_summaries").glob("*.txt")):
        stem = path.stem
        if "_" not in stem:
            log.warning("ignoring summary without a _<j> suffix: %s", path.name)
            continue
        report_id, _, summary_id = stem.rpartition("_")
        by_report.setdefault(report_id, []).append((summary_id, path))

    reports = []
    report_paths = sorted((split_dir / "annual_reports").glob("*.txt"), key=lambda p: p.stem)
    for path in report_paths:
        sentences = sentences_from_text(read_text(path), max_tokens)
        if not sentences:
            log.warning("excluding empty report %s from %s", path.stem, split_name)
            by_report.pop(path.stem, None)
            continue
        summary_paths = sorted(by_report.pop(path.stem, []), key=lambda kv: _summary_sort_key(kv[0]))
        summaries = [sentences_from_text(read_text(spath), max_tokens) for _, spath in summary_paths]
        if not summaries and split_name == "training":
            log.warning("excluding training report %s: no gold summaries", path.stem)
            continue
        reports.append(Document(path.stem, sentences, summaries))
    for orphan in sorted(by_report):
        log.warning("gold summaries for unknown report %s in %s", orphan, split_name)
    return reports


def load_dataset(root: str | Path, max_tokens: int) -> LoadedDataset:
    """Check the standard layout under root; each split is parsed when first read."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root is not a directory: {root}")
    split_dirs = {}
    for name in SPLITS:
        split_dir = root / name
        if not split_dir.is_dir():
            raise DataError(f"missing split directory: {split_dir}")
        for needed in (split_dir / "annual_reports", split_dir / "gold_summaries"):
            if not needed.is_dir():
                raise DataError(f"missing directory: {needed}")
        split_dirs[name] = split_dir
    return LoadedDataset(split_dirs, max_tokens)


def read_text(path: str | Path, error: type[Exception] = DataError) -> str:
    """The UTF-8 text of a file; one that cannot be read or decoded is `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """One compact JSON object per line; the directory is created if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """`parse` of each JSON object on the non-blank lines of a file.

    A file that cannot be read is a `DataError` naming it, and a line that
    is not UTF-8, not JSON, or that `parse` rejects one naming the file and
    the line.
    """
    records = []
    lineno = 0
    try:
        with Path(path).open("rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    records.append(parse(json.loads(line.decode("utf-8"))))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} line {lineno}: malformed record ({exc!r})") from exc
    return records
