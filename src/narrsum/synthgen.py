"""Deterministic synthetic corpus with known-optimal extraction labels.

Each gold summary sentence is a (possibly perturbed) copy of one report
sentence. The generator re-rolls any perturbation that would stop the
source sentence from being the unique best match, so the emitted truth
alignments are argmax-optimal by construction and downstream tests have
exact expected outputs without shipping any real corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, check_field_types
from .corpus import Document, sentence_line
from .oracle import OracleAlignment, SourceIndex, pick_reference, save_alignments, select_reference
from .rouge import rouge_l_sentence

_SPLIT_PREFIX = {"training": "tr", "validation": "va", "testing": "te"}
# Consecutive draws `_make_report` may reject before it gives up on a spec
# whose vocabulary and sentence lengths cannot fill a report.
MAX_REJECTED_DRAWS = 1000


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    n_reports: int = 10
    sentences_per_report: int = 12
    summary_sentences: int = 3
    vocabulary_size: int = 40
    noise_rate: float = 0.0
    summaries_per_report: int = 1
    n_validation_reports: int = 2
    n_testing_reports: int = 2
    min_sentence_tokens: int = 5
    max_sentence_tokens: int = 9

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not 0 <= self.noise_rate < 1:
            raise ValueError(f"noise_rate must be in [0,1), got {self.noise_rate}")
        if self.summary_sentences > self.sentences_per_report:
            raise ValueError("summary_sentences cannot exceed sentences_per_report")
        if self.vocabulary_size < 10:
            raise ValueError("vocabulary_size must be at least 10")
        cap = RunConfig().max_sentence_tokens  # so that loading with the default cap cuts no planted sentence
        if not 1 <= self.min_sentence_tokens <= self.max_sentence_tokens <= cap:
            raise ValueError(f"sentence token bounds must satisfy 1 <= min <= max <= {cap}")
        if self.n_reports < 1 or self.summaries_per_report < 1:
            raise ValueError("need at least one report and one summary per report")

    @staticmethod
    def from_json(path: str | Path) -> "SynthSpec":
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"synth spec root must be a JSON object: {path}")
        known = set(SynthSpec.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown synth spec fields: {sorted(unknown)}")
        return SynthSpec(**raw)


def _is_subsequence(needle, haystack) -> bool:
    """Whether `needle` occurs in order in `haystack`."""
    if len(needle) > len(haystack):
        return False
    it = iter(haystack)
    return all(tok in it for tok in needle)


class _Uncontained:
    """Non-empty sentences offered one by one, keeping those that neither
    contain nor are contained in (as a subsequence) one kept before.

    A kept sentence containing the candidate holds every type of it, so it
    is among the holders of the candidate's least-held type. A kept sentence
    the candidate contains starts with one of the candidate's types, so each
    kept sentence is also filed under its first token. Only those two lists
    are compared.
    """

    def __init__(self) -> None:
        self.sentences: list[tuple[str, ...]] = []
        self._holders: dict[str, list[int]] = {}
        self._by_first: dict[str, list[int]] = {}

    def offer(self, cand: tuple[str, ...]) -> bool:
        """Keep `cand` unless it contains or is contained in a kept sentence."""
        types = set(cand)
        least = min([self._holders.get(tok, ()) for tok in types], key=len)
        if any(_is_subsequence(cand, self.sentences[i]) for i in least):
            return False
        for tok in types:
            for i in self._by_first.get(tok, ()):
                if _is_subsequence(self.sentences[i], cand):
                    return False
        for tok in types:
            self._holders.setdefault(tok, []).append(len(self.sentences))
        self._by_first.setdefault(cand[0], []).append(len(self.sentences))
        self.sentences.append(cand)
        return True


def _draw_sentence(rng, vocab, spec) -> tuple[str, ...]:
    length = int(rng.integers(spec.min_sentence_tokens, spec.max_sentence_tokens + 1))
    # One call for all tokens draws the same values as one call per token.
    return tuple([vocab[i] for i in rng.integers(len(vocab), size=length).tolist()])


def _perturbed_copy(rng, vocab, spec, index: SourceIndex, source_idx) -> tuple[str, ...]:
    source = index.sentences[source_idx]
    for _ in range(50):
        cand = [
            vocab[int(rng.integers(len(vocab)))] if rng.random() < spec.noise_rate else tok
            for tok in source
        ]
        if index.best_source(cand)[0] == source_idx:
            return tuple(cand)
    # Verbatim copy: optimal because no report sentence contains another.
    return source


def _make_report(rng, vocab, spec, report_id):
    """Report sentences with no mutual containment, its summaries and their
    planted alignment, or None when `select_reference` would pick another."""
    kept = _Uncontained()
    rejected = 0
    while len(kept.sentences) < spec.sentences_per_report:
        rejected = 0 if kept.offer(_draw_sentence(rng, vocab, spec)) else rejected + 1
        if rejected == MAX_REJECTED_DRAWS:
            raise ConfigError(
                f"synthesis spec cannot be met: {MAX_REJECTED_DRAWS} draws in a row contained or were "
                f"contained in a kept sentence, with {len(kept.sentences)} of {spec.sentences_per_report} kept"
            )
    sentences = kept.sentences

    index = SourceIndex(sentences)
    summaries = []
    truth_rows = []
    for _ in range(spec.summaries_per_report):
        sources = sorted(rng.choice(spec.sentences_per_report, size=spec.summary_sentences, replace=False).tolist())
        sents = []
        rows = []
        for t, src in enumerate(sources):
            copy = _perturbed_copy(rng, vocab, spec, index, src)
            sents.append(copy)
            rows.append((t, src, rouge_l_sentence(sentences[src], copy).recall))
        summaries.append(sents)
        truth_rows.append(rows)
    alignment = pick_reference(report_id, sentences, summaries, truth_rows)
    if select_reference(Document(report_id, sentences, summaries), index) != alignment:
        return None
    return sentences, summaries, alignment


def generate(spec: SynthSpec, root: str | Path) -> dict[str, list[OracleAlignment]]:
    """Write the corpus tree under root; returns truth alignments per split.

    Every report is drawn before the first file is written, so a spec
    that cannot be met leaves root as it was. Same spec and root contents
    are byte-identical across runs.
    """
    root = Path(root)
    vocab = [f"w{i}" for i in range(spec.vocabulary_size)]
    counts = {
        "training": spec.n_reports,
        "validation": spec.n_validation_reports,
        "testing": spec.n_testing_reports,
    }
    drawn: dict[str, list[tuple[str, list, list]]] = {}
    truth: dict[str, list[OracleAlignment]] = {}
    for split_idx, (split, n) in enumerate(counts.items()):
        drawn[split], truth[split] = [], []
        for ridx in range(n):
            report_id = f"{_SPLIT_PREFIX[split]}{ridx:04d}"
            for attempt in range(20):
                rng = np.random.default_rng([spec.seed, split_idx, ridx, attempt])
                report = _make_report(rng, vocab, spec, report_id)
                if report is not None:
                    break
            else:
                raise ConfigError(f"synthesis spec cannot be met: no argmax-consistent report {report_id}")
            sentences, summaries, alignment = report
            drawn[split].append((report_id, sentences, summaries))
            truth[split].append(alignment)
    for split, reports in drawn.items():
        reports_dir = root / split / "annual_reports"
        summaries_dir = root / split / "gold_summaries"
        reports_dir.mkdir(parents=True, exist_ok=True)
        summaries_dir.mkdir(parents=True, exist_ok=True)
        for report_id, sentences, summaries in reports:
            (reports_dir / f"{report_id}.txt").write_text(
                "\n".join(sentence_line(s) for s in sentences) + "\n", encoding="utf-8"
            )
            for j, sents in enumerate(summaries):
                (summaries_dir / f"{report_id}_{j + 1}.txt").write_text(
                    "\n".join(sentence_line(s) for s in sents) + "\n", encoding="utf-8"
                )
        save_alignments(truth[split], root / f"truth_alignments_{split}.jsonl")
    with (root / "synth_spec.json").open("w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return truth
