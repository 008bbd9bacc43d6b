"""Pointer-network sentence extractor over hierarchical BiLSTM encodings.

Each document sentence is encoded word-by-word, then the sentence
vectors are contextualized by a second bidirectional pass. An attention
decoder points at one not-yet-chosen sentence per step, with a learned
stop sentinel appended to the candidate set; selection is capped at a
hard maximum number of steps. Decoding runs in NumPy with no graph;
training replays a path through one fused op.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import PAD_ID, Document, Vocab, write_jsonl
from .oracle import aligned_reports

log = logging.getLogger(__name__)


@dataclass
class Extraction:
    report_id: str
    indices: list[int]
    step_log_probs: list[float]

    def to_record(self) -> dict:
        return {
            "report_id": self.report_id,
            "indices": list(self.indices),
            "log_probs": [float(p) for p in self.step_log_probs],
        }


def doc_to_ids(doc: Document, vocab: Vocab) -> list[list[int]]:
    return [vocab.encode(s) for s in doc.sentences]


def pointer_chooser(mode: str, rng: np.random.Generator | None) -> Callable[[np.ndarray, int], int]:
    """The `decode` chooser of a mode: "greedy" takes the most probable
    index, "sample" draws one from the masked probabilities with `rng`."""
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode: {mode!r}")
    if mode == "greedy":
        return lambda probs, _t: int(np.argmax(probs))
    if rng is None:
        raise ValueError("sampled decoding needs an rng")
    return lambda probs, _t: int(rng.choice(len(probs), p=probs))


class ExtractorModel(ad.Checkpointed):
    """Weights plus the forward passes; all state lives in .params."""

    KIND = "extractor"
    SIZES = ("vocab_size", "embedding_dim", "hidden_dim")

    @staticmethod
    def param_table(vocab_size: int, embedding_dim: int, hidden_dim: int) -> dict[str, tuple[tuple[int, ...], str]]:
        e, h = embedding_dim, hidden_dim
        return {
            "embed": ((vocab_size, e), "uniform"),
            "word_f_w": ((4 * h, e + h), "uniform"),
            "word_f_b": ((4 * h,), "lstm_bias"),
            "word_b_w": ((4 * h, e + h), "uniform"),
            "word_b_b": ((4 * h,), "lstm_bias"),
            "sent_f_w": ((4 * h, 2 * h + h), "uniform"),
            "sent_f_b": ((4 * h,), "lstm_bias"),
            "sent_b_w": ((4 * h, 2 * h + h), "uniform"),
            "sent_b_b": ((4 * h,), "lstm_bias"),
            "dec_w": ((4 * 2 * h, 2 * h + 2 * h), "uniform"),
            "dec_b": ((4 * 2 * h,), "lstm_bias"),
            "att_wq": ((2 * h, h), "uniform"),
            "att_wk": ((2 * h, h), "uniform"),
            "att_v": ((h,), "uniform"),
            "stop_key": ((2 * h,), "uniform"),
        }

    def __init__(self, vocab_size: int, embedding_dim: int, hidden_dim: int, rng: np.random.Generator):
        self._fill((vocab_size, embedding_dim, hidden_dim), rng)

    # ------------------------------------------------------------ encoding

    def encode(self, ids_lists: Sequence[Sequence[int]]) -> ad.Value:
        """Contextual sentence keys, with the stop sentinel as the last row."""
        if not ids_lists:
            raise ValueError("cannot encode a document with no sentences")
        lengths = [len(ids) for ids in ids_lists]
        if min(lengths) == 0:
            raise ValueError("cannot encode an empty sentence")
        p = self.params
        h = self.hidden_dim
        n = len(ids_lists)
        width = max(lengths)
        padded = [i for ids in ids_lists for i in list(ids) + [PAD_ID] * (width - len(ids))]
        words = ad.reshape(ad.embedding_lookup(p["embed"], padded), (n, width, self.embedding_dim))
        _, sentence_vecs = ad.bilstm_batch(
            words, lengths, p["word_f_w"], p["word_f_b"], p["word_b_w"], p["word_b_b"], h
        )
        contextual, _ = ad.bilstm_batch(
            ad.reshape(sentence_vecs, (1, n, 2 * h)), [n],
            p["sent_f_w"], p["sent_f_b"], p["sent_b_w"], p["sent_b_b"], h,
        )
        rows = ad.concat([ad.reshape(contextual, (n * 2 * h,)), p["stop_key"]])
        return ad.reshape(rows, (n + 1, 2 * h))

    # ------------------------------------------------------------ decoding

    def decode(
        self,
        keys: np.ndarray,
        n_sentences: int,
        choose: Callable[[np.ndarray, int], int],
        max_steps: int,
    ) -> list[ad.PointerStep]:
        """Pointer steps until stop, exhaustion, or the step cap, in NumPy
        with no graph; `keys` is the data of the document's `encode` output.

        choose() sees the masked probability vector (stop at position
        n_sentences) and must return one unmasked index.
        """
        if keys.shape[0] != n_sentences + 1:
            raise ValueError(f"{keys.shape[0]} keys for {n_sentences} sentences and stop")
        p = self.params
        return ad.pointer_scan(
            keys, keys @ p["att_wk"].data, p["dec_w"].data, p["dec_b"].data, p["att_wq"].data, p["att_v"].data,
            choose, max_steps,
        )

    def extract(self, report_id: str, ids_lists: Sequence[Sequence[int]], max_steps: int) -> Extraction:
        """Greedy pointing at sentences of `ids_lists`, from one encoding and
        one scan of up to `max_steps` (at least 1) steps. A pointer that
        stops at once falls back to that step's most probable real sentence,
        with no log-probs, so every report gets a non-empty extraction."""
        stop = len(ids_lists)
        steps = self.decode(self.encode(ids_lists).data, stop, pointer_chooser("greedy", None), max_steps)
        if steps[0].action == stop:
            return Extraction(report_id, [int(np.argmax(steps[0].probs[:-1]))], [])
        indices = [s.action for s in steps if s.action != stop]
        log_probs = [float(np.log(s.probs[s.action])) for s in steps]
        return Extraction(report_id, indices, log_probs)

    # ------------------------------------------------------------ training

    def forced_scores(self, ids_lists: Sequence[Sequence[int]], actions: Sequence[int]) -> ad.Value:
        """The masked score rows (T, n + 1) of the pointer replayed along
        `actions` over a fresh encoding of `ids_lists`, as a graph; a path
        that chooses every sentence ends there, without a stop step."""
        p = self.params
        return ad.pointer_decoder(
            self.encode(ids_lists), actions, p["dec_w"], p["dec_b"], p["att_wq"], p["att_wk"], p["att_v"]
        )

    def teacher_forced_loss(self, ids_lists: Sequence[Sequence[int]], targets: Sequence[int]) -> ad.Value:
        """Mean cross-entropy along the forced path targets + stop."""
        forced = list(targets) + [len(ids_lists)]
        rows = self.forced_scores(ids_lists, forced)
        return ad.mean_cross_entropy(rows, forced[: rows.shape[0]])


# ---------------------------------------------------------------- training data


def prepare_extractor_examples(reports, alignments, vocab: Vocab):
    """(id, sentence ids, targets) per aligned report with extraction targets."""
    prepared = []
    for report, alignment in aligned_reports(reports, alignments):
        if not alignment.extract_targets:
            log.warning("report %s skipped: empty extraction targets", alignment.report_id)
            continue
        prepared.append((alignment.report_id, doc_to_ids(report, vocab), list(alignment.extract_targets)))
    return prepared


def example_loss(model: ExtractorModel) -> Callable[..., ad.Value]:
    """`training.fit`'s loss over prepared (report id, sentence ids, targets) examples."""
    return lambda _report_id, ids_lists, targets: model.teacher_forced_loss(ids_lists, targets)


# ---------------------------------------------------------------- persistence of runs


def save_extractions(extractions: Sequence[Extraction], path: str | Path) -> None:
    write_jsonl((ex.to_record() for ex in extractions), path)
