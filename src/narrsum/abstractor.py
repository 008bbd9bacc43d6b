"""Sentence-level attention seq2seq paraphraser.

Maps one extracted report sentence to one summary sentence. Decoding is
beam search with a repetition penalty: the log-probability of a token
already present in a hypothesis is reduced by ln(penalty) before
ranking. One search loop runs twice per sentence, at width 1 (the greedy
lane) and at `beam_width`, so the returned hypothesis never scores below
greedy. Each step ranks a row by its largest entries, ties going to the
lower token id, so the width-1 lane is exactly argmax decoding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .corpus import END_ID, PAD_ID, START_ID, UNK_ID, Vocab
from .oracle import abstractor_pairs, aligned_reports

log = logging.getLogger(__name__)


@dataclass
class _Hypothesis:
    tokens: list[int]
    present: frozenset[int]
    score: float
    state: tuple
    finished: bool


def _top(row: np.ndarray, width: int) -> np.ndarray:
    """Indices of the `width` largest entries, largest first, ties to the
    lower index; O(V), and `np.argmax` at width 1."""
    width = min(width, row.size)
    kth = np.partition(row, -width)[-width]
    candidates = np.flatnonzero(row >= kth)
    return candidates[np.argsort(-row[candidates], kind="stable")[:width]]


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())


class AbstractorModel(ad.Checkpointed):
    """Encoder-decoder weights plus forward passes; state in .params."""

    KIND = "abstractor"
    SIZES = ("vocab_size", "embedding_dim", "hidden_dim")

    @staticmethod
    def param_table(vocab_size: int, embedding_dim: int, hidden_dim: int) -> dict[str, tuple[tuple[int, ...], str]]:
        e, h = embedding_dim, hidden_dim
        return {
            "embed": ((vocab_size, e), "uniform"),
            "enc_f_w": ((4 * h, e + h), "uniform"),
            "enc_f_b": ((4 * h,), "lstm_bias"),
            "enc_b_w": ((4 * h, e + h), "uniform"),
            "enc_b_b": ((4 * h,), "lstm_bias"),
            "dec_w": ((4 * 2 * h, (e + 2 * h) + 2 * h), "uniform"),
            "dec_b": ((4 * 2 * h,), "lstm_bias"),
            "att_wq": ((2 * h, h), "uniform"),
            "att_wk": ((2 * h, h), "uniform"),
            "att_v": ((h,), "uniform"),
            "out_w": ((vocab_size, 4 * h), "uniform"),
            "out_b": ((vocab_size,), "uniform"),
        }

    def __init__(self, vocab_size: int, embedding_dim: int, hidden_dim: int, rng: np.random.Generator):
        self._fill((vocab_size, embedding_dim, hidden_dim), rng)

    # ------------------------------------------------------------ forward

    def encode(self, ids: Sequence[int]) -> tuple[ad.Value, ad.Value]:
        """Source keys (T, 2H) and the initial decoder state (2H,)."""
        if not ids:
            raise ValueError("cannot paraphrase an empty sentence")
        p = self.params
        h2 = 2 * self.hidden_dim
        words = ad.reshape(ad.embedding_lookup(p["embed"], ids), (1, len(ids), self.embedding_dim))
        states, finals = ad.bilstm_batch(
            words, [len(ids)], p["enc_f_w"], p["enc_f_b"], p["enc_b_w"], p["enc_b_b"], self.hidden_dim
        )
        return ad.reshape(states, (len(ids), h2)), ad.reshape(finals, (h2,))

    def forced_logits(self, src_ids: Sequence[int], tgt_ids: Sequence[int]) -> ad.Value:
        """Teacher-forced logits (len(tgt_ids) + 1, V): one row per target
        token and one for the end marker."""
        p = self.params
        keys, init = self.encode(src_ids)
        inputs = ad.embedding_lookup(p["embed"], [START_ID] + list(tgt_ids))
        features = ad.attention_decoder(
            inputs, keys, init, p["dec_w"], p["dec_b"], p["att_wq"], p["att_wk"], p["att_v"]
        )
        return ad.linear(features, p["out_w"], p["out_b"])

    # ------------------------------------------------------------ training

    def teacher_forced_loss(self, src_ids: Sequence[int], tgt_ids: Sequence[int]) -> ad.Value:
        """Mean cross-entropy over target tokens plus the end marker."""
        return ad.mean_cross_entropy(self.forced_logits(src_ids, tgt_ids), list(tgt_ids) + [END_ID])

    # ------------------------------------------------------------ decoding

    def paraphrase(self, src_ids: Sequence[int], config: RunConfig) -> list[int]:
        """Best hypothesis under beam search with the repetition penalty."""
        tokens, _, _ = self.paraphrase_scored(src_ids, config)
        return tokens

    def paraphrase_scored(self, src_ids: Sequence[int], config: RunConfig) -> tuple[list[int], float, bool]:
        """Tokens, penalized score, and finished flag of the best hypothesis
        under `config`'s `beam_width`, `repetition_penalty` and
        `max_output_tokens`.

        Finished hypotheses (end marker emitted) are preferred; among the
        candidates the best penalized score wins, and the result never
        scores below the greedy lane's hypothesis.
        """
        keys, init = self.encode(src_ids)
        source = (keys.data, keys.data @ self.params["att_wk"].data)
        zeros = np.zeros(2 * self.hidden_dim)
        root = _Hypothesis([], frozenset(), 0.0, (init.data, zeros, zeros), False)
        (greedy,) = self._search(source, root, 1, config)
        pool = self._search(source, root, config.beam_width, config) + [greedy]
        finished = [h for h in pool if h.finished]
        candidates = finished if finished else pool
        best = max(candidates, key=lambda h: h.score)
        if best.score < greedy.score:
            best = greedy
        return list(best.tokens), best.score, best.finished

    def _decode_step(self, source: tuple, token_id: int, state: tuple) -> tuple[np.ndarray, tuple]:
        """One decoder step in plain NumPy from (h, c, context); returns the
        logits and the new state. `source` is the keys and their attention
        projection. The step is `attention_step`, the one that
        `attention_decoder` runs in training, so the states match the
        teacher-forced forward pass bit for bit."""
        p = self.params
        keys, key_proj = source
        state, *_ = ad.attention_step(
            p["embed"].data[token_id], state, keys, key_proj,
            p["dec_w"].data, p["dec_b"].data, p["att_wq"].data, p["att_v"].data,
        )
        logits = p["out_w"].data @ np.concatenate([state[0], state[2]]) + p["out_b"].data
        return logits, state

    def _adjusted_logp(self, logits: np.ndarray, hyp: _Hypothesis, config: RunConfig) -> np.ndarray:
        logp = _log_softmax(logits)
        logp[[PAD_ID, UNK_ID, START_ID]] = -np.inf
        penalty = np.log(config.repetition_penalty)
        if penalty > 0.0 and hyp.present:
            logp[list(hyp.present)] -= penalty
        return logp

    def _extend(self, hyp: _Hypothesis, token: int, score: float, state: tuple) -> _Hypothesis:
        if token == END_ID:
            return _Hypothesis(hyp.tokens, hyp.present, hyp.score + score, state, True)
        return _Hypothesis(
            hyp.tokens + [token], hyp.present | {token}, hyp.score + score, state, False
        )

    def _search(self, source: tuple, root: _Hypothesis, width: int, config: RunConfig) -> list[_Hypothesis]:
        """Beam search of `width` from `root`: the finished hypotheses, then
        those still active at the length cap. Width 1 is the greedy lane."""
        active = [root]
        finished: list[_Hypothesis] = []
        for _ in range(config.max_output_tokens):
            extensions: list[_Hypothesis] = []
            for hyp in active:
                prev = hyp.tokens[-1] if hyp.tokens else START_ID
                logits, state = self._decode_step(source, prev, hyp.state)
                adjusted = self._adjusted_logp(logits, hyp, config)
                for token in _top(adjusted, width):
                    extensions.append(self._extend(hyp, int(token), float(adjusted[token]), state))
            extensions.sort(key=lambda h: h.score, reverse=True)
            kept = extensions[:width]
            finished.extend(h for h in kept if h.finished)
            active = [h for h in kept if not h.finished]
            if not active:
                break
        return finished + active


# ---------------------------------------------------------------- training data


def prepare_abstractor_pairs(reports, alignments, vocab: Vocab):
    """Oracle (report sentence, summary sentence) id pairs for training."""
    prepared = []
    for report, alignment in aligned_reports(reports, alignments):
        for src_tokens, tgt_tokens in abstractor_pairs(alignment, report):
            if not tgt_tokens:
                log.warning("report %s: pair with empty target skipped", alignment.report_id)
                continue
            prepared.append((vocab.encode(src_tokens), vocab.encode(tgt_tokens)))
    return prepared
