"""Per-cell reference implementations that the batched encoders are tested against.

`bilstm_sequence` is the exact path `autodiff.bilstm_batch` replaced: one
`lstm_cell` node per position and direction, and one `concat` node per
output position. `percell_extractor_encode` is the extractor's encoder built
the same way, one word sequence at a time.
"""

from typing import Sequence

import numpy as np

from narrsum import autodiff as ad


def stack_rows(rows: Sequence[ad.Value]) -> ad.Value:
    rows = tuple(rows)
    assert rows and all(r.data.ndim == 1 and r.shape == rows[0].shape for r in rows)

    def backward(g):
        for k, r in enumerate(rows):
            r.accum(g[k])

    return ad.Value(np.stack([r.data for r in rows]), rows, backward)


def bilstm_sequence(
    inputs: Sequence[ad.Value], wf: ad.Value, bf: ad.Value, wb: ad.Value, bb: ad.Value, hidden: int
) -> tuple[list[ad.Value], ad.Value, ad.Value]:
    """Both LSTM directions over a sequence of input vectors.

    Returns per-position concatenated states and the two final hidden
    states (forward direction's last, backward direction's first).
    """
    inputs = list(inputs)
    assert inputs, "bilstm_sequence: empty input"
    zeros = ad.const(np.zeros(hidden))
    fwd: list[ad.Value] = []
    h, c = zeros, zeros
    for x in inputs:
        h, c = ad.lstm_cell(x, h, c, wf, bf)
        fwd.append(h)
    bwd: list[ad.Value] = [zeros] * len(inputs)
    h, c = zeros, zeros
    for k in range(len(inputs) - 1, -1, -1):
        h, c = ad.lstm_cell(inputs[k], h, c, wb, bb)
        bwd[k] = h
    outputs = [ad.concat([fwd[k], bwd[k]]) for k in range(len(inputs))]
    return outputs, fwd[-1], bwd[0]


def percell_extractor_encode(model, ids_lists: Sequence[Sequence[int]]) -> ad.Value:
    """`ExtractorModel.encode` with one word BiLSTM per sentence and no padding."""
    p = model.params
    h = model.hidden_dim
    sentence_vecs = []
    for ids in ids_lists:
        embedded = ad.embedding_lookup(p["embed"], ids)
        words = [ad.take_row(embedded, k) for k in range(len(ids))]
        _, f_last, b_first = bilstm_sequence(words, p["word_f_w"], p["word_f_b"], p["word_b_w"], p["word_b_b"], h)
        sentence_vecs.append(ad.concat([f_last, b_first]))
    contextual, _, _ = bilstm_sequence(sentence_vecs, p["sent_f_w"], p["sent_f_b"], p["sent_b_w"], p["sent_b_b"], h)
    return stack_rows(contextual + [p["stop_key"]])
