"""Per-cell reference implementations that the fused ops are tested against.

`bilstm_sequence` is the exact path `autodiff.bilstm_batch` replaced: one
`lstm_cell` node per position and direction, and one `concat` node per
output position. `percell_extractor_encode` is the extractor's encoder built
the same way, one word sequence at a time.

`abstractor_step` is the abstractor decoder step that `attention_decoder`,
`linear` and `mean_cross_entropy` replaced in training and the graph-free
`AbstractorModel._decode_step` replaced in decoding: one `take_row`,
`concat`, `lstm_cell`, `bahdanau_attention` and output `matmul` per token.
The `percell_*` abstractor functions build the loss and run beam search on it.

`sigmoid`, `softmax`, `vsum`, `mean` and `bahdanau_attention` are graph
primitives with no caller left in the package; the gradient checks and this
reference still use them.
"""

from typing import Sequence

import numpy as np

from narrsum import autodiff as ad
from narrsum.abstractor import _Hypothesis
from narrsum.corpus import END_ID, START_ID


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


# ---------------------------------------------------------------- primitives


def sigmoid(a: ad.Value) -> ad.Value:
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.accum(g * s * (1.0 - s))

    return ad.Value(s, (a,), backward)


def softmax(a: ad.Value) -> ad.Value:
    ad._require(a.data.ndim == 1, f"softmax: rank {a.data.ndim}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    p = e / e.sum()

    def backward(g):
        a.accum(p * (g - g @ p))

    return ad.Value(p, (a,), backward)


def vsum(a: ad.Value) -> ad.Value:
    def backward(g):
        a.accum(np.full_like(a.data, g))

    return ad.Value(a.data.sum(), (a,), backward)


def mean(a: ad.Value) -> ad.Value:
    n = a.data.size
    ad._require(n > 0, "mean: empty operand")

    def backward(g):
        a.accum(np.full_like(a.data, g / n))

    return ad.Value(a.data.mean(), (a,), backward)


def bahdanau_attention(
    query: ad.Value,
    keys: ad.Value,
    wq: ad.Value,
    wk: ad.Value,
    v: ad.Value,
    additive_mask: np.ndarray | None = None,
) -> tuple[ad.Value, ad.Value]:
    """Additive attention; returns (weights over keys, context vector)."""
    ad._require(query.data.ndim == 1 and keys.data.ndim == 2, "attention: ranks")
    ad._require(wq.shape[0] == query.shape[0], f"attention: query {query.shape} vs {wq.shape}")
    ad._require(wk.shape[0] == keys.shape[1], f"attention: keys {keys.shape} vs {wk.shape}")
    ad._require(wq.shape[1] == wk.shape[1] == v.shape[0], "attention: inner dims disagree")
    scores = ad.matmul(ad.tanh(ad.add_row(ad.matmul(keys, wk), ad.matmul(query, wq))), v)
    if additive_mask is not None:
        mask = np.asarray(additive_mask, dtype=np.float64)
        ad._require(mask.shape == scores.shape, f"attention: mask {mask.shape} vs {scores.shape}")
        scores = ad.add(scores, ad.const(mask))
    weights = softmax(scores)
    context = ad.matmul(weights, keys)
    return weights, context


# ---------------------------------------------------------------- abstractor decoder


def abstractor_initial_state(init: ad.Value) -> tuple:
    zeros = ad.const(np.zeros(init.shape[0]))
    return (init, zeros, zeros)


def abstractor_step(model, keys: ad.Value, token_id: int, state: tuple) -> tuple[ad.Value, tuple]:
    """One decoder step from (h, c, context) as graph nodes; returns logits, new state."""
    p = model.params
    h, c, context = state
    token_vec = ad.take_row(p["embed"], token_id)
    h, c = ad.lstm_cell(ad.concat([token_vec, context]), h, c, p["dec_w"], p["dec_b"])
    _, context = bahdanau_attention(h, keys, p["att_wq"], p["att_wk"], p["att_v"])
    logits = ad.add(ad.matmul(p["out_w"], ad.concat([h, context])), p["out_b"])
    return logits, (h, c, context)


def percell_forced_logits(model, src_ids: Sequence[int], tgt_ids: Sequence[int]) -> list[ad.Value]:
    keys, init = model.encode(src_ids)
    state = abstractor_initial_state(init)
    logits_per_step = []
    for prev in [START_ID] + list(tgt_ids):
        logits, state = abstractor_step(model, keys, prev, state)
        logits_per_step.append(logits)
    return logits_per_step


def percell_teacher_forced_loss(model, src_ids: Sequence[int], tgt_ids: Sequence[int]) -> ad.Value:
    """Mean cross-entropy over target tokens plus the end marker, one node chain per step."""
    targets = list(tgt_ids) + [END_ID]
    nodes = percell_forced_logits(model, src_ids, tgt_ids)
    total = ad.cross_entropy(nodes[0], targets[0])
    for logits, target in zip(nodes[1:], targets[1:]):
        total = ad.add(total, ad.cross_entropy(logits, target))
    return ad.scale(total, 1.0 / len(targets))


def percell_paraphrase_scored(model, src_ids: Sequence[int], decode) -> tuple[list[int], float, bool]:
    """`AbstractorModel.paraphrase_scored` with every step built by `abstractor_step`."""
    keys, init = model.encode(src_ids)
    root = _Hypothesis([], frozenset(), 0.0, abstractor_initial_state(init), False)

    def expand(hyp):
        prev = hyp.tokens[-1] if hyp.tokens else START_ID
        logits, state = abstractor_step(model, keys, prev, hyp.state)
        return model._adjusted_logp(logits.data, hyp, decode), state

    greedy = root
    for _ in range(decode.max_output_tokens):
        adjusted, state = expand(greedy)
        token = int(np.argmax(adjusted))
        greedy = model._extend(greedy, token, float(adjusted[token]), state)
        if greedy.finished:
            break

    active, done = [root], []
    for _ in range(decode.max_output_tokens):
        extensions = []
        for hyp in active:
            adjusted, state = expand(hyp)
            for token in np.argsort(adjusted)[::-1][: decode.beam_width]:
                extensions.append(model._extend(hyp, int(token), float(adjusted[token]), state))
        extensions.sort(key=lambda h: h.score, reverse=True)
        kept = extensions[: decode.beam_width]
        done.extend(h for h in kept if h.finished)
        active = [h for h in kept if not h.finished]
        if not active:
            break

    pool = done + active + [greedy]
    finished = [h for h in pool if h.finished]
    best = max(finished if finished else pool, key=lambda h: h.score)
    if best.score < greedy.score:
        best = greedy
    return list(best.tokens), best.score, best.finished
