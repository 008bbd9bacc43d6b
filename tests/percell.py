"""Per-cell reference implementations that the fused ops are tested against.

`bilstm_sequence` is the exact path `autodiff.bilstm_batch` replaced: one
`lstm_cell` node per position and direction, and one `concat` node per
output position. `percell_extractor_encode` is the extractor's encoder built
the same way, one word sequence at a time.

`bilstm_batch_two_loops` is `autodiff.bilstm_batch` as it was before both
directions shared one time loop: a separate scan per direction
(`lstm_scan_one_direction` and `lstm_scan_grad_one_direction`) on the gate
kernels `lstm_gates_allocating` and `lstm_gates_grad_allocating`, which
return new arrays where `autodiff.lstm_gates` and `lstm_gates_grad` write in
place. The fused code must equal it bit for bit.

`abstractor_step` is the abstractor decoder step that `attention_decoder`,
`linear` and `mean_cross_entropy` replaced in training and the graph-free
`AbstractorModel._decode_step` replaced in decoding: one `take_row`,
`concat`, `lstm_cell`, `bahdanau_attention` and output `matmul` per token.
The `percell_*` abstractor functions build the loss and run beam search on it.

`pointer_step_scores` is the pointer decoder that `autodiff.pointer_decoder`
replaced in training and `autodiff.pointer_scan` in decoding: one
`lstm_cell`, `matmul`, `add_row`, `tanh`, `matmul` and mask `add` per step,
then `take_row` of the chosen key. `percell_pointer_loss` is the extractor's
teacher-forced loss on it, one `cross_entropy` node per step, and
`percell_policy_loss` the actor's loss over it, one `log_softmax_at` node
per step.

The generic graph ops below (`const` to `cross_entropy`, and `sigmoid`,
`softmax`, `vsum`, `mean` and `bahdanau_attention`) have no caller left in
the package; the gradient checks and these references still use them.
`grad_check` is the finite-difference check that the gradient tests run.
"""

from typing import Callable, Sequence

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
    zeros = const(np.zeros(hidden))
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
        words = [take_row(embedded, k) for k in range(len(ids))]
        _, f_last, b_first = bilstm_sequence(words, p["word_f_w"], p["word_f_b"], p["word_b_w"], p["word_b_b"], h)
        sentence_vecs.append(ad.concat([f_last, b_first]))
    contextual, _, _ = bilstm_sequence(sentence_vecs, p["sent_f_w"], p["sent_f_b"], p["sent_b_w"], p["sent_b_b"], h)
    return stack_rows(contextual + [p["stop_key"]])


# ---------------------------------------------------------------- two-loop BiLSTM


def lstm_gates_allocating(z: np.ndarray, c_prev: np.ndarray, acts: np.ndarray):
    """The LSTM gate step, in `ad.lstm_cell`'s [i; f; g; o] layout, on
    pre-activations `z` (..., 4H) that already hold every matrix product and
    the bias. Writes the gate activations into `acts` (shaped like `z`) and
    returns the new cell, its tanh and the new hidden state."""
    hidden = z.shape[-1] // 4
    acts[...] = 1.0 / (1.0 + np.exp(-z))
    acts[..., 2 * hidden : 3 * hidden] = np.tanh(z[..., 2 * hidden : 3 * hidden])
    c = acts[..., hidden : 2 * hidden] * c_prev + acts[..., :hidden] * acts[..., 2 * hidden : 3 * hidden]
    tanh_c = np.tanh(c)
    return c, tanh_c, acts[..., 3 * hidden :] * tanh_c


def lstm_gates_grad_allocating(dh, dc, acts, tanh_c, c_prev, dz) -> np.ndarray:
    """Backward of `lstm_gates_allocating`: given the gradient `dh` of the new hidden
    state and the gradient `dc` that later steps pass to the new cell, writes
    the pre-activations' gradient into `dz` and returns the previous cell's."""
    hidden = dh.shape[-1]
    i, f = acts[..., :hidden], acts[..., hidden : 2 * hidden]
    g, o = acts[..., 2 * hidden : 3 * hidden], acts[..., 3 * hidden :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz[..., :hidden] = dc * g * i * (1.0 - i)
    dz[..., hidden : 2 * hidden] = dc * c_prev * f * (1.0 - f)
    dz[..., 2 * hidden : 3 * hidden] = dc * i * (1.0 - g * g)
    dz[..., 3 * hidden :] = dh * tanh_c * o * (1.0 - o)
    return dc * f


def lstm_scan_one_direction(xz: np.ndarray, wh: np.ndarray, mask: np.ndarray):
    """One LSTM direction over time-major pre-activations `xz` (T, B, 4H),
    which already hold the input projection and the bias.

    Rows whose `mask` (T, B, 1) is 0 at a step have their state zeroed
    there, so padding never leaks into real positions. Returns the gate
    activations (T, B, 4H), tanh of the raw cell (T, B, H), and the hidden
    and cell states (T + 1, B, H) with the zero initial state at index 0.
    """
    steps, n, four_h = xz.shape
    hidden = four_h // 4
    ragged = (mask == 0.0).any(axis=(1, 2))
    acts = np.empty_like(xz)
    tanh_c = np.empty((steps, n, hidden))
    hs = np.zeros((steps + 1, n, hidden))
    cs = np.zeros((steps + 1, n, hidden))
    wh_t = wh.T
    for t in range(steps):
        c, tanh_c[t], h = lstm_gates_allocating(xz[t] + hs[t] @ wh_t, cs[t], acts[t])
        if ragged[t]:
            c *= mask[t]
            h *= mask[t]
        cs[t + 1] = c
        hs[t + 1] = h
    return acts, tanh_c, hs, cs


def lstm_scan_grad_one_direction(
    dh_out: np.ndarray, wh: np.ndarray, mask: np.ndarray, acts, tanh_c, cs
) -> np.ndarray:
    """Backpropagation through time for `lstm_scan_one_direction`: the gradient with
    respect to the pre-activations (T, B, 4H), given the gradient with
    respect to the emitted hidden states `dh_out` (T, B, H)."""
    steps, n, hidden = dh_out.shape
    ragged = (mask == 0.0).any(axis=(1, 2))
    dz = np.empty((steps, n, 4 * hidden))
    dh = np.zeros((n, hidden))
    dc = np.zeros((n, hidden))
    for t in range(steps - 1, -1, -1):
        dh = dh + dh_out[t]
        if ragged[t]:
            dh *= mask[t]
            dc *= mask[t]
        dc = lstm_gates_grad_allocating(dh, dc, acts[t], tanh_c[t], cs[t], dz[t])
        dh = dz[t] @ wh
    return dz


def bilstm_batch_two_loops(
    x: ad.Value, lengths: Sequence[int], wf: ad.Value, bf: ad.Value, wb: ad.Value, bb: ad.Value, hidden: int
) -> tuple[ad.Value, ad.Value]:
    """Both LSTM directions over a padded batch `x` (B, T, D) of sequences
    with the given per-row lengths; weights use `ad.lstm_cell`'s layout.

    Returns `states` (B, T, 2H), the forward and backward hidden state at
    each position side by side and zero at padding, and `finals` (B, 2H),
    each row's forward state at its last position beside its backward
    state at position 0. Backpropagation through time is hand-written;
    padded positions receive exactly zero gradient.
    """
    ad._require(x.data.ndim == 3, f"bilstm_batch: rank {x.data.ndim}")
    n, steps, dim = x.shape
    lens = np.asarray(lengths, dtype=np.int64)
    ad._require(lens.shape == (n,), f"bilstm_batch: lengths {lens.shape} for {n} rows")
    ad._require(n > 0 and lens.min() >= 1 and lens.max() <= steps, f"bilstm_batch: lengths outside 1..{steps}")
    for w, b in ((wf, bf), (wb, bb)):
        ad._require(w.shape == (4 * hidden, dim + hidden), f"bilstm_batch: weight {w.shape}")
        ad._require(b.shape == (4 * hidden,), f"bilstm_batch: bias {b.shape}")

    x_fwd = np.ascontiguousarray(x.data.transpose(1, 0, 2))  # time-major (T, B, D)
    mask_fwd = (np.arange(steps)[:, None] < lens[None, :]).astype(np.float64)[:, :, None]
    # The backward direction is the forward recurrence over time-reversed
    # rows, whose padding then comes first and keeps the state at zero.
    directions = ((wf, bf, x_fwd, mask_fwd), (wb, bb, x_fwd[::-1], mask_fwd[::-1]))
    scans = []
    for w, b, xs, mask in directions:
        xz = xs.reshape(-1, dim) @ w.data[:, :dim].T + b.data  # every step's input projection at once
        scans.append(lstm_scan_one_direction(xz.reshape(steps, n, 4 * hidden), w.data[:, dim:], mask))
    h_fwd = scans[0][2][1:]
    h_bwd = scans[1][2][:0:-1]

    def backward_states(g):
        g = g.transpose(1, 0, 2)
        dx = np.zeros((steps, n, dim))
        for (w, b, xs, mask), (acts, tanh_c, hs, cs), dh, flip in zip(
            directions, scans, (g[:, :, :hidden], g[::-1, :, hidden:]), (1, -1)
        ):
            dz = lstm_scan_grad_one_direction(dh, w.data[:, dim:], mask, acts, tanh_c, cs).reshape(-1, 4 * hidden)
            w.accum(dz.T @ np.concatenate([xs, hs[:-1]], axis=2).reshape(-1, dim + hidden))
            b.accum(dz.sum(axis=0))
            dx += (dz @ w.data[:, :dim]).reshape(steps, n, dim)[::flip]
        x.accum(dx.transpose(1, 0, 2))

    states = ad.Value(
        np.concatenate([h_fwd, h_bwd], axis=2).transpose(1, 0, 2), (x, wf, bf, wb, bb), backward_states
    )
    rows = np.arange(n)

    def backward_finals(g):
        if states.grad is None:
            states.grad = np.zeros_like(states.data)
        states.grad[rows, lens - 1, :hidden] += g[:, :hidden]
        states.grad[:, 0, hidden:] += g[:, hidden:]

    finals = ad.Value(
        np.concatenate([h_fwd[lens - 1, rows], h_bwd[0]], axis=1), (states,), backward_finals
    )
    return states, finals


# ---------------------------------------------------------------- primitives


def const(data) -> ad.Value:
    return ad.Value(data)


def add(a: ad.Value, b: ad.Value) -> ad.Value:
    ad._require(a.shape == b.shape, f"add: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum(g)
        b.accum(g)

    return ad.Value(a.data + b.data, (a, b), backward)


def sub(a: ad.Value, b: ad.Value) -> ad.Value:
    ad._require(a.shape == b.shape, f"sub: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum(g)
        b.accum(-g)

    return ad.Value(a.data - b.data, (a, b), backward)


def neg(a: ad.Value) -> ad.Value:
    def backward(g):
        a.accum(-g)

    return ad.Value(-a.data, (a,), backward)


def mul(a: ad.Value, b: ad.Value) -> ad.Value:
    ad._require(a.shape == b.shape, f"mul: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum(g * b.data)
        b.accum(g * a.data)

    return ad.Value(a.data * b.data, (a, b), backward)


def dot(a: ad.Value, b: ad.Value) -> ad.Value:
    ad._require(a.data.ndim == 1 and a.shape == b.shape, f"dot: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum(g * b.data)
        b.accum(g * a.data)

    return ad.Value(a.data @ b.data, (a, b), backward)


def matmul(a: ad.Value, b: ad.Value) -> ad.Value:
    """Matrix product for (m,n)@(n,k), (m,n)@(n,), and (n,)@(n,k)."""
    an, bn = a.data.ndim, b.data.ndim
    if an == 2 and bn == 2:
        ad._require(a.shape[1] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")

        def backward(g):
            a.accum(g @ b.data.T)
            b.accum(a.data.T @ g)

    elif an == 2 and bn == 1:
        ad._require(a.shape[1] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")

        def backward(g):
            a.accum(np.outer(g, b.data))
            b.accum(a.data.T @ g)

    elif an == 1 and bn == 2:
        ad._require(a.shape[0] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")

        def backward(g):
            a.accum(b.data @ g)
            b.accum(np.outer(a.data, g))

    else:
        raise ad.ShapeError(f"matmul: unsupported ranks {an} and {bn}")
    return ad.Value(a.data @ b.data, (a, b), backward)


def add_row(m: ad.Value, v: ad.Value) -> ad.Value:
    """Add a vector to every row of a matrix."""
    ad._require(m.data.ndim == 2 and v.data.ndim == 1, f"add_row: {m.shape} + {v.shape}")
    ad._require(m.shape[1] == v.shape[0], f"add_row: {m.shape} + {v.shape}")

    def backward(g):
        m.accum(g)
        v.accum(g.sum(axis=0))

    return ad.Value(m.data + v.data, (m, v), backward)


def take_row(m: ad.Value, index: int) -> ad.Value:
    ad._require(m.data.ndim == 2, f"take_row: rank {m.data.ndim}")
    ad._require(0 <= index < m.shape[0], f"take_row: index {index} of {m.shape}")

    def backward(g):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[index] += g

    return ad.Value(m.data[index], (m,), backward)


def tanh(a: ad.Value) -> ad.Value:
    t = np.tanh(a.data)

    def backward(g):
        a.accum(g * (1.0 - t * t))

    return ad.Value(t, (a,), backward)


def softmax_entropy(logits: ad.Value) -> ad.Value:
    """Entropy of softmax(logits) as a scalar, fused for stability."""
    ad._require(logits.data.ndim == 1, f"softmax_entropy: rank {logits.data.ndim}")
    shifted = logits.data - logits.data.max()
    e = np.exp(shifted)
    p = e / e.sum()
    logp = shifted - np.log(e.sum())
    h = -float(p @ logp)

    def backward(g):
        # dH/ds_j = -p_j (log p_j + H)
        logits.accum(g * (-p * (logp + h)))

    return ad.Value(h, (logits,), backward)


def log_softmax_at(logits: ad.Value, index: int) -> ad.Value:
    """log softmax(logits)[index] as a scalar graph node."""
    ad._require(logits.data.ndim == 1, f"log_softmax_at: rank {logits.data.ndim}")
    ad._require(0 <= index < logits.shape[0], f"log_softmax_at: index {index} of {logits.shape}")
    shifted = logits.data - logits.data.max()
    lse = np.log(np.exp(shifted).sum())
    p = np.exp(shifted - lse)

    def backward(g):
        delta = -p * g
        delta[index] += g
        logits.accum(delta)

    return ad.Value(shifted[index] - lse, (logits,), backward)


def cross_entropy(logits: ad.Value, target: int) -> ad.Value:
    """Negative log softmax probability of the target index."""
    return neg(log_softmax_at(logits, target))


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
    scores = matmul(tanh(add_row(matmul(keys, wk), matmul(query, wq))), v)
    if additive_mask is not None:
        mask = np.asarray(additive_mask, dtype=np.float64)
        ad._require(mask.shape == scores.shape, f"attention: mask {mask.shape} vs {scores.shape}")
        scores = add(scores, const(mask))
    weights = softmax(scores)
    context = matmul(weights, keys)
    return weights, context


# ---------------------------------------------------------------- abstractor decoder


def abstractor_initial_state(init: ad.Value) -> tuple:
    zeros = const(np.zeros(init.shape[0]))
    return (init, zeros, zeros)


def abstractor_step(model, keys: ad.Value, token_id: int, state: tuple) -> tuple[ad.Value, tuple]:
    """One decoder step from (h, c, context) as graph nodes; returns logits, new state."""
    p = model.params
    h, c, context = state
    token_vec = take_row(p["embed"], token_id)
    h, c = ad.lstm_cell(ad.concat([token_vec, context]), h, c, p["dec_w"], p["dec_b"])
    _, context = bahdanau_attention(h, keys, p["att_wq"], p["att_wk"], p["att_v"])
    logits = add(matmul(p["out_w"], ad.concat([h, context])), p["out_b"])
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
    total = cross_entropy(nodes[0], targets[0])
    for logits, target in zip(nodes[1:], targets[1:]):
        total = add(total, cross_entropy(logits, target))
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


# ---------------------------------------------------------------- pointer decoder


def pointer_step_scores(model, keys: ad.Value, actions: Sequence[int]) -> list[ad.Value]:
    """The masked score node of each step of the extractor's pointer replayed
    along `actions`, built from per-step graph ops over the `encode` keys."""
    p = model.params
    n = keys.shape[0] - 1
    key_proj = matmul(keys, p["att_wk"])
    zeros = const(np.zeros(keys.shape[1]))
    state, cell, prev = zeros, zeros, zeros
    chosen: list[int] = []
    rows = []
    for action in actions:
        state, cell = ad.lstm_cell(prev, state, cell, p["dec_w"], p["dec_b"])
        mask = np.zeros(n + 1)
        mask[chosen] = ad.MASK_SCORE
        scores = matmul(tanh(add_row(key_proj, matmul(state, p["att_wq"]))), p["att_v"])
        rows.append(add(scores, const(mask)))
        if action == n:
            break
        chosen.append(action)
        if len(chosen) == n:
            break
        prev = take_row(keys, action)
    return rows


def percell_pointer_loss(model, ids_lists: Sequence[Sequence[int]], targets: Sequence[int]) -> ad.Value:
    """`ExtractorModel.teacher_forced_loss` with one `cross_entropy` node per step."""
    forced = list(targets) + [len(ids_lists)]
    rows = pointer_step_scores(model, model.encode(ids_lists), forced)
    total = cross_entropy(rows[0], forced[0])
    for row, target in zip(rows[1:], forced[1:]):
        total = add(total, cross_entropy(row, target))
    return ad.scale(total, 1.0 / len(rows))


def percell_policy_loss(rows: Sequence[ad.Value], actions: Sequence[int], advantages: Sequence[float]) -> ad.Value:
    """`rl.policy_loss` over per-step score nodes: one scaled `log_softmax_at`
    node per step."""
    terms = [ad.scale(log_softmax_at(row, a), -float(adv)) for row, a, adv in zip(rows, actions, advantages)]
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


# ---------------------------------------------------------------- verification


def grad_check(
    build_loss: Callable[[], ad.Value],
    params: Sequence[ad.Value],
    eps: float = 1e-5,
    max_coords: int = 6,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference grads.

    The relative error at a coordinate is |a - n| / max(1e-8, |a| + |n|).
    build_loss must be a pure function of the current parameter data.
    """
    rng = rng or np.random.default_rng(0)
    ad.zero_grads(params)
    ad.backward(build_loss())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        size = p.data.size
        if size == 0:
            continue
        count = min(max_coords, size)
        coords = rng.choice(size, size=count, replace=False)
        for idx in coords:
            original = p.data.flat[idx]
            p.data.flat[idx] = original + eps
            f_plus = float(build_loss().data)
            p.data.flat[idx] = original - eps
            f_minus = float(build_loss().data)
            p.data.flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(a.flat[idx] - numeric) / max(1e-8, abs(a.flat[idx]) + abs(numeric))
            worst = max(worst, err)
    return worst
