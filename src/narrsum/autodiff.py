"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Supplies exactly the primitives the sentence extractor and the sentence
paraphraser need: affine maps, lookups, a batched BiLSTM, two attention
decoders and classification losses, each recurrence one node with
hand-written backpropagation through time, plus Adam, global-norm
clipping, and a binary checkpoint format. The LSTM gate step and the
additive-attention step are NumPy helpers that every recurrence and the
graph-free decoders share. No broadcasting is ever implicit; every shape
rule is explicit and mismatches fail at graph construction time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operands do not satisfy an operation's shape rule."""


class NonFiniteGradError(RuntimeError):
    """Raised when a training step sees NaN or infinite gradients."""


class Value:
    """One node of the computation graph: data, lazy grad, backward rule.

    A backward rule receives the node's gradient as its argument and holds
    references only to the node's parents, never to the node itself, so a
    graph has no reference cycles and is freed as soon as its last node
    goes out of scope.
    """

    __slots__ = ("data", "grad", "spare", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents: tuple = (), backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.spare: np.ndarray | None = None  # a gradient array that `Adam.zero_grad` handed back
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = self.grad_zeros()
        self.grad += g

    def grad_zeros(self) -> np.ndarray:
        """A zero array of the data's shape to start `grad` with: the spare,
        zero-filled and taken, when there is one, else a new array."""
        spare = self.spare
        if spare is None:
            return np.zeros(self.data.shape)
        self.spare = None
        spare.fill(0.0)
        return spare

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape})"


def param(data) -> Value:
    return Value(np.array(data, dtype=np.float64, copy=True))


def _require(cond: bool, message: str, *args) -> None:
    if not cond:  # format the message only on failure
        raise ShapeError(message.format(*args))


# ---------------------------------------------------------------- arithmetic


def scale(a: Value, s: float) -> Value:
    s = float(s)

    def backward(g):
        a.accum(g * s)

    return Value(a.data * s, (a,), backward)


def linear(x: Value, w: Value, b: Value) -> Value:
    """Affine map of every row: `x @ w.T + b` for x (N, D), w (K, D), b (K,)."""
    _require(x.data.ndim == 2 and w.data.ndim == 2 and b.data.ndim == 1, "linear: ranks")
    _require(x.shape[1] == w.shape[1] and w.shape[0] == b.shape[0], "linear: {} @ {}.T + {}", x.shape, w.shape, b.shape)

    def backward(g):
        x.accum(g @ w.data)
        w.accum(g.T @ x.data)
        b.accum(g.sum(axis=0))

    return Value(x.data @ w.data.T + b.data, (x, w, b), backward)


def reshape(a: Value, shape: tuple[int, ...]) -> Value:
    _require(int(np.prod(shape)) == a.data.size, "reshape: {} -> {}", a.shape, shape)

    def backward(g):
        a.accum(g.reshape(a.data.shape))

    return Value(a.data.reshape(shape), (a,), backward)


def concat(parts: Sequence[Value]) -> Value:
    parts = tuple(parts)
    _require(len(parts) > 0, "concat: no operands")
    for p in parts:
        _require(p.data.ndim == 1, "concat: rank {}", p.data.ndim)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            p.accum(g[lo:hi])

    return Value(np.concatenate([p.data for p in parts]), parts, backward)


# ---------------------------------------------------------------- losses and lookup


def mean_cross_entropy(logits: Value, targets: Sequence[int]) -> Value:
    """Mean over the rows of `logits` (N, K) of `cross_entropy(row, target)`.

    Each row's loss is computed as `cross_entropy` computes it and the row
    losses are summed in order, so the value matches a left-to-right chain
    of `add` nodes over per-row `cross_entropy` nodes, scaled by 1/N.
    """
    _require(logits.data.ndim == 2, "mean_cross_entropy: rank {}", logits.data.ndim)
    n, k = logits.shape
    idx = np.asarray(list(targets), dtype=np.int64)
    _require(n > 0 and idx.shape == (n,), "mean_cross_entropy: {} targets for {} rows", len(idx), n)
    _require(idx.min() >= 0 and idx.max() < k, "mean_cross_entropy: target out of range for {}", logits.shape)
    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[rows, idx]
    s = 1.0 / n

    def backward(g):
        gs = g * s
        delta = np.exp(shifted - lse[:, None]) * gs
        delta[rows, idx] -= gs
        logits.accum(delta)

    return Value(np.cumsum(losses)[-1] * s, (logits,), backward)


def embedding_lookup(table: Value, ids: Sequence[int]) -> Value:
    _require(table.data.ndim == 2, "embedding_lookup: rank {}", table.data.ndim)
    idx = np.asarray(list(ids), dtype=np.int64)
    _require(idx.ndim == 1, "embedding_lookup: ids must be flat")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.shape}")

    def backward(g):
        if table.grad is None:
            table.grad = table.grad_zeros()
        np.add.at(table.grad, idx, g)

    return Value(table.data[idx], (table,), backward)


# ---------------------------------------------------------------- recurrence


def lstm_cell(x: Value, h: Value, c: Value, w: Value, b: Value) -> tuple[Value, Value]:
    """One LSTM step; returns (next hidden, next cell).

    Weight layout: rows [i; f; g; o], each block hidden-size tall, acting
    on the concatenation [x; h]. The hidden node lists the cell node as a
    parent, so backward order routes the output gate's cell dependency
    correctly.
    """
    _require(x.data.ndim == 1 and h.data.ndim == 1 and c.data.ndim == 1, "lstm_cell: rank")
    hidden = h.shape[0]
    _require(c.shape == (hidden,), "lstm_cell: cell {} vs hidden {}", c.shape, h.shape)
    in_dim = x.shape[0]
    _require(w.shape == (4 * hidden, in_dim + hidden), "lstm_cell: weight {}", w.shape)
    _require(b.shape == (4 * hidden,), "lstm_cell: bias {}", b.shape)

    xh = np.concatenate([x.data, h.data])
    acts = np.empty(4 * hidden)
    c_data, t, h_data = lstm_gates(w.data @ xh + b.data, c.data, acts)
    i, f, g, o = np.split(acts, 4)

    def backward_c(gc):
        c.accum(gc * f)
        dz = np.concatenate(
            [
                gc * g * i * (1.0 - i),
                gc * c.data * f * (1.0 - f),
                gc * i * (1.0 - g * g),
            ]
        )
        if w.grad is None:
            w.grad = w.grad_zeros()
        w.grad[: 3 * hidden] += np.outer(dz, xh)
        if b.grad is None:
            b.grad = b.grad_zeros()
        b.grad[: 3 * hidden] += dz
        dxh = w.data[: 3 * hidden].T @ dz
        x.accum(dxh[:in_dim])
        h.accum(dxh[in_dim:])

    c_next = Value(c_data, (x, h, c, w, b), backward_c)

    def backward_h(gh):
        c_next.accum(gh * o * (1.0 - t * t))
        dz_o = gh * t * o * (1.0 - o)
        if w.grad is None:
            w.grad = w.grad_zeros()
        w.grad[3 * hidden :] += np.outer(dz_o, xh)
        if b.grad is None:
            b.grad = b.grad_zeros()
        b.grad[3 * hidden :] += dz_o
        dxh = w.data[3 * hidden :].T @ dz_o
        x.accum(dxh[:in_dim])
        h.accum(dxh[in_dim:])

    h_next = Value(h_data, (x, h, w, b, c_next), backward_h)
    return h_next, c_next


def lstm_gates(z: np.ndarray, c_prev: np.ndarray, acts: np.ndarray, out: tuple | None = None):
    """The LSTM gate step, in `lstm_cell`'s [i; f; g; o] layout, on
    pre-activations `z` (..., 4H) that already hold every matrix product and
    the bias. Writes the gate activations into `acts` (shaped like `z`), and
    the new cell, its tanh and the new hidden state into `out` (three arrays
    shaped like `c_prev`; new ones when it is not given), which it returns.

    Each result is computed with the operations, in the order, of
    `sigmoid(z)`, `c = f * c_prev + i * g` and `h = o * tanh(c)` written out,
    only into the given arrays instead of temporaries, so it rounds the same.
    """
    hidden = z.shape[-1] // 4
    c, tanh_c, h = (None, None, None) if out is None else out  # a NumPy `out=None` allocates
    np.negative(z, out=acts)
    np.exp(acts, out=acts)
    acts += 1.0
    np.divide(1.0, acts, out=acts)
    i, f = acts[..., :hidden], acts[..., hidden : 2 * hidden]
    g, o = acts[..., 2 * hidden : 3 * hidden], acts[..., 3 * hidden :]
    np.tanh(z[..., 2 * hidden : 3 * hidden], out=g)
    c = np.multiply(f, c_prev, out=c)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return c, tanh_c, np.multiply(o, tanh_c, out=h)


def lstm_gates_grad(dh, dc, acts, tanh_c, c_prev, dz) -> np.ndarray:
    """Backward of `lstm_gates`: given the gradient `dh` of the new hidden
    state and the gradient `dc` that later steps pass to the new cell, writes
    the pre-activations' gradient into `dz`, overwrites `dc` with the previous
    cell's gradient and returns it.

    Every product keeps the operand order of the formula it computes, for
    instance `(dh * o) * (1 - tanh_c²)`, so each rounds as written out. Each
    gate's gradient is formed in a contiguous scratch array and then copied
    into its block of `dz`: a batch's blocks are strided, and NumPy writes
    strided memory more slowly than it copies into it once.
    """
    hidden = dh.shape[-1]
    i, f = acts[..., :hidden], acts[..., hidden : 2 * hidden]
    g, o = acts[..., 2 * hidden : 3 * hidden], acts[..., 3 * hidden :]
    product = np.multiply(dh, tanh_c)
    product *= o
    factor = np.subtract(1.0, o)
    product *= factor
    dz[..., 3 * hidden :] = product  # dh * tanh_c * o * (1 - o)
    np.multiply(tanh_c, tanh_c, out=factor)
    np.subtract(1.0, factor, out=factor)
    np.multiply(dh, o, out=product)
    product *= factor
    dc += product  # dc + dh * o * (1 - tanh_c²)
    np.multiply(dc, i, out=product)
    np.multiply(g, g, out=factor)
    product *= np.subtract(1.0, factor, out=factor)
    dz[..., 2 * hidden : 3 * hidden] = product  # dc * i * (1 - g²)
    np.multiply(dc, c_prev, out=product)
    product *= f
    product *= np.subtract(1.0, f, out=factor)
    dz[..., hidden : 2 * hidden] = product  # dc * c_prev * f * (1 - f)
    np.multiply(dc, g, out=product)
    product *= i
    product *= np.subtract(1.0, i, out=factor)
    dz[..., :hidden] = product  # dc * g * i * (1 - i)
    dc *= f
    return dc


def attend(key_proj: np.ndarray, query: np.ndarray, wq: np.ndarray, v: np.ndarray, mask: np.ndarray | None = None):
    """Additive attention of `query` over keys whose projection is `key_proj`
    (S, A). Returns `tanh(key_proj + query @ wq)` (S, A), the scores (S,)
    that it gives with `v`, plus `mask` where one is given, and their softmax."""
    squash = np.tanh(key_proj + query @ wq)
    scores = squash @ v
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max())
    return squash, scores, e / e.sum()


def _lstm_scan(xz: np.ndarray, wh_t: np.ndarray, mask: np.ndarray):
    """Two LSTM directions stepped together, one time loop for both.

    `xz` (2, T, B, 4H) holds each direction's pre-activations, direction
    major, with the input projection and the bias already in; `wh_t`
    (2, H, 4H) holds each direction's recurrent weights, transposed. Step t
    advances both directions with one batched product `hs[t] @ wh_t`. Rows
    whose `mask` (T, 2, B, 1) is 0 at a step have their state zeroed there,
    so padding never leaks into real positions.

    Returns, time major so that each step reads and writes contiguous
    memory, the gate activations (T, 2, B, 4H), tanh of the raw cell
    (T, 2, B, H), and the hidden and cell states (T + 1, 2, B, H) with the
    zero initial state at index 0. Each direction's values are, bit for
    bit, those of a scan of that direction alone.
    """
    _, steps, n, four_h = xz.shape
    hidden = four_h // 4
    ragged = (mask == 0.0).any(axis=(1, 2, 3))
    acts = np.empty((steps, 2, n, four_h))
    tanh_c = np.empty((steps, 2, n, hidden))
    hs = np.zeros((steps + 1, 2, n, hidden))
    cs = np.zeros((steps + 1, 2, n, hidden))
    z = np.empty((2, n, four_h))
    for t in range(steps):
        np.matmul(hs[t], wh_t, out=z)
        z += xz[:, t]
        lstm_gates(z, cs[t], acts[t], (cs[t + 1], tanh_c[t], hs[t + 1]))
        if ragged[t]:
            cs[t + 1] *= mask[t]
            hs[t + 1] *= mask[t]
    return acts, tanh_c, hs, cs


def _lstm_scan_grad(dh_out: np.ndarray, wh: np.ndarray, mask: np.ndarray, acts, tanh_c, cs) -> np.ndarray:
    """Backpropagation through time for `_lstm_scan`, both directions in one
    loop: given the gradient with respect to the emitted hidden states
    `dh_out` (T, 2, B, H) and the recurrent weights `wh` (2, 4H, H), returns
    the gradient with respect to the pre-activations, direction major
    (2, T, B, 4H), so that each direction's weight gradient is one product
    over a contiguous block."""
    steps, _, n, hidden = dh_out.shape
    ragged = (mask == 0.0).any(axis=(1, 2, 3))
    dz = np.empty((2, steps, n, 4 * hidden))
    dh = np.zeros((2, n, hidden))
    dc = np.zeros((2, n, hidden))
    for t in range(steps - 1, -1, -1):
        dh += dh_out[t]
        if ragged[t]:
            dh *= mask[t]
            dc *= mask[t]
        dz_t = dz[:, t]
        lstm_gates_grad(dh, dc, acts[t], tanh_c[t], cs[t], dz_t)
        np.matmul(dz_t, wh, out=dh)
    return dz


def bilstm_batch(
    x: Value, lengths: Sequence[int], wf: Value, bf: Value, wb: Value, bb: Value, hidden: int
) -> tuple[Value, Value]:
    """Both LSTM directions over a padded batch `x` (B, T, D) of sequences
    with the given per-row lengths; weights use `lstm_cell`'s layout.

    Returns `states` (B, T, 2H), the forward and backward hidden state at
    each position side by side and zero at padding, and `finals` (B, 2H),
    each row's forward state at its last position beside its backward
    state at position 0. Each direction's input projection is one product
    over all steps; the recurrences of both directions then run in one
    `_lstm_scan`, forward and backward. Backpropagation through time is
    hand-written; padded positions receive exactly zero gradient.
    """
    _require(x.data.ndim == 3, "bilstm_batch: rank {}", x.data.ndim)
    n, steps, dim = x.shape
    lens = np.asarray(lengths, dtype=np.int64)
    _require(lens.shape == (n,), "bilstm_batch: lengths {} for {} rows", lens.shape, n)
    _require(n > 0 and lens.min() >= 1 and lens.max() <= steps, "bilstm_batch: lengths outside 1..{}", steps)
    for w, b in ((wf, bf), (wb, bb)):
        _require(w.shape == (4 * hidden, dim + hidden), "bilstm_batch: weight {}", w.shape)
        _require(b.shape == (4 * hidden,), "bilstm_batch: bias {}", b.shape)

    x_fwd = np.ascontiguousarray(x.data.transpose(1, 0, 2))  # time-major (T, B, D)
    # The backward direction is the forward recurrence over time-reversed
    # rows, whose padding then comes first and keeps the state at zero.
    directions = ((wf, bf, x_fwd), (wb, bb, x_fwd[::-1]))
    mask = np.empty((steps, 2, n, 1))
    mask_fwd = np.arange(steps)[:, None] < lens
    mask[:, 0, :, 0] = mask_fwd
    mask[:, 1, :, 0] = mask_fwd[::-1]
    # Sliced from the whole weights, so that each direction's recurrent
    # products see the strides of `w.data[:, dim:]`: on a contiguous copy,
    # some small products round differently.
    wh = np.empty((2,) + wf.shape)
    wh[0], wh[1] = wf.data, wb.data
    wh = wh[:, :, dim:]
    xz = np.empty((2, steps, n, 4 * hidden))
    for (w, b, xs), xz_d in zip(directions, xz):
        xz_d = xz_d.reshape(-1, 4 * hidden)
        np.matmul(xs.reshape(-1, dim), w.data[:, :dim].T, out=xz_d)  # every step's input projection at once
        xz_d += b.data
    acts, tanh_c, hs, cs = _lstm_scan(xz, wh.transpose(0, 2, 1), mask)
    h_fwd = hs[1:, 0]
    h_bwd = hs[:0:-1, 1]

    def backward_states(g):
        g = g.transpose(1, 0, 2)
        dh_out = np.empty((steps, 2, n, hidden))
        dh_out[:, 0] = g[:, :, :hidden]
        dh_out[:, 1] = g[::-1, :, hidden:]
        dz = _lstm_scan_grad(dh_out, wh, mask, acts, tanh_c, cs)
        dx = np.zeros((steps, n, dim))
        for (w, b, xs), dz_d, h_prev, flip in zip(directions, dz, hs[:-1].swapaxes(0, 1), (1, -1)):
            dz_d = dz_d.reshape(-1, 4 * hidden)
            w.accum(dz_d.T @ np.concatenate([xs, h_prev], axis=2).reshape(-1, dim + hidden))
            b.accum(dz_d.sum(axis=0))
            dx += (dz_d @ w.data[:, :dim]).reshape(steps, n, dim)[::flip]
        x.accum(dx.transpose(1, 0, 2))

    states = Value(
        np.concatenate([h_fwd, h_bwd], axis=2).transpose(1, 0, 2), (x, wf, bf, wb, bb), backward_states
    )
    rows = np.arange(n)

    def backward_finals(g):
        if states.grad is None:
            states.grad = np.zeros_like(states.data)
        states.grad[rows, lens - 1, :hidden] += g[:, :hidden]
        states.grad[:, 0, hidden:] += g[:, hidden:]

    finals = Value(
        np.concatenate([h_fwd[lens - 1, rows], h_bwd[0]], axis=1), (states,), backward_finals
    )
    return states, finals


def attention_step(
    x: np.ndarray, state: tuple, keys: np.ndarray, key_proj: np.ndarray,
    w: np.ndarray, b: np.ndarray, wq: np.ndarray, v: np.ndarray,
):
    """One step of `attention_decoder` in NumPy, with no graph, from the
    state (h, c, context) on input `x`: the gate step on
    `w @ [x; context; h] + b`, then attention from the new h over `keys`,
    whose projection is `key_proj`. Returns the new state, then what
    backpropagation reads: `[x; context; h]`, the gate activations, tanh of
    the new cell, the attention's tanh and its weights."""
    h, c, context = state
    xh = np.concatenate([x, context, h])
    acts = np.empty(w.shape[0])
    c, tanh_c, h = lstm_gates(w @ xh + b, c, acts)
    squash, _, weights = attend(key_proj, h, wq, v)
    return (h, c, weights @ keys), xh, acts, tanh_c, squash, weights


def attention_decoder(
    emb: Value, keys: Value, init: Value, w: Value, b: Value, wq: Value, wk: Value, v: Value
) -> Value:
    """A teacher-forced input-feeding LSTM decoder with additive attention
    over one source, with hand-written backpropagation through time.

    `emb` (T, E) holds each step's input embedding and `keys` (S, K) the
    source states. The hidden state starts at `init` (H,); the cell and the
    fed-back context start at zero. Step t is `attention_step`: the gate
    step in `lstm_cell`'s layout (weights `w` (4H, E + K + H), `b` (4H,)) on
    `[emb_t; context_{t-1}; h_{t-1}]`, then attention with the new `h_t`
    over `keys`: scores `tanh(keys @ wk + h_t @ wq) @ v`, context
    `softmax(scores) @ keys`. Returns the (T, H + K) rows `[h_t; context_t]`.
    """
    _require(emb.data.ndim == 2 and keys.data.ndim == 2 and init.data.ndim == 1, "attention_decoder: ranks")
    steps, e_dim = emb.shape
    k_dim = keys.shape[1]
    hidden = init.shape[0]
    _require(steps > 0 and keys.shape[0] > 0, "attention_decoder: empty input or source")
    _require(w.shape == (4 * hidden, e_dim + k_dim + hidden), "attention_decoder: weight {}", w.shape)
    _require(b.shape == (4 * hidden,), "attention_decoder: bias {}", b.shape)
    _require(wq.shape[0] == hidden and wk.shape[0] == k_dim, "attention_decoder: {} and {}", wq.shape, wk.shape)
    _require(wq.shape[1] == wk.shape[1] == v.shape[0], "attention_decoder: attention inner dims disagree")

    key_proj = keys.data @ wk.data  # the same for every step
    xh = np.empty((steps, e_dim + k_dim + hidden))  # each step's [emb_t; context_{t-1}; h_{t-1}]
    acts = np.empty((steps, 4 * hidden))
    cs = np.zeros((steps + 1, hidden))
    tanh_c = np.empty((steps, hidden))
    out = np.empty((steps, hidden + k_dim))
    squash = np.empty((steps,) + key_proj.shape)  # tanh of each step's attention pre-activation
    att = np.empty((steps, keys.shape[0]))
    state = (init.data, cs[0], np.zeros(k_dim))
    for t in range(steps):
        state, xh[t], acts[t], tanh_c[t], squash[t], att[t] = attention_step(
            emb.data[t], state, keys.data, key_proj, w.data, b.data, wq.data, v.data
        )
        h, cs[t + 1], context = state
        out[t, :hidden] = h
        out[t, hidden:] = context

    def backward(g):
        dz = np.empty((steps, 4 * hidden))
        d_context = np.empty((steps, k_dim))
        d_scores = np.empty(att.shape)
        d_query = np.empty((steps, v.shape[0]))
        d_sq = 1.0 - squash * squash
        w_fed = w.data[:, e_dim:]
        dh_next, dc, dcontext_next = np.zeros(hidden), np.zeros(hidden), np.zeros(k_dim)
        for t in range(steps - 1, -1, -1):
            dcontext = g[t, hidden:] + dcontext_next
            d_context[t] = dcontext
            p = att[t]
            d_att = keys.data @ dcontext
            ds = p * (d_att - d_att @ p)
            d_scores[t] = ds
            dq = (d_sq[t].T @ ds) * v.data
            d_query[t] = dq
            dh = g[t, :hidden] + dh_next + wq.data @ dq
            dc = lstm_gates_grad(dh, dc, acts[t], tanh_c[t], cs[t], dz[t])
            d_fed = dz[t] @ w_fed
            dcontext_next, dh_next = d_fed[:k_dim], d_fed[k_dim:]
        w.accum(dz.T @ xh)
        b.accum(dz.sum(axis=0))
        emb.accum(dz @ w.data[:, :e_dim])
        init.accum(dh_next)
        d_key_proj = np.einsum("ts,tsa->sa", d_scores, d_sq) * v.data
        keys.accum(att.T @ d_context + d_key_proj @ wk.data.T)
        wk.accum(keys.data.T @ d_key_proj)
        wq.accum(out[:, :hidden].T @ d_query)
        v.accum(np.einsum("ts,tsa->a", d_scores, squash))

    return Value(out, (emb, keys, init, w, b, wq, wk, v), backward)


MASK_SCORE = -1e9  # added to the score of a sentence the pointer has already chosen


@dataclass
class PointerStep:
    """One step of `pointer_scan`: the choice, the masked probabilities it
    was drawn from and the hidden state, then what backpropagation reads."""

    action: int
    probs: np.ndarray
    state: np.ndarray
    scores: np.ndarray  # masked
    inputs: np.ndarray  # [x_t; h_{t-1}]
    acts: np.ndarray
    cell_prev: np.ndarray
    tanh_c: np.ndarray
    squash: np.ndarray


def pointer_scan(
    keys: np.ndarray,
    key_proj: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    wq: np.ndarray,
    v: np.ndarray,
    choose: Callable[[np.ndarray, int], int],
    max_steps: int,
) -> list[PointerStep]:
    """The pointer decoder's recurrence in NumPy, with no graph.

    `keys` (n + 1, K) are the candidates, the stop sentinel last, and
    `key_proj` their attention projection. Step t runs the LSTM gate step on
    `w @ [x_t; h_{t-1}] + b`, where x_0 is zero and x_t is the key chosen at
    step t - 1, scores every candidate by additive attention from h_t, adds
    `MASK_SCORE` to the chosen ones and lets `choose(probs, t)` pick an index
    from their softmax. The scan ends at stop (index n), once every sentence
    is chosen, or after `max_steps` steps.
    """
    n = keys.shape[0] - 1
    hidden = w.shape[0] // 4
    x, h, c = np.zeros(keys.shape[1]), np.zeros(hidden), np.zeros(hidden)
    mask = np.zeros(n + 1)
    steps: list[PointerStep] = []
    for t in range(max_steps):
        xh = np.concatenate([x, h])
        acts = np.empty(4 * hidden)
        c_prev = c
        c, tanh_c, h = lstm_gates(w @ xh + b, c_prev, acts)
        squash, scores, probs = attend(key_proj, h, wq, v, mask)
        action = int(choose(probs, t))
        steps.append(PointerStep(action, probs, h, scores, xh, acts, c_prev, tanh_c, squash))
        if action == n or t + 1 == n:  # stop, or every sentence chosen
            break
        mask[action] = MASK_SCORE
        x = keys[action]
    return steps


def pointer_decoder(keys: Value, actions: Sequence[int], w: Value, b: Value, wq: Value, wk: Value, v: Value) -> Value:
    """The pointer decoder of `pointer_scan` replayed along `actions`, as one
    node with hand-written backpropagation through time.

    Returns the masked score rows (T, n + 1) of the steps the scan runs; T is
    below len(actions) when they go on past a stop or past the last sentence.
    The forward pass is `pointer_scan` itself. The backward pass adds each
    step's contributions in the order that a graph of per-step ops (one
    `lstm_cell`, additive attention and mask per step) adds them, last step
    first, so the gradients equal that graph's bit for bit.
    """
    _require(keys.data.ndim == 2 and len(actions) > 0, "pointer_decoder: keys rank or no actions")
    n, k_dim = keys.shape[0] - 1, keys.shape[1]
    hidden = b.shape[0] // 4
    _require(w.shape == (4 * hidden, k_dim + hidden), "pointer_decoder: weight {}", w.shape)
    _require(wq.shape[0] == hidden and wk.shape[0] == k_dim, "pointer_decoder: {} and {}", wq.shape, wk.shape)
    _require(wq.shape[1] == wk.shape[1] == v.shape[0], "pointer_decoder: attention inner dims disagree")

    def forced(_probs, t):
        action = int(actions[t])
        _require(0 <= action <= n, "pointer_decoder: action {} of {} candidates", action, n + 1)
        return action

    key_proj = keys.data @ wk.data
    steps = pointer_scan(keys.data, key_proj, w.data, b.data, wq.data, v.data, forced, len(actions))

    def backward(g):
        d_keys = np.zeros_like(keys.data)
        d_key_proj = np.zeros_like(key_proj)
        dz = np.empty(4 * hidden)
        dh, dc = np.zeros(hidden), np.zeros(hidden)
        for t in range(len(steps) - 1, -1, -1):
            step = steps[t]
            v.accum(step.squash.T @ g[t])
            d_pre = np.outer(g[t], v.data) * (1.0 - step.squash * step.squash)
            d_key_proj += d_pre
            dq = d_pre.sum(axis=0)
            dh = dh + wq.data @ dq
            wq.accum(np.outer(step.state, dq))
            dc = lstm_gates_grad(dh, dc, step.acts, step.tanh_c, step.cell_prev, dz)
            w.accum(np.outer(dz, step.inputs))
            b.accum(dz)
            # The output gate's rows and the other three gates' rows reach the
            # step's inputs through separate products, as in `lstm_cell`, so
            # the sums round as they do in the per-step graph.
            d_out = w.data[3 * hidden :].T @ dz[3 * hidden :]
            d_rest = w.data[: 3 * hidden].T @ dz[: 3 * hidden]
            dh = d_out[k_dim:] + d_rest[k_dim:]
            if t > 0:
                d_keys[steps[t - 1].action] += d_out[:k_dim] + d_rest[:k_dim]
        d_keys += d_key_proj @ wk.data.T
        keys.accum(d_keys)
        wk.accum(keys.data.T @ d_key_proj)

    return Value(np.stack([step.scores for step in steps]), (keys, w, b, wq, wk, v), backward)


# ---------------------------------------------------------------- backward


def topo_order(root: Value) -> list[Value]:
    """Dependency-first order via an iterative DFS (graphs exceed the
    recursion limit at report scale)."""
    order: list[Value] = []
    visited: set[int] = set()
    stack: list[tuple[Value, int]] = [(root, 0)]
    while stack:
        node, child = stack[-1]
        if child == 0 and id(node) in visited:
            stack.pop()
            continue
        if child < len(node._parents):
            stack[-1] = (node, child + 1)
            parent = node._parents[child]
            if id(parent) not in visited:
                stack.append((parent, 0))
        else:
            visited.add(id(node))
            order.append(node)
            stack.pop()
    return order


def backward(loss: Value) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    Interior grads are scratch space reset on every call, so repeated
    calls add one full derivative to the leaves each time.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got {loss.data.shape}")
    order = topo_order(loss)
    for node in order:
        if node._parents:
            node.grad = None
    loss.accum(np.asarray(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params: Iterable[Value]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------- optimization


def clip_global_norm(grads: Sequence[np.ndarray], max_norm: float, squares: Sequence[float] | None = None) -> float:
    """Scale all grads in place so the joint L2 norm is at most max_norm.

    `squares`, when given, holds each grad's sum of squares already.
    """
    if squares is None:
        squares = [float((g * g).sum()) for g in grads]
    total = float(np.sqrt(sum(squares)))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total


def adam_step(
    data: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    work: tuple[np.ndarray, np.ndarray],
) -> None:
    """Standard bias-corrected Adam update, in place.

    `work` is two scratch arrays of the parameter's shape. The update is
    `data -= lr * m_hat / (sqrt(v_hat) + eps)` evaluated with the same
    operations in the same order, only into `work` instead of temporaries.
    """
    a, b = work
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    v += np.multiply(a, grad, out=a)
    np.divide(m, 1.0 - beta1**t, out=a)
    a *= lr
    np.divide(v, 1.0 - beta2**t, out=b)
    np.sqrt(b, out=b)
    b += eps
    data -= np.divide(a, b, out=a)


class Adam:
    """Adam over named parameters with global-norm clipping first.

    Two flat scratch buffers, each the size of the largest parameter, serve
    every parameter's update and the squared gradients of the norm, so a
    step allocates no parameter-sized temporary.
    """

    def __init__(
        self,
        params: dict[str, Value],
        *,
        lr: float,
        clip_norm: float | None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        largest = max((p.data.size for p in self.params.values()), default=0)
        buffers = (np.empty(largest), np.empty(largest))
        self._work = {
            k: tuple(buf[: p.data.size].reshape(p.data.shape) for buf in buffers) for k, p in self.params.items()
        }

    def zero_grad(self) -> None:
        """Mark every parameter's gradient as not reached (`grad` None), as
        `zero_grads` does, but keep each gradient array as the parameter's
        spare: the first `accum` of the next step zero-fills it and takes it
        back, so training steps allocate no gradient arrays. An array read
        from `grad` before this call is overwritten by the next backward;
        copy it to keep it."""
        for p in self.params.values():
            if p.grad is not None:
                p.spare = p.grad
        zero_grads(self.params.values())

    def step(self) -> float:
        """Apply one update; returns the pre-clip gradient norm."""
        names = [k for k, p in self.params.items() if p.grad is not None]
        grads = [self.params[k].grad for k in names]
        squares = [float(np.multiply(g, g, out=self._work[k][0]).sum()) for k, g in zip(names, grads)]
        for k, g, sq in zip(names, grads, squares):
            # A NaN or an infinity in g makes its sum of squares non-finite.
            if not math.isfinite(sq) and not np.isfinite(g).all():
                raise NonFiniteGradError(f"non-finite gradient in parameter {k!r}")
        if self.clip_norm is not None:
            norm = clip_global_norm(grads, self.clip_norm, squares)
        else:
            norm = float(np.sqrt(sum(squares)))
        self.t += 1
        for k in names:
            p = self.params[k]
            adam_step(
                p.data, p.grad, self._m[k], self._v[k], self.t, self.lr, self.beta1, self.beta2, self.eps, self._work[k]
            )
        return norm


# ---------------------------------------------------------------- initialization


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], scale: float = 0.1) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(np.float64)


def lstm_bias_init(hidden: int) -> np.ndarray:
    """Zero biases except the forget gate, which starts open at 1."""
    b = np.zeros(4 * hidden, dtype=np.float64)
    b[hidden : 2 * hidden] = 1.0
    return b


# ---------------------------------------------------------------- persistence

CHECKPOINT_FORMAT = "narrsum-ckpt-v1"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(
    path: str | Path,
    params: dict[str, Value | np.ndarray],
    config: dict,
    vocab: Sequence[str] | None = None,
) -> None:
    """Write named float64 arrays after a one-line JSON header.

    The file is written beside the target and then renamed over it, so a
    write that fails midway leaves the previous checkpoint intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        name: (p.data if isinstance(p, Value) else np.asarray(p, dtype=np.float64))
        for name, p in params.items()
    }
    names = sorted(arrays)
    header = {
        "format": CHECKPOINT_FORMAT,
        "names": names,
        "shapes": {name: list(arrays[name].shape) for name in names},
        "config": config,
        "config_hash": config_hash(config),
        "vocab": list(vocab) if vocab is not None else None,
    }
    partial = path.with_name(path.name + ".tmp")
    try:
        with partial.open("wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            for name in names:
                fh.write(np.ascontiguousarray(arrays[name], dtype="<f8"))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _check_header(header: dict, path: Path) -> None:
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"checkpoint {path}: {what}")

    names, shapes = header.get("names"), header.get("shapes")
    require(
        isinstance(names, list) and all(isinstance(n, str) for n in names) and len(set(names)) == len(names),
        "header 'names' must be a list of distinct strings",
    )
    require(
        isinstance(shapes, dict) and set(shapes) == set(names) and all(
            isinstance(s, list) and all(type(d) is int and d >= 0 for d in s) for s in shapes.values()
        ),
        "header 'shapes' must give each name a list of non-negative integers",
    )
    require(isinstance(header.get("config"), dict), "header 'config' must be an object")
    require(header.get("config_hash") == config_hash(header["config"]), "config does not match its config_hash")
    vocab = header.get("vocab")
    require(
        "vocab" in header and (vocab is None or (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab))),
        "header 'vocab' must be null or a list of strings",
    )


def load_checkpoint(path: str | Path, expected: Callable[[dict], dict] | None = None) -> tuple[dict, dict, list | None]:
    """Read back (arrays, config, vocab); raises ValueError on a malformed file. `expected`, if
    given, maps the config to the shapes the file must hold, in the order to return them; they
    are checked before any array is read, each straight into its own buffer."""
    path = Path(path)
    with path.open("rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"not a checkpoint file: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {path}")
        _check_header(header, path)
        shapes = {name: tuple(header["shapes"][name]) for name in header["names"]}
        wanted = shapes if expected is None else expected(header["config"])
        missing, unexpected = sorted(set(wanted) - set(shapes)), sorted(set(shapes) - set(wanted))
        if missing or unexpected:
            raise ValueError(f"checkpoint {path} does not match the model: missing {missing}, unexpected {unexpected}")
        for name, shape in wanted.items():
            if shapes[name] != shape:
                raise ValueError(f"shape mismatch for {name!r} in checkpoint {path}")
        available, offset, arrays = os.fstat(fh.fileno()).st_size - fh.tell(), 0, {}
        for name, shape in shapes.items():
            offset += 8 * math.prod(shape)
            if offset > available:  # refused before anything the file does not hold is allocated
                raise ValueError(f"checkpoint {path} truncated at parameter {name!r}")
            arrays[name] = np.fromfile(fh, "<f8", math.prod(shape)).reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"non-finite values in {name!r} in checkpoint {path}")
        if offset != available:
            raise ValueError(f"checkpoint {path} has {available - offset} trailing bytes")
    return {name: arrays[name] for name in wanted}, header["config"], header["vocab"]


class Checkpointed:
    """Saving and loading for a model whose weights are all in `.params`.

    `KIND` names the model in its checkpoints. `SIZES` names the size
    attributes that the constructor takes first, in order, before an rng.
    `param_table(*sizes)` gives each parameter's shape and initializer
    ("uniform", "lstm_bias" or "zeros") in `.params` order, allocating nothing.
    """

    KIND: str
    SIZES: tuple[str, ...]
    params: dict[str, Value]
    param_table: Callable[..., dict[str, tuple[tuple[int, ...], str]]]

    def _fill(self, sizes: Sequence[int], weights: np.random.Generator | dict[str, np.ndarray]) -> None:
        """Set the sizes and every parameter in table order: drawn from
        `weights` when it is an rng, else its array, taken without a copy."""
        vars(self).update(zip(self.SIZES, sizes))
        table = self.param_table(*sizes)
        if isinstance(weights, dict):
            self.params = {name: Value(weights[name]) for name in table}
            return
        bias = lambda shape: lstm_bias_init(shape[0] // 4)
        draw = {"uniform": lambda shape: uniform_init(weights, shape), "lstm_bias": bias, "zeros": np.zeros}
        self.params = {name: param(draw[init](shape)) for name, (shape, init) in table.items()}

    def arch(self) -> dict:
        return {"kind": self.KIND, **{name: getattr(self, name) for name in self.SIZES}}

    def save(self, path: str | Path, vocab: Sequence[str] | None = None) -> None:
        save_checkpoint(path, self.params, self.arch(), vocab)

    @classmethod
    def _shapes(cls, config: dict, path: str | Path) -> dict[str, tuple[int, ...]]:
        """The table's shapes for a checkpoint's config, refusing another kind or a size that is not an int >= 1."""
        if config.get("kind") != cls.KIND:
            raise ValueError(f"checkpoint at {path} is not {'an' if cls.KIND[0] in 'aeiou' else 'a'} {cls.KIND}")
        sizes = [config.get(name) for name in cls.SIZES]
        for name, value in zip(cls.SIZES, sizes):
            if type(value) is not int or value < 1:
                raise ValueError(f"checkpoint {path}: config {name!r} must be an integer of at least 1, got {value!r}")
        return {name: shape for name, (shape, _) in cls.param_table(*sizes).items()}

    @classmethod
    def load(cls, path: str | Path) -> tuple["Checkpointed", list[str] | None]:
        """Read back (model, vocab); raises ValueError for a malformed checkpoint or one of another model."""
        arrays, config, vocab = load_checkpoint(path, lambda config: cls._shapes(config, path))
        model = cls.__new__(cls)  # no constructor, so no random draws
        model._fill([config[name] for name in cls.SIZES], arrays)
        return model, vocab
