"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Supplies exactly the primitives the sentence extractor, the sentence
paraphraser, and the value head need: dense linear algebra, gated
recurrence, additive attention, and classification losses, plus Adam,
global-norm clipping, finite-difference verification, and a binary
checkpoint format. No broadcasting is ever implicit; every shape rule
is explicit and mismatches fail at graph construction time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operands do not satisfy an operation's shape rule."""


class NonFiniteGradError(RuntimeError):
    """Raised when a training step sees NaN or infinite gradients."""


class Value:
    """One node of the computation graph: data, lazy grad, backward rule."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward: Callable[[], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape})"


def const(data) -> Value:
    return Value(data)


def param(data) -> Value:
    return Value(np.array(data, dtype=np.float64, copy=True))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


# ---------------------------------------------------------------- arithmetic


def add(a: Value, b: Value) -> Value:
    _require(a.shape == b.shape, f"add: {a.shape} vs {b.shape}")
    out = Value(a.data + b.data, (a, b))

    def backward():
        a.accum(out.grad)
        b.accum(out.grad)

    out._backward = backward
    return out


def sub(a: Value, b: Value) -> Value:
    _require(a.shape == b.shape, f"sub: {a.shape} vs {b.shape}")
    out = Value(a.data - b.data, (a, b))

    def backward():
        a.accum(out.grad)
        b.accum(-out.grad)

    out._backward = backward
    return out


def neg(a: Value) -> Value:
    out = Value(-a.data, (a,))

    def backward():
        a.accum(-out.grad)

    out._backward = backward
    return out


def mul(a: Value, b: Value) -> Value:
    _require(a.shape == b.shape, f"mul: {a.shape} vs {b.shape}")
    out = Value(a.data * b.data, (a, b))

    def backward():
        a.accum(out.grad * b.data)
        b.accum(out.grad * a.data)

    out._backward = backward
    return out


def scale(a: Value, s: float) -> Value:
    s = float(s)
    out = Value(a.data * s, (a,))

    def backward():
        a.accum(out.grad * s)

    out._backward = backward
    return out


def dot(a: Value, b: Value) -> Value:
    _require(a.data.ndim == 1 and a.shape == b.shape, f"dot: {a.shape} vs {b.shape}")
    out = Value(a.data @ b.data, (a, b))

    def backward():
        a.accum(out.grad * b.data)
        b.accum(out.grad * a.data)

    out._backward = backward
    return out


def matmul(a: Value, b: Value) -> Value:
    """Matrix product for (m,n)@(n,k), (m,n)@(n,), and (n,)@(n,k)."""
    an, bn = a.data.ndim, b.data.ndim
    if an == 2 and bn == 2:
        _require(a.shape[1] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")
        out = Value(a.data @ b.data, (a, b))

        def backward():
            a.accum(out.grad @ b.data.T)
            b.accum(a.data.T @ out.grad)

    elif an == 2 and bn == 1:
        _require(a.shape[1] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")
        out = Value(a.data @ b.data, (a, b))

        def backward():
            a.accum(np.outer(out.grad, b.data))
            b.accum(a.data.T @ out.grad)

    elif an == 1 and bn == 2:
        _require(a.shape[0] == b.shape[0], f"matmul: {a.shape} @ {b.shape}")
        out = Value(a.data @ b.data, (a, b))

        def backward():
            a.accum(b.data @ out.grad)
            b.accum(np.outer(a.data, out.grad))

    else:
        raise ShapeError(f"matmul: unsupported ranks {an} and {bn}")
    out._backward = backward
    return out


def add_row(m: Value, v: Value) -> Value:
    """Add a vector to every row of a matrix (the one sanctioned broadcast)."""
    _require(m.data.ndim == 2 and v.data.ndim == 1, f"add_row: {m.shape} + {v.shape}")
    _require(m.shape[1] == v.shape[0], f"add_row: {m.shape} + {v.shape}")
    out = Value(m.data + v.data, (m, v))

    def backward():
        m.accum(out.grad)
        v.accum(out.grad.sum(axis=0))

    out._backward = backward
    return out


def take_row(m: Value, index: int) -> Value:
    _require(m.data.ndim == 2, f"take_row: rank {m.data.ndim}")
    _require(0 <= index < m.shape[0], f"take_row: index {index} of {m.shape}")
    out = Value(m.data[index], (m,))

    def backward():
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[index] += out.grad

    out._backward = backward
    return out


def reshape(a: Value, shape: tuple[int, ...]) -> Value:
    _require(int(np.prod(shape)) == a.data.size, f"reshape: {a.shape} -> {shape}")
    out = Value(a.data.reshape(shape), (a,))

    def backward():
        a.accum(out.grad.reshape(a.data.shape))

    out._backward = backward
    return out


def concat(parts: Sequence[Value]) -> Value:
    parts = list(parts)
    _require(len(parts) > 0, "concat: no operands")
    for p in parts:
        _require(p.data.ndim == 1, f"concat: rank {p.data.ndim}")
    out = Value(np.concatenate([p.data for p in parts]), tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward():
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            p.accum(out.grad[lo:hi])

    out._backward = backward
    return out


def stack_rows(rows: Sequence[Value]) -> Value:
    rows = list(rows)
    _require(len(rows) > 0, "stack_rows: no operands")
    width = rows[0].data.shape
    for r in rows:
        _require(r.data.ndim == 1 and r.data.shape == width, "stack_rows: ragged rows")
    out = Value(np.stack([r.data for r in rows]), tuple(rows))

    def backward():
        for k, r in enumerate(rows):
            r.accum(out.grad[k])

    out._backward = backward
    return out


# ---------------------------------------------------------------- nonlinear


def tanh(a: Value) -> Value:
    t = np.tanh(a.data)
    out = Value(t, (a,))

    def backward():
        a.accum(out.grad * (1.0 - t * t))

    out._backward = backward
    return out


def sigmoid(a: Value) -> Value:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Value(s, (a,))

    def backward():
        a.accum(out.grad * s * (1.0 - s))

    out._backward = backward
    return out


def softmax(a: Value) -> Value:
    _require(a.data.ndim == 1, f"softmax: rank {a.data.ndim}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    p = e / e.sum()
    out = Value(p, (a,))

    def backward():
        g = out.grad
        a.accum(p * (g - g @ p))

    out._backward = backward
    return out


def softmax_entropy(logits: Value) -> Value:
    """Entropy of softmax(logits) as a scalar, fused for stability."""
    _require(logits.data.ndim == 1, f"softmax_entropy: rank {logits.data.ndim}")
    shifted = logits.data - logits.data.max()
    e = np.exp(shifted)
    p = e / e.sum()
    logp = shifted - np.log(e.sum())
    h = -float(p @ logp)
    out = Value(h, (logits,))

    def backward():
        # dH/ds_j = -p_j (log p_j + H)
        logits.accum(out.grad * (-p * (logp + h)))

    out._backward = backward
    return out


def log_softmax_at(logits: Value, index: int) -> Value:
    """log softmax(logits)[index] as a scalar graph node."""
    _require(logits.data.ndim == 1, f"log_softmax_at: rank {logits.data.ndim}")
    _require(0 <= index < logits.shape[0], f"log_softmax_at: index {index} of {logits.shape}")
    shifted = logits.data - logits.data.max()
    lse = np.log(np.exp(shifted).sum())
    out = Value(shifted[index] - lse, (logits,))
    p = np.exp(shifted - lse)

    def backward():
        g = out.grad
        delta = -p * g
        delta[index] += g
        logits.accum(delta)

    out._backward = backward
    return out


def cross_entropy(logits: Value, target: int) -> Value:
    """Negative log softmax probability of the target index."""
    node = log_softmax_at(logits, target)
    return neg(node)


def embedding_lookup(table: Value, ids: Sequence[int]) -> Value:
    _require(table.data.ndim == 2, f"embedding_lookup: rank {table.data.ndim}")
    idx = np.asarray(list(ids), dtype=np.int64)
    _require(idx.ndim == 1, "embedding_lookup: ids must be flat")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.shape}")
    out = Value(table.data[idx], (table,))

    def backward():
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, out.grad)

    out._backward = backward
    return out


def vsum(a: Value) -> Value:
    out = Value(a.data.sum(), (a,))

    def backward():
        a.accum(np.full_like(a.data, out.grad))

    out._backward = backward
    return out


def mean(a: Value) -> Value:
    n = a.data.size
    _require(n > 0, "mean: empty operand")
    out = Value(a.data.mean(), (a,))

    def backward():
        a.accum(np.full_like(a.data, out.grad / n))

    out._backward = backward
    return out


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
    _require(c.shape == (hidden,), f"lstm_cell: cell {c.shape} vs hidden {h.shape}")
    in_dim = x.shape[0]
    _require(w.shape == (4 * hidden, in_dim + hidden), f"lstm_cell: weight {w.shape}")
    _require(b.shape == (4 * hidden,), f"lstm_cell: bias {b.shape}")

    xh = np.concatenate([x.data, h.data])
    z = w.data @ xh + b.data
    i = 1.0 / (1.0 + np.exp(-z[:hidden]))
    f = 1.0 / (1.0 + np.exp(-z[hidden : 2 * hidden]))
    g = np.tanh(z[2 * hidden : 3 * hidden])
    o = 1.0 / (1.0 + np.exp(-z[3 * hidden :]))

    c_next = Value(f * c.data + i * g, (x, h, c, w, b))
    h_next = Value(o * np.tanh(c_next.data), (x, h, w, b, c_next))

    def backward_h():
        gh = h_next.grad
        t = np.tanh(c_next.data)
        c_next.accum(gh * o * (1.0 - t * t))
        dz_o = gh * t * o * (1.0 - o)
        if w.grad is None:
            w.grad = np.zeros_like(w.data)
        w.grad[3 * hidden :] += np.outer(dz_o, xh)
        if b.grad is None:
            b.grad = np.zeros_like(b.data)
        b.grad[3 * hidden :] += dz_o
        dxh = w.data[3 * hidden :].T @ dz_o
        x.accum(dxh[:in_dim])
        h.accum(dxh[in_dim:])

    def backward_c():
        gc = c_next.grad
        c.accum(gc * f)
        dz = np.concatenate(
            [
                gc * g * i * (1.0 - i),
                gc * c.data * f * (1.0 - f),
                gc * i * (1.0 - g * g),
            ]
        )
        if w.grad is None:
            w.grad = np.zeros_like(w.data)
        w.grad[: 3 * hidden] += np.outer(dz, xh)
        if b.grad is None:
            b.grad = np.zeros_like(b.data)
        b.grad[: 3 * hidden] += dz
        dxh = w.data[: 3 * hidden].T @ dz
        x.accum(dxh[:in_dim])
        h.accum(dxh[in_dim:])

    h_next._backward = backward_h
    c_next._backward = backward_c
    return h_next, c_next


def bilstm_sequence(
    inputs: Sequence[Value], wf: Value, bf: Value, wb: Value, bb: Value, hidden: int
) -> tuple[list[Value], Value, Value]:
    """Run both LSTM directions over a sequence of input vectors.

    Returns per-position concatenated states and the two final hidden
    states (forward direction's last, backward direction's first).
    """
    inputs = list(inputs)
    _require(len(inputs) > 0, "bilstm_sequence: empty input")
    zeros = const(np.zeros(hidden))
    fwd: list[Value] = []
    h, c = zeros, zeros
    for x in inputs:
        h, c = lstm_cell(x, h, c, wf, bf)
        fwd.append(h)
    bwd: list[Value] = [zeros] * len(inputs)
    h, c = zeros, zeros
    for k in range(len(inputs) - 1, -1, -1):
        h, c = lstm_cell(inputs[k], h, c, wb, bb)
        bwd[k] = h
    outputs = [concat([fwd[k], bwd[k]]) for k in range(len(inputs))]
    return outputs, fwd[-1], bwd[0]


def bahdanau_attention(
    query: Value,
    keys: Value,
    wq: Value,
    wk: Value,
    v: Value,
    additive_mask: np.ndarray | None = None,
) -> tuple[Value, Value]:
    """Additive attention; returns (weights over keys, context vector)."""
    _require(query.data.ndim == 1 and keys.data.ndim == 2, "attention: ranks")
    _require(wq.shape[0] == query.shape[0], f"attention: query {query.shape} vs {wq.shape}")
    _require(wk.shape[0] == keys.shape[1], f"attention: keys {keys.shape} vs {wk.shape}")
    _require(wq.shape[1] == wk.shape[1] == v.shape[0], "attention: inner dims disagree")
    scores = matmul(tanh(add_row(matmul(keys, wk), matmul(query, wq))), v)
    if additive_mask is not None:
        mask = np.asarray(additive_mask, dtype=np.float64)
        _require(mask.shape == scores.shape, f"attention: mask {mask.shape} vs {scores.shape}")
        scores = add(scores, const(mask))
    weights = softmax(scores)
    context = matmul(weights, keys)
    return weights, context


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
            node._backward()


def zero_grads(params: Iterable[Value]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------- verification


def grad_check(
    build_loss: Callable[[], Value],
    params: Sequence[Value],
    eps: float = 1e-5,
    max_coords: int = 6,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference grads.

    The relative error at a coordinate is |a - n| / max(1e-8, |a| + |n|).
    build_loss must be a pure function of the current parameter data.
    """
    rng = rng or np.random.default_rng(0)
    zero_grads(params)
    backward(build_loss())
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


# ---------------------------------------------------------------- optimization


def clip_global_norm(grads: Sequence[np.ndarray], max_norm: float = 1.0) -> float:
    """Scale all grads in place so the joint L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    data -= lr * m_hat / (np.sqrt(v_hat) + eps)


class Adam:
    """Adam over named parameters with global-norm clipping first."""

    def __init__(
        self,
        params: dict[str, Value],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = 1.0,
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

    def zero_grad(self) -> None:
        zero_grads(self.params.values())

    def step(self) -> float:
        """Apply one update; returns the pre-clip gradient norm."""
        names = [k for k, p in self.params.items() if p.grad is not None]
        grads = [self.params[k].grad for k in names]
        for k, g in zip(names, grads):
            if not np.isfinite(g).all():
                raise NonFiniteGradError(f"non-finite gradient in parameter {k!r}")
        norm = 0.0
        if grads:
            if self.clip_norm is not None:
                norm = clip_global_norm(grads, self.clip_norm)
            else:
                norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        self.t += 1
        for k in names:
            p = self.params[k]
            adam_step(p.data, p.grad, self._m[k], self._v[k], self.t, self.lr, self.beta1, self.beta2, self.eps)
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
    """Write named float64 arrays after a one-line JSON header."""
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
    with path.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, list[str] | None]:
    """Read back (arrays, config, vocab); raises on a malformed file."""
    path = Path(path)
    with path.open("rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"not a checkpoint file: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {path}")
        blob = fh.read()
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name in header["names"]:
        shape = tuple(header["shapes"][name])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"checkpoint {path} truncated at parameter {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return arrays, header["config"], header["vocab"]


def restore_params(params: dict[str, Value], arrays: dict[str, np.ndarray], path: str | Path) -> None:
    """Copy checkpoint arrays into a model's parameters; names and shapes must match exactly."""
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise ValueError(
            f"checkpoint {path} does not match the model: missing {missing}, unexpected {unexpected}"
        )
    for name, arr in arrays.items():
        if params[name].data.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name!r} in checkpoint {path}")
        params[name].data[...] = arr
