"""Gradient engine tests: analytic examples, finite differences, Adam, I/O."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.extractor import ExtractorModel
from narrsum.rl import Critic
from percell import (
    add,
    add_row,
    bahdanau_attention,
    bilstm_batch_two_loops,
    bilstm_sequence,
    const,
    cross_entropy,
    dot,
    grad_check,
    log_softmax_at,
    lstm_gates_allocating,
    lstm_gates_grad_allocating,
    matmul,
    mean,
    mean_cross_entropy_node,
    mul,
    neg,
    policy_loss,
    sigmoid,
    softmax,
    stack_rows,
    sub,
    take_row,
    tanh,
    vsum,
)
from yardsticks import traced_peak


def rng_for(seed):
    return np.random.default_rng(seed)


def weighted(out, weight_array):
    """Scalarize an output with fixed weights so grads are non-degenerate."""
    return vsum(mul(out, const(weight_array)))


# ---------------------------------------------------------------- frozen examples


def test_softmax_uniform():
    p = softmax(const([0.0, 0.0, 0.0]))
    assert np.allclose(p.data, [1 / 3, 1 / 3, 1 / 3])
    assert abs(p.data.sum() - 1.0) <= 1e-12


def test_square_gradient():
    x = ad.param(3.0)
    loss = mul(x, x)
    ad.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = ad.param([1.0, 2.0, 3.0])
    loss = cross_entropy(logits, 0)
    ad.backward(loss)
    p = np.exp([1.0, 2.0, 3.0])
    p /= p.sum()
    expected = p - np.array([1.0, 0.0, 0.0])
    assert np.allclose(logits.grad, expected, atol=1e-12)


def test_constant_loss_leaves_params_untouched():
    w = ad.param([1.0, 2.0])
    loss = vsum(mul(const([1.0, 1.0]), const([2.0, 2.0])))
    ad.backward(loss)
    assert w.grad is None


def test_linear_loss_grad_is_input():
    x = np.array([0.5, -1.5, 2.0])
    w = ad.param([0.1, 0.2, 0.3])
    loss = dot(w, const(x))
    ad.backward(loss)
    assert np.allclose(w.grad, x)


def test_backward_requires_scalar():
    w = ad.param([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.backward(add(w, w))


def test_backward_refuses_a_consumed_graph():
    x = ad.param(2.0)
    loss = mul(x, x)
    ad.backward(loss)
    assert float(x.grad) == 4.0 and float(loss.data) == 4.0
    with pytest.raises(ad.ShapeError):
        ad.backward(loss)
    assert float(x.grad) == 4.0
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.scale(loss, 2.0))  # a new loss built on a consumed node
    assert float(x.grad) == 4.0


def test_diamond_graph_reuse():
    x = ad.param(1.5)
    y = add(mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
    ad.backward(y)
    assert float(x.grad) == pytest.approx(4.0)


# ---------------------------------------------------------------- shape rules


def test_shape_mismatches_raise_at_construction():
    a = const(np.zeros(3))
    b = const(np.zeros(4))
    m = const(np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError):
        add(a, b)
    with pytest.raises(ad.ShapeError):
        mul(a, b)
    with pytest.raises(ad.ShapeError):
        matmul(m, b)
    with pytest.raises(ad.ShapeError):
        dot(a, b)
    with pytest.raises(ad.ShapeError):
        add_row(m, b)
    with pytest.raises(ad.ShapeError):
        softmax(m)
    with pytest.raises(ad.ShapeError):
        take_row(m, 5)
    with pytest.raises(ad.ShapeError):
        ad.embedding_lookup(m, [0, 7])
    x = const(np.zeros((2, 3, 4)))
    w, bias = const(np.zeros((8, 6))), const(np.zeros(8))
    ad.bilstm_batch(x, [3, 1], w, bias, w, bias, 2)
    for lengths in ([3, 0], [4, 1], [3], [3, 1, 1]):
        with pytest.raises(ad.ShapeError):
            ad.bilstm_batch(x, lengths, w, bias, w, bias, 2)
    with pytest.raises(ad.ShapeError):
        ad.bilstm_batch(x, [3, 1], w, bias, w, bias, 3)
    with pytest.raises(ad.ShapeError):
        ad.linear(m, m, a)  # (2, 3) @ (2, 3).T
    with pytest.raises(ad.ShapeError):
        ad.mean_cross_entropy(m, [0])  # one target for two rows
    with pytest.raises(ad.ShapeError):
        ad.mean_cross_entropy(m, [0, 3])  # target outside the row
    with pytest.raises(ad.ShapeError):
        ad.nll(m, [0, 1], np.ones(3))  # three weights for two rows
    emb, keys, init = const(np.zeros((2, 3))), const(np.zeros((4, 5))), const(np.zeros(2))
    dec_w, dec_b = const(np.zeros((8, 3 + 5 + 2))), const(np.zeros(8))
    wq, wk, v = const(np.zeros((2, 6))), const(np.zeros((5, 6))), const(np.zeros(6))
    assert ad.attention_decoder(emb, keys, init, dec_w, dec_b, wq, wk, v).shape == (2, 2 + 5)
    with pytest.raises(ad.ShapeError):
        ad.attention_decoder(emb, keys, init, const(np.zeros((8, 9))), dec_b, wq, wk, v)
    with pytest.raises(ad.ShapeError):
        ad.attention_decoder(emb, keys, init, dec_w, dec_b, wq, wk, const(np.zeros(5)))
    with pytest.raises(ad.ShapeError):
        ad.attention_decoder(const(np.zeros((0, 3))), keys, init, dec_w, dec_b, wq, wk, v)


# ---------------------------------------------------------------- finite differences


def test_two_layer_tanh_network_matches_fd():
    rng = rng_for(1)
    w1 = ad.param(ad.uniform_init(rng, (4, 5)))
    b1 = ad.param(ad.uniform_init(rng, (4,)))
    w2 = ad.param(ad.uniform_init(rng, (4,)))
    x = rng.normal(size=5)

    def loss():
        h = tanh(add(matmul(w1, const(x)), b1))
        return dot(w2, h)

    assert grad_check(loss, [w1, b1, w2], rng=rng_for(2)) < 1e-6


def test_affine_graph_fd_error_tiny():
    rng = rng_for(3)
    w = ad.param(ad.uniform_init(rng, (6,)))
    x = rng.normal(size=6)

    def loss():
        return dot(w, const(x))

    assert grad_check(loss, [w], rng=rng_for(4)) < 1e-10


def test_lstm_cell_fd():
    rng = rng_for(5)
    hidden, in_dim = 8, 8
    x = ad.param(rng.normal(size=in_dim))
    h = ad.param(rng.normal(size=hidden))
    c = ad.param(rng.normal(size=hidden))
    w = ad.param(ad.uniform_init(rng, (4 * hidden, in_dim + hidden)))
    b = ad.param(ad.lstm_bias_init(hidden))
    ch = const(rng.normal(size=hidden))
    cc = const(rng.normal(size=hidden))

    def loss():
        h2, c2 = ad.lstm_cell(x, h, c, w, b)
        return add(vsum(mul(h2, ch)), vsum(mul(c2, cc)))

    assert grad_check(loss, [x, h, c, w, b], rng=rng_for(6)) < 1e-4


def test_attention_fd():
    rng = rng_for(7)
    keys = ad.param(rng.normal(size=(5, 6)))
    query = ad.param(rng.normal(size=4))
    wq = ad.param(ad.uniform_init(rng, (4, 3)))
    wk = ad.param(ad.uniform_init(rng, (6, 3)))
    v = ad.param(ad.uniform_init(rng, (3,)))
    cw = const(rng.normal(size=5))
    cctx = const(rng.normal(size=6))

    def loss():
        weights, context = bahdanau_attention(query, keys, wq, wk, v)
        return add(vsum(mul(weights, cw)), vsum(mul(context, cctx)))

    assert grad_check(loss, [keys, query, wq, wk, v], rng=rng_for(8)) < 1e-4


def _primitive_cases(rng):
    """(name, build_loss, params) triples over random shapes."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    k = int(rng.integers(2, 6))
    a = ad.param(rng.normal(size=n))
    b = ad.param(rng.normal(size=n))
    mat = ad.param(rng.normal(size=(m, n)))
    mat2 = ad.param(rng.normal(size=(n, k)))
    wa = rng.normal(size=n)
    wm = rng.normal(size=(m, n))
    wk_ = rng.normal(size=k)
    wvm = rng.normal(size=m)
    wnm = rng.normal(size=(n, m))
    wcat = rng.normal(size=2 * n)
    wstack = rng.normal(size=(3, n))
    rhs_km = rng.normal(size=(k, m))
    target = int(rng.integers(0, n))
    ids = list(rng.integers(0, m, size=4))
    wid = rng.normal(size=(4, n))
    row_targets = [int(i) for i in rng.integers(0, n, size=m)]
    row_weights = rng.normal(size=m)

    cases = [
        ("add", lambda: weighted(add(a, b), wa), [a, b]),
        ("sub", lambda: weighted(sub(a, b), wa), [a, b]),
        ("neg", lambda: weighted(neg(a), wa), [a]),
        ("mul", lambda: weighted(mul(a, b), wa), [a, b]),
        ("scale", lambda: weighted(ad.scale(a, 0.7), wa), [a]),
        ("dot", lambda: dot(a, b), [a, b]),
        ("matmul_mv", lambda: weighted(matmul(mat, a), wvm), [mat, a]),
        ("matmul_mm", lambda: weighted(matmul(mat2, const(rhs_km)), wnm), [mat2]),
        ("matmul_vm", lambda: weighted(matmul(a, mat2), wk_), [a, mat2]),
        ("add_row", lambda: weighted(add_row(mat, a), wm), [mat, a]),
        ("take_row", lambda: weighted(take_row(mat, 1), wa), [mat]),
        ("reshape", lambda: weighted(ad.reshape(mat, (n, m)), wnm), [mat]),
        ("concat", lambda: weighted(ad.concat([a, b]), wcat), [a, b]),
        ("stack_rows", lambda: weighted(stack_rows([a, b, a]), wstack), [a, b]),
        ("tanh", lambda: weighted(tanh(a), wa), [a]),
        ("sigmoid", lambda: weighted(sigmoid(a), wa), [a]),
        ("softmax", lambda: weighted(softmax(a), wa), [a]),
        ("log_softmax_at", lambda: log_softmax_at(a, target), [a]),
        ("cross_entropy", lambda: cross_entropy(a, target), [a]),
        ("embedding_lookup", lambda: weighted(ad.embedding_lookup(mat, ids), wid), [mat]),
        ("vsum", lambda: vsum(mat), [mat]),
        ("mean", lambda: mean(mat), [mat]),
        ("nll", lambda: ad.nll(mat, row_targets, row_weights), [mat]),
    ]
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_every_primitive_passes_grad_check(seed):
    rng = rng_for(100 + seed)
    for name, loss, params in _primitive_cases(rng):
        err = grad_check(loss, params, rng=rng_for(200 + seed))
        assert err < 1e-4, f"{name} grad error {err}"


def test_bilstm_sequence_fd():
    rng = rng_for(9)
    hidden, dim = 3, 4
    xs = [ad.param(rng.normal(size=dim)) for _ in range(3)]
    wf = ad.param(ad.uniform_init(rng, (4 * hidden, dim + hidden)))
    bf = ad.param(ad.lstm_bias_init(hidden))
    wb = ad.param(ad.uniform_init(rng, (4 * hidden, dim + hidden)))
    bb = ad.param(ad.lstm_bias_init(hidden))
    weights = [rng.normal(size=2 * hidden) for _ in range(3)]

    def loss():
        outs, _, _ = bilstm_sequence(xs, wf, bf, wb, bb, hidden)
        total = weighted(outs[0], weights[0])
        for o, w_ in zip(outs[1:], weights[1:]):
            total = add(total, weighted(o, w_))
        return total

    assert grad_check(loss, xs + [wf, bf, wb, bb], rng=rng_for(10)) < 1e-4


@st.composite
def ragged_batches(draw):
    lengths = draw(st.lists(st.integers(1, 15), min_size=1, max_size=12))
    dim, hidden = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return lengths, dim, hidden, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(ragged_batches())
def test_bilstm_batch_matches_per_cell_reference(case):
    lengths, dim, hidden, seed = case
    rng = rng_for(seed)
    n, steps = len(lengths), max(lengths)
    x_data = rng.normal(size=(n, steps, dim))
    weights = []  # wf, bf, wb, bb
    for _ in range(2):
        weights += [ad.param(rng.normal(size=(4 * hidden, dim + hidden)) * 0.5), ad.param(rng.normal(size=4 * hidden))]
    state_w = rng.normal(size=(n, steps, 2 * hidden))
    final_w = rng.normal(size=(n, 2 * hidden))

    x = ad.param(x_data)
    states, finals = ad.bilstm_batch(x, lengths, *weights, hidden)
    loss = add(weighted(states, state_w), weighted(finals, final_w))
    ad.backward(loss)
    batched = [x.grad] + [p.grad for p in weights]
    ad.zero_grads(weights)

    rows = [[ad.param(x_data[r, t]) for t in range(lengths[r])] for r in range(n)]
    terms = []
    for r, inputs in enumerate(rows):
        outputs, f_last, b_first = bilstm_sequence(inputs, *weights, hidden)
        assert np.abs(states.data[r, : lengths[r]] - np.stack([o.data for o in outputs])).max() < 1e-10
        terms += [dot(o, const(state_w[r, t])) for t, o in enumerate(outputs)]
        terms.append(dot(ad.concat([f_last, b_first]), const(final_w[r])))
    reference = terms[0]
    for term in terms[1:]:
        reference = add(reference, term)
    ad.backward(reference)
    x_grad = np.zeros_like(x_data)
    for r, inputs in enumerate(rows):
        x_grad[r, : lengths[r]] = [xi.grad for xi in inputs]

    assert abs(float(loss.data) - float(reference.data)) < 1e-10
    for got, want in zip(batched, [x_grad] + [p.grad for p in weights]):
        assert np.abs(got - want).max() < 1e-10
    for r, length in enumerate(lengths):
        assert not states.data[r, length:].any()
        assert not batched[0][r, length:].any()


def _bilstm_outputs(bilstm, x_data, lengths, weight_data, hidden, state_w, final_w):
    """`states`, `finals` and the gradients of x, wf, bf, wb and bb under a
    fixed weighting of both outputs."""
    x = ad.param(x_data)
    weights = [ad.param(a) for a in weight_data]
    states, finals = bilstm(x, lengths, *weights, hidden)
    ad.backward(add(weighted(states, state_w), weighted(finals, final_w)))
    return [states.data, finals.data, x.grad] + [p.grad for p in weights]


def _assert_bilstm_equals_two_loops(lengths, dim, hidden, seed, scale):
    rng = rng_for(seed)
    n, steps = len(lengths), max(lengths)
    x_data = rng.normal(size=(n, steps, dim))
    weight_data = []  # wf, bf, wb, bb
    for _ in range(2):
        weight_data += [rng.normal(size=(4 * hidden, dim + hidden)) * scale, rng.normal(size=4 * hidden)]
    state_w = rng.normal(size=(n, steps, 2 * hidden))
    final_w = rng.normal(size=(n, 2 * hidden))
    args = (x_data, lengths, weight_data, hidden, state_w, final_w)
    got = _bilstm_outputs(ad.bilstm_batch, *args)
    want = _bilstm_outputs(bilstm_batch_two_loops, *args)
    for name, a, b in zip(("states", "finals", "x", "wf", "bf", "wb", "bb"), got, want):
        assert np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(ragged_batches())
def test_bilstm_batch_equals_the_two_loop_scan_exactly(case):
    lengths, dim, hidden, seed = case
    _assert_bilstm_equals_two_loops(lengths, dim, hidden, seed, 0.5)


def test_bilstm_batch_equals_the_two_loop_scan_exactly_at_paper_size():
    """40 sentences of up to 22 words, E=300 and H=64."""
    lengths = rng_for(40).integers(1, 23, size=40).tolist()
    lengths[7] = 22
    _assert_bilstm_equals_two_loops(lengths, 300, 64, 41, 0.1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_gate_kernels_equal_the_allocating_reference_exactly(hidden, rows, seed):
    rng = rng_for(seed)
    for lead in ((), (rows,), (2, rows)):
        z = rng.normal(size=lead + (4 * hidden,)) * 3.0
        c_prev = rng.normal(size=lead + (hidden,))
        want_acts = np.empty_like(z)
        want = lstm_gates_allocating(z, c_prev, want_acts)
        for out in (None, tuple(np.empty_like(c_prev) for _ in range(3))):
            acts = np.empty_like(z)
            got = ad.lstm_gates(z, c_prev, acts, out)
            assert np.array_equal(acts, want_acts)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            if out is not None:
                assert all(a is b for a, b in zip(got, out))
        dh, dc = rng.normal(size=c_prev.shape), rng.normal(size=c_prev.shape)
        want_dz = np.empty_like(z)
        want_dc = lstm_gates_grad_allocating(dh, dc, want_acts, want[1], c_prev, want_dz)
        dz, dc_buffer = np.empty_like(z), dc.copy()
        got_dc = ad.lstm_gates_grad(dh.copy(), dc_buffer, want_acts, want[1], c_prev, dz)
        assert got_dc is dc_buffer
        assert np.array_equal(got_dc, want_dc) and np.array_equal(dz, want_dz)


def _grad_and_value(build, data, batch):
    """Gradient and value of `build(rows)` over a fresh leaf holding `data`,
    bare when `batch` is None and else inside `scale(., 1/batch)` as `fit` runs it."""
    rows = ad.param(data)
    loss = build(rows)
    ad.backward(loss if batch is None else ad.scale(loss, 1.0 / batch))
    return rows.grad, loss.data


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7), st.integers(2, 39), st.sampled_from([0.1, 1.0, 10.0, 100.0]),
    st.booleans(), st.sampled_from([None, 1, 3, 8]), st.integers(0, 2**32 - 1),
)
@example(1, 2, 100.0, True, 8, 0)  # one row, masked, inside `fit`'s scale
def test_nll_equals_the_one_node_losses_it_replaced_exactly(n, k, magnitude, masked, batch, seed):
    rng = rng_for(seed)
    data = rng.normal(size=(n, k)) * magnitude
    targets = [int(i) for i in rng.integers(0, k, size=n)]
    if masked:  # a chosen candidate, as the pointer masks it
        data[0, (targets[0] + 1) % k] += -1e9
    weights = rng.normal(size=n) * (rng.random(size=n) < 0.8)  # either sign, and some 0

    got = _grad_and_value(lambda rows: ad.mean_cross_entropy(rows, targets), data, batch)
    want = _grad_and_value(lambda rows: mean_cross_entropy_node(rows, targets), data, batch)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    got_grad, _ = _grad_and_value(lambda rows: ad.nll(rows, targets, weights), data, batch)
    want_grad, _ = _grad_and_value(lambda rows: policy_loss(rows, targets, weights), data, batch)
    assert np.array_equal(got_grad, want_grad)


@pytest.mark.parametrize("kind", ["extractor", "abstractor"])
def test_graph_holds_no_reference_cycle(kind):
    rng = rng_for(12)
    if kind == "extractor":
        model = ExtractorModel(10, 4, 3, rng)
        build = lambda: model.teacher_forced_loss([[4, 5, 6], [7], [8, 9]], [2, 0])
    else:
        model = AbstractorModel(10, 4, 3, rng)
        # One pair's fused graph has exactly 10 interior nodes; two pairs
        # sharing the parameters keep the graph above the floor below.
        build = lambda: add(model.teacher_forced_loss([4, 5, 6], [7, 8]), model.teacher_forced_loss([9, 4], [5]))
    gc.disable()
    try:
        loss = build()
        interior = [weakref.ref(node) for node in ad.topo_order(loss) if node._parents]
        assert len(interior) > 10
        del loss  # never backpropagated, as a validation or inference graph is
        assert all(ref() is None for ref in interior)

        loss = build()
        interior = [weakref.ref(node) for node in ad.topo_order(loss)[:-1] if node._parents]
        assert len(interior) > 10
        ad.backward(loss)
        assert all(ref() is None for ref in interior)  # freed by `backward` while `loss` is alive
        assert ad.topo_order(loss) == [loss] and loss.data.shape == ()
    finally:
        gc.enable()


def test_embedding_lookup_accumulates_duplicates():
    table = ad.param(np.zeros((3, 2)))
    out = ad.embedding_lookup(table, [1, 1, 2])
    ad.backward(vsum(out))
    assert np.allclose(table.grad, [[0, 0], [2, 2], [1, 1]])


# ---------------------------------------------------------------- attention behavior


def test_attention_weights_sum_to_one_and_mask_kills_position():
    rng = rng_for(11)
    keys = const(rng.normal(size=(4, 5)))
    query = const(rng.normal(size=3))
    wq = const(ad.uniform_init(rng, (3, 2)))
    wk = const(ad.uniform_init(rng, (5, 2)))
    v = const(ad.uniform_init(rng, (2,)))
    mask = np.array([0.0, 0.0, -1e9, 0.0])
    weights, context = bahdanau_attention(query, keys, wq, wk, v, additive_mask=mask)
    assert abs(weights.data.sum() - 1.0) <= 1e-12
    assert weights.data[2] < 1e-20
    assert context.shape == (5,)


# ---------------------------------------------------------------- optimizer


def test_clip_global_norm_frozen():
    g1 = np.array([0.3, 0.4])  # norm 0.5
    before = g1.copy()
    norm = ad.clip_global_norm([g1], 1.0)
    assert norm == pytest.approx(0.5)
    assert np.array_equal(g1, before)

    g2 = np.array([4.0, 0.0])
    g3 = np.zeros(2)
    norm = ad.clip_global_norm([g2, g3], 1.0)
    assert norm == pytest.approx(4.0)
    assert np.allclose(g2, [1.0, 0.0])  # scaled by 0.25


def test_adam_minimizes_quadratic():
    x = ad.param(1.0)
    opt = ad.Adam({"x": x}, lr=0.001, clip_norm=None)
    target = 0.3
    for _ in range(10_000):
        opt.zero_grad()
        diff = sub(x, const(target))
        ad.backward(mul(diff, diff))
        opt.step()
    assert abs(float(x.data) - target) < 1e-2


def test_adam_rejects_non_finite_grads():
    x = ad.param(1.0)
    opt = ad.Adam({"x": x}, lr=0.001, clip_norm=1.0)
    x.grad = np.asarray(np.nan)
    with pytest.raises(ad.NonFiniteGradError):
        opt.step()


def test_adam_clips_before_update():
    x = ad.param(np.zeros(2))
    opt = ad.Adam({"x": x}, lr=0.1, clip_norm=1.0)
    x.grad = np.array([30.0, 40.0])
    norm = opt.step()
    assert norm == pytest.approx(50.0)
    # Post-clip direction is preserved.
    assert float(x.data[0]) < 0 and float(x.data[1]) < 0


def _formula_clip(grads, max_norm):
    """Global-norm clipping written out with a temporary per gradient."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        for g in grads:
            g *= max_norm / total
    return total


def _formula_adam(data, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam written out with temporaries."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("clip_norm", [None, 1.0, 1e-3])
def test_adam_step_equals_the_written_out_formula_exactly(clip_norm):
    rng = rng_for(31)
    shapes = {"w": (6, 5), "b": (7,), "s": (), "big": (9, 11)}
    params = {k: ad.param(rng.normal(size=s)) for k, s in shapes.items()}
    data = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in data.items()}
    v = {k: np.zeros_like(a) for k, a in data.items()}
    opt = ad.Adam(params, lr=0.01, clip_norm=clip_norm)
    for t in range(1, 7):
        grads = {k: rng.normal(size=s) * 3.0 for k, s in shapes.items() if (t + len(k)) % 5}
        for k, p in params.items():
            p.grad = grads[k].copy() if k in grads else None
        norm = opt.step()
        names = list(grads)
        expected = [grads[k].copy() for k in names]
        if clip_norm is None:
            want_norm = float(np.sqrt(sum(float((g * g).sum()) for g in expected)))
        else:
            want_norm = _formula_clip(expected, clip_norm)
        for k, g in zip(names, expected):
            _formula_adam(data[k], g, m[k], v[k], t, 0.01)
        assert norm == want_norm
        for k, p in params.items():
            assert np.array_equal(p.data, data[k]), (t, k)


def test_adam_reuses_gradient_arrays_and_leaves_unreached_parameters_alone():
    a, b = ad.param(np.array([1.0, -2.0])), ad.param(np.array([0.5, 0.25]))
    opt = ad.Adam({"a": a, "b": b}, lr=0.1, clip_norm=None)
    opt.zero_grad()
    ad.backward(add(dot(a, a), dot(a, b)))
    opt.step()
    grad_a = a.grad
    b_data, b_m, b_v = b.data.copy(), opt._m["b"].copy(), opt._v["b"].copy()

    opt.zero_grad()
    assert a.grad is None and b.grad is None
    ad.backward(dot(a, a))  # b is not reached
    assert a.grad is grad_a
    assert np.array_equal(a.grad, 2.0 * a.data)
    assert b.grad is None
    opt.step()
    assert np.array_equal(b.data, b_data)
    assert np.array_equal(opt._m["b"], b_m) and np.array_equal(opt._v["b"], b_v)


def test_gradient_kept_after_zero_grads_is_not_overwritten():
    x = ad.param(np.array([1.0, 2.0, 3.0]))
    opt = ad.Adam({"x": x}, lr=0.1, clip_norm=None)
    ad.backward(dot(x, x))
    opt.zero_grad()  # x's gradient array becomes its spare
    ad.backward(dot(x, x))
    kept = x.grad
    ad.zero_grads([x])
    ad.backward(dot(x, const(np.array([7.0, 8.0, 9.0]))))
    assert x.grad is not kept
    assert np.array_equal(kept, [2.0, 4.0, 6.0])
    assert np.array_equal(x.grad, [7.0, 8.0, 9.0])


# ---------------------------------------------------------------- persistence


def test_checkpoint_round_trip(tmp_path):
    rng = rng_for(12)
    params = {
        "w": ad.param(rng.normal(size=(3, 4))),
        "b": ad.param(rng.normal(size=7)),
        "s": ad.param(1.25),
    }
    config = {"hidden_dim": 4, "vocab_size": 10}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, params, config, vocab=["<pad>", "<unk>", "<s>", "</s>", "a"])
    arrays, loaded_config, vocab = ad.load_checkpoint(path)
    assert set(arrays) == {"w", "b", "s"}
    for name, p in params.items():
        assert np.array_equal(arrays[name], p.data)
    assert loaded_config == config
    assert vocab[-1] == "a"

    ad.save_checkpoint(path, params, config, vocab=vocab)
    first = path.read_bytes()
    ad.save_checkpoint(path, params, config, vocab=vocab)
    assert path.read_bytes() == first


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01\x02 not json\n1234")
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"w": ad.param(np.ones(8))}, {"d": 1})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"a": ad.param(np.ones(3)), "b": ad.param(np.ones(2))}, {"d": 1})
    previous = path.read_bytes()
    real = ad.np.ascontiguousarray
    calls = []

    def fail_on_second_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(ad.np, "ascontiguousarray", fail_on_second_array)
    with pytest.raises(OSError, match="disk full"):
        ad.save_checkpoint(path, {"a": ad.param(np.zeros(3)), "b": ad.param(np.zeros(2))}, {"d": 2})
    monkeypatch.undo()
    assert path.read_bytes() == previous
    arrays, config, _ = ad.load_checkpoint(path)
    assert config == {"d": 1} and np.array_equal(arrays["a"], np.ones(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


@pytest.mark.parametrize(
    "change",
    [
        {"names": None},
        {"shapes": {"w": [2.5]}},
        {"shapes": {"v": [3]}},
        {"config": [1]},
        {"config_hash": "0" * 64},
        {"vocab": [1, 2]},
        {"vocab": "drop"},
    ],
)
def test_checkpoint_rejects_malformed_header(tmp_path, change):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"w": ad.param(np.ones(3))}, {"d": 1})
    line, blob = path.read_bytes().split(b"\n", 1)
    header = {key: value for key, value in {**json.loads(line), **change}.items() if value != "drop"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


def test_config_hash_is_stable_and_order_free():
    h1 = ad.config_hash({"a": 1, "b": [2, 3]})
    h2 = ad.config_hash({"b": [2, 3], "a": 1})
    assert h1 == h2
    assert h1 != ad.config_hash({"a": 2, "b": [2, 3]})


CHECKPOINTED = [(ExtractorModel, (30, 8, 6)), (AbstractorModel, (30, 8, 6)), (Critic, (6,))]


def write_inflated_sizes(source, target, **sizes):
    """`source` with the header's config sizes replaced and its hash recomputed; shapes and data kept."""
    line, blob = source.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"].update(sizes)
    header["config_hash"] = ad.config_hash(header["config"])
    target.write_bytes(json.dumps(header).encode() + b"\n" + blob)


@pytest.mark.parametrize("cls, sizes", CHECKPOINTED)
def test_model_load_keeps_the_constructors_parameter_order(tmp_path, cls, sizes):
    model = cls(*sizes, np.random.default_rng(40))
    model.save(tmp_path / "model.ckpt")
    loaded, _ = cls.load(tmp_path / "model.ckpt")
    assert list(loaded.params) == list(model.params) == list(cls.param_table(*sizes))
    assert loaded.arch() == model.arch()
    for name, p in model.params.items():
        assert p.data.shape == cls.param_table(*sizes)[name][0]
        assert np.array_equal(loaded.params[name].data, p.data), name


@pytest.mark.parametrize("cls, sizes", CHECKPOINTED)
def test_model_load_draws_no_random_numbers(tmp_path, monkeypatch, cls, sizes):
    cls(*sizes, np.random.default_rng(41)).save(tmp_path / "model.ckpt")

    def refuse(*_args, **_kwargs):
        raise AssertionError("load drew random numbers")

    monkeypatch.setattr(ad, "uniform_init", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded, _ = cls.load(tmp_path / "model.ckpt")
    assert len(loaded.params) == len(cls.param_table(*sizes))


def test_model_load_refuses_inflated_sizes_before_allocating(tmp_path):
    """At 256 hidden units the extractor's parameters would take about 48 MiB."""
    path = tmp_path / "inflated.ckpt"
    ExtractorModel(30, 8, 6, np.random.default_rng(42)).save(tmp_path / "model.ckpt")
    write_inflated_sizes(tmp_path / "model.ckpt", path, hidden_dim=256)

    def load():
        with pytest.raises(ValueError, match="shape mismatch for 'word_f_w'"):
            ExtractorModel.load(path)

    assert traced_peak(load) < 2**20


@pytest.mark.parametrize("cls", [ExtractorModel, AbstractorModel])
def test_model_load_peak_is_at_most_the_file_and_one_parameter(tmp_path, cls):
    path = tmp_path / "model.ckpt"
    model = cls(3000, 40, 8, np.random.default_rng(43))
    model.save(path)
    largest = max(p.data.nbytes for p in model.params.values())
    assert traced_peak(lambda: cls.load(path)) <= path.stat().st_size + largest


@pytest.mark.parametrize("cls", [ExtractorModel, AbstractorModel])
def test_model_save_peaks_well_below_its_largest_parameter(tmp_path, cls):
    """`save` writes each parameter's own buffer to the file, copying none of them."""
    model = cls(3000, 40, 8, np.random.default_rng(44))
    largest = max(p.data.nbytes for p in model.params.values())
    assert traced_peak(lambda: model.save(tmp_path / "model.ckpt")) < largest / 4


def test_checkpoint_truncated_with_inflated_shapes_refused_before_reading(tmp_path):
    """Shapes that claim far more than the file holds are refused without allocating them."""
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, {"w": ad.param(np.ones(3))}, {"d": 1})
    line, blob = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(line), "shapes": {"w": [2**12, 2**12]}}  # 128 MiB
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)

    def load():
        with pytest.raises(ValueError, match="truncated at parameter 'w'"):
            ad.load_checkpoint(path)

    assert traced_peak(load) < 2**20


# ---------------------------------------------------------------- determinism


def test_forward_is_bit_deterministic():
    def run():
        rng = rng_for(13)
        w = ad.param(ad.uniform_init(rng, (4 * 3, 5 + 3)))
        b = ad.param(ad.lstm_bias_init(3))
        h, c = const(np.zeros(3)), const(np.zeros(3))
        outs = []
        for _ in range(4):
            x = const(rng.normal(size=5))
            h, c = ad.lstm_cell(x, h, c, w, b)
            outs.append(h.data.copy())
        return np.stack(outs)

    assert np.array_equal(run(), run())


# A paper-size word encoder's forward and backward pass (300 sequences of up
# to 22 tokens, E=300, H=64), digested. Its weight gradients are long-K
# products, whose bits depend on how many BLAS threads split them.
BLAS_PROBE = """
import hashlib

import narrsum  # before NumPy, as the CLI imports it
import numpy as np

from narrsum import autodiff as ad

rng = np.random.default_rng(0)
rows, steps, e, h = 300, 22, 300, 64
x = ad.param(rng.normal(size=(rows, steps, e)))
weights = [ad.param(ad.uniform_init(rng, (4 * h, e + h))), ad.param(ad.lstm_bias_init(h)),
           ad.param(ad.uniform_init(rng, (4 * h, e + h))), ad.param(ad.lstm_bias_init(h))]
states, finals = ad.bilstm_batch(x, rng.integers(1, steps + 1, size=rows), *weights, h)
goal = rng.integers(0, 2 * h, size=rows * steps)
ad.backward(ad.mean_cross_entropy(ad.reshape(states, (rows * steps, 2 * h)), goal))
digest = hashlib.sha256()
for array in [states.data, finals.data, x.grad] + [w.grad for w in weights]:
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_bytes_do_not_depend_on_the_blas_thread_count():
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, check=True)
        digests.append(run.stdout)
    assert digests[0] == digests[1]
