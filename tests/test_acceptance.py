"""Release gate: nine checked claims, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test builds its own evidence from scratch (brute-force oracles,
synthetic corpora, analytic gradients) and asserts the stated bound and,
where one applies, the wall-clock budget.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.baselines import lead_n, lexrank_graph, power_iteration, textrank_graph
from narrsum.config import RunConfig
from narrsum.corpus import build_vocab, load_dataset
from narrsum.extractor import ExtractorModel, example_loss, prepare_extractor_examples
from narrsum.harness import cli, detokenize, evaluate_system, truncate_sentences
from narrsum.oracle import build_oracle
from narrsum.rl import A2CTrainer, Critic, Trajectory, TrajectoryStep, train_rl
from narrsum.rouge import rouge_l_sentence, rouge_l_summary, rouge_n, rouge_su4
from narrsum.synthgen import SynthSpec, generate
from narrsum.training import fit
from percell import (
    add,
    add_row,
    bahdanau_attention,
    bilstm_sequence,
    const,
    cross_entropy,
    dot,
    grad_check,
    log_softmax_at,
    matmul,
    mean,
    mul,
    neg,
    sigmoid,
    softmax,
    stack_rows,
    sub,
    take_row,
    tanh,
    vsum,
)
from yardsticks import mean_greedy_reward, teacher_forced_accuracy


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


# ------------------------------------------------------------ shared fixtures


SMALL_SPEC = SynthSpec(
    seed=11,
    n_reports=6,
    sentences_per_report=8,
    summary_sentences=2,
    vocabulary_size=30,
    n_validation_reports=1,
    n_testing_reports=1,
)

PIPE_DECODE = RunConfig(beam_width=2, repetition_penalty=2.0, max_output_tokens=16)


def exact_step_accuracy(model: ExtractorModel, data) -> float:
    """Fraction of forced-path actions a free-running greedy decode hits."""
    hits = total = 0
    for _rid, ids_lists, targets in data:
        want = list(targets) + [len(ids_lists)]
        keys = model.encode(ids_lists).data
        steps = model.decode(keys, len(ids_lists), lambda p, _t: int(np.argmax(p)), max_steps=len(want))
        got = [s.action for s in steps]
        hits += sum(int(g == w) for g, w in zip(got, want))
        total += len(want)
    return hits / total


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """A verbatim (noise-free) synthetic corpus with known alignments."""
    root = tmp_path_factory.mktemp("accept_world")
    truth = generate(SMALL_SPEC, root)["training"]
    dataset = load_dataset(root, 60)
    vocab = build_vocab([s for report in dataset.training for s in report.sentences], 2000)
    data = prepare_extractor_examples(dataset.training, truth, vocab)
    return {"dataset": dataset, "truth": truth, "vocab": vocab, "data": data}


@pytest.fixture(scope="module")
def identity_abstractor(small_world):
    """A paraphraser overfit to copy every training sentence verbatim."""
    pairs = []
    seen = set()
    for _rid, ids_lists, _targets in small_world["data"]:
        for ids in ids_lists:
            if tuple(ids) not in seen:
                seen.add(tuple(ids))
                pairs.append((list(ids), list(ids)))
    model = AbstractorModel(small_world["vocab"].size, 32, 32, np.random.default_rng(50))

    def copies_all():
        return all(model.paraphrase(src, PIPE_DECODE) == tgt for src, tgt in pairs)

    for stage in range(20):
        fit(
            model.params, model.teacher_forced_loss, pairs, RunConfig(lr=0.01, batch_size=16), epochs=20,
            rng=np.random.default_rng([51, stage]),
        )
        if teacher_forced_accuracy(model, pairs) >= 0.995 and copies_all():
            break
    assert copies_all(), "identity abstractor failed to memorize the corpus"
    return model


@pytest.fixture(scope="module")
def trained_extractor(small_world):
    """A pointer trained to convergence on the oracle targets."""
    model = ExtractorModel(small_world["vocab"].size, 32, 32, np.random.default_rng(52))
    for stage in range(20):
        fit(
            model.params, example_loss(model), small_world["data"], RunConfig(lr=0.01, batch_size=3), epochs=10,
            rng=np.random.default_rng([53, stage]),
        )
        if exact_step_accuracy(model, small_world["data"]) >= 0.95:
            break
    assert exact_step_accuracy(model, small_world["data"]) >= 0.95
    return model


# ------------------------------------------------------------ brute-force oracles


def _is_subseq(sub, seq) -> bool:
    it = iter(seq)
    return all(tok in it for tok in sub)


def _brute_lcs_len(a, b) -> int:
    """LCS by enumerating subsequences of the shorter side, longest first."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    upper = min(len(short), sum((Counter(a) & Counter(b)).values()))
    for size in range(upper, 0, -1):
        for combo in itertools.combinations(range(len(short)), size):
            if _is_subseq([short[i] for i in combo], long_):
                return size
    return 0


def _brute_match_positions(reference, candidate):
    """Lexicographically smallest reference-position set of maximal size."""
    length = _brute_lcs_len(reference, candidate)
    for combo in itertools.combinations(range(len(reference)), length):
        if _is_subseq([reference[i] for i in combo], candidate):
            return combo
    return ()


def _prf(matches, cand_units, ref_units):
    precision = matches / cand_units if cand_units > 0 else 0.0
    recall = matches / ref_units if ref_units > 0 else 0.0
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def _oracle_ngram(cand, ref, n):
    cc = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
    rc = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
    matches = sum(min(count, rc[gram]) for gram, count in cc.items())
    return _prf(matches, sum(cc.values()), sum(rc.values()))


def _oracle_su4(cand, ref):
    def units(tokens):
        out = Counter()
        for i, tok in enumerate(tokens):
            out[("u", tok)] += 1
            for j, other in enumerate(tokens[i + 1:i + 5], start=i + 1):
                out[("s", tok, other)] += 1
        return out

    cu, ru = units(cand), units(ref)
    matches = sum(min(count, ru[unit]) for unit, count in cu.items())
    return _prf(matches, sum(cu.values()), sum(ru.values()))


def _oracle_summary_lcs(cand_sents, ref_sents):
    budget = Counter(tok for sent in cand_sents for tok in sent)
    matches = 0
    for ref in ref_sents:
        hit = set()
        for cand in cand_sents:
            hit.update(_brute_match_positions(ref, cand))
        for pos in sorted(hit):
            if budget[ref[pos]] > 0:
                budget[ref[pos]] -= 1
                matches += 1
    return _prf(matches, sum(map(len, cand_sents)), sum(map(len, ref_sents)))


# ------------------------------------------------------------ A1 .. A9


def test_a1_metric_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    alphabet = ["a", "b", "c", "d"]
    mismatches = 0
    for _ in range(1000):
        cand = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 13))]
        ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 13))]
        for n in (1, 2):
            got = rouge_n(cand, ref, n)
            if (got.precision, got.recall, got.f1) != _oracle_ngram(cand, ref, n):
                mismatches += 1
        got = rouge_l_sentence(cand, ref)
        want = _prf(_brute_lcs_len(cand, ref), len(cand), len(ref))
        if (got.precision, got.recall, got.f1) != want:
            mismatches += 1
        got = rouge_su4(cand, ref)
        if (got.precision, got.recall, got.f1) != _oracle_su4(cand, ref):
            mismatches += 1
    took = time.monotonic() - t0
    _report("A1", mismatches == 0 and took < 10.0,
            f"1000 pairs x 4 metrics, {mismatches} mismatches, {took:.1f}s (limit 10s)")


def test_a2_summary_level_lcs():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    alphabet = ["a", "b", "c", "d"]

    def sentences():
        return [[alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
                for _ in range(rng.integers(1, 5))]

    mismatches = 0
    for _ in range(200):
        cand, ref = sentences(), sentences()
        got = rouge_l_summary(cand, ref)
        if (got.precision, got.recall, got.f1) != _oracle_summary_lcs(cand, ref):
            mismatches += 1
    took = time.monotonic() - t0
    _report("A2", mismatches == 0 and took < 10.0,
            f"200 multi-sentence pairs, {mismatches} mismatches, {took:.1f}s (limit 10s)")


def _op_builders():
    """(name, builder) pairs; builder(rng) -> (build_loss, params)."""

    def vec(rng, n):
        return ad.param(rng.normal(size=n))

    def w(rng, n):
        return const(rng.normal(size=n))

    def pairwise(op):
        def build(rng):
            n = int(rng.integers(2, 7))
            a, b = vec(rng, n), vec(rng, n)
            weights = w(rng, n)
            return lambda: dot(op(a, b), weights), [a, b]
        return build

    def unary(op):
        def build(rng):
            n = int(rng.integers(2, 7))
            a = vec(rng, n)
            weights = w(rng, n)
            return lambda: dot(op(a), weights), [a]
        return build

    def build_scale(rng):
        a = vec(rng, 4)
        weights = w(rng, 4)
        return lambda: dot(ad.scale(a, 1.7), weights), [a]

    def build_dot(rng):
        a, b = vec(rng, 5), vec(rng, 5)
        return lambda: dot(a, b), [a, b]

    def build_matmul(rng):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = ad.param(rng.normal(size=(r, c)))
        x = vec(rng, c)
        weights = w(rng, r)
        return lambda: dot(matmul(m, x), weights), [m, x]

    def build_add_row(rng):
        r, c = 3, 4
        m = ad.param(rng.normal(size=(r, c)))
        v = vec(rng, c)
        weights = w(rng, c)
        idx = int(rng.integers(0, r))
        return lambda: dot(take_row(add_row(m, v), idx), weights), [m, v]

    def build_take_row(rng):
        m = ad.param(rng.normal(size=(4, 3)))
        weights = w(rng, 3)
        idx = int(rng.integers(0, 4))
        return lambda: dot(take_row(m, idx), weights), [m]

    def build_reshape(rng):
        m = ad.param(rng.normal(size=(3, 4)))
        weights = w(rng, 12)
        return lambda: dot(ad.reshape(m, (12,)), weights), [m]

    def build_concat(rng):
        a, b = vec(rng, 3), vec(rng, 4)
        weights = w(rng, 7)
        return lambda: dot(ad.concat([a, b]), weights), [a, b]

    def build_stack_rows(rng):
        a, b = vec(rng, 4), vec(rng, 4)
        weights = [w(rng, 4) for _ in range(3)]

        def loss():
            stacked = stack_rows([a, b, a])  # a appears twice: grads accumulate
            total = dot(take_row(stacked, 0), weights[0])
            total = add(total, dot(take_row(stacked, 1), weights[1]))
            return add(total, dot(take_row(stacked, 2), weights[2]))

        return loss, [a, b]

    def build_log_softmax_at(rng):
        a = vec(rng, 5)
        idx = int(rng.integers(0, 5))
        return lambda: log_softmax_at(a, idx), [a]

    def build_cross_entropy(rng):
        a = vec(rng, 6)
        idx = int(rng.integers(0, 6))
        return lambda: cross_entropy(a, idx), [a]

    def build_embedding(rng):
        table = ad.param(rng.normal(size=(5, 3)))
        ids = [int(i) for i in rng.integers(0, 5, size=4)] + [2, 2]  # forced repeat
        weights = w(rng, len(ids) * 3)
        return lambda: dot(ad.reshape(ad.embedding_lookup(table, ids), (len(ids) * 3,)), weights), [table]

    def build_vsum(rng):
        a = vec(rng, 5)
        return lambda: vsum(mul(a, a)), [a]

    def build_mean(rng):
        a = vec(rng, 6)
        return lambda: mean(tanh(a)), [a]

    def build_lstm_cell(rng):
        e, h = 3, 4
        x, hh, cc = vec(rng, e), vec(rng, h), vec(rng, h)
        wm = ad.param(rng.normal(size=(4 * h, e + h)) * 0.5)
        bm = ad.param(rng.normal(size=4 * h) * 0.5)
        w1, w2 = w(rng, h), w(rng, h)

        def loss():
            h2, c2 = ad.lstm_cell(x, hh, cc, wm, bm)
            return add(dot(h2, w1), dot(c2, w2))

        return loss, [x, hh, cc, wm, bm]

    def build_bilstm(rng):
        e, h, t = 3, 2, int(rng.integers(2, 5))
        xs = [vec(rng, e) for _ in range(t)]
        wf = ad.param(rng.normal(size=(4 * h, e + h)) * 0.5)
        bf = ad.param(rng.normal(size=4 * h) * 0.5)
        wb = ad.param(rng.normal(size=(4 * h, e + h)) * 0.5)
        bb = ad.param(rng.normal(size=4 * h) * 0.5)
        w1, w2, w3 = w(rng, h), w(rng, h), w(rng, 2 * h)
        pos = int(rng.integers(0, t))

        def loss():
            outputs, h_fwd, h_bwd = bilstm_sequence(xs, wf, bf, wb, bb, h)
            total = add(dot(h_fwd, w1), dot(h_bwd, w2))
            return add(total, dot(outputs[pos], w3))

        return loss, xs + [wf, bf, wb, bb]

    def build_bilstm_batch(rng):
        e, h, n = 3, 2, int(rng.integers(1, 4))
        lengths = [int(v) for v in rng.integers(1, 5, size=n)]
        t = max(lengths)
        x = ad.param(rng.normal(size=(n, t, e)))
        wf = ad.param(rng.normal(size=(4 * h, e + h)) * 0.5)
        bf = ad.param(rng.normal(size=4 * h) * 0.5)
        wb = ad.param(rng.normal(size=(4 * h, e + h)) * 0.5)
        bb = ad.param(rng.normal(size=4 * h) * 0.5)
        w1, w2 = w(rng, n * t * 2 * h), w(rng, n * 2 * h)

        def loss():
            states, finals = ad.bilstm_batch(x, lengths, wf, bf, wb, bb, h)
            total = dot(ad.reshape(states, (n * t * 2 * h,)), w1)
            return add(total, dot(ad.reshape(finals, (n * 2 * h,)), w2))

        return loss, [x, wf, bf, wb, bb]

    def build_attention(rng):
        dq, dk, inner, t = 3, 4, 3, int(rng.integers(2, 6))
        query = vec(rng, dq)
        keys = ad.param(rng.normal(size=(t, dk)))
        wq = ad.param(rng.normal(size=(dq, inner)))
        wk = ad.param(rng.normal(size=(dk, inner)))
        v = vec(rng, inner)
        mask = None
        if t > 2 and rng.random() < 0.5:
            mask = np.zeros(t)
            mask[int(rng.integers(0, t))] = -1e9
        w1, w2 = w(rng, t), w(rng, dk)

        def loss():
            weights, context = bahdanau_attention(query, keys, wq, wk, v, mask)
            return add(dot(weights, w1), dot(context, w2))

        return loss, [query, keys, wq, wk, v]

    def build_attention_decoder(rng):
        e, k, h, inner = 2, 3, 2, 2
        steps, n_src = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        emb = ad.param(rng.normal(size=(steps, e)))
        keys = ad.param(rng.normal(size=(n_src, k)))
        init = vec(rng, h)
        wm = ad.param(rng.normal(size=(4 * h, e + k + h)) * 0.5)
        bm = ad.param(rng.normal(size=4 * h) * 0.5)
        wq = ad.param(rng.normal(size=(h, inner)))
        wk = ad.param(rng.normal(size=(k, inner)))
        v = vec(rng, inner)
        weights = w(rng, steps * (h + k))

        def loss():
            out = ad.attention_decoder(emb, keys, init, wm, bm, wq, wk, v)
            return dot(ad.reshape(out, (steps * (h + k),)), weights)

        return loss, [emb, keys, init, wm, bm, wq, wk, v]

    def build_linear(rng):
        n, d, k = int(rng.integers(1, 4)), 3, 4
        x = ad.param(rng.normal(size=(n, d)))
        wm = ad.param(rng.normal(size=(k, d)))
        b = vec(rng, k)
        weights = w(rng, n * k)
        return lambda: dot(ad.reshape(ad.linear(x, wm, b), (n * k,)), weights), [x, wm, b]

    def build_mean_cross_entropy(rng):
        n, k = int(rng.integers(1, 5)), 5
        logits = ad.param(rng.normal(size=(n, k)))
        targets = [int(i) for i in rng.integers(0, k, size=n)]
        return lambda: ad.mean_cross_entropy(logits, targets), [logits]

    def build_extractor_loss(rng):
        model = ExtractorModel(8, 5, 4, rng)
        n_sents = int(rng.integers(2, 5))
        ids_lists = [[int(i) for i in rng.integers(0, 8, size=rng.integers(1, 5))]
                     for _ in range(n_sents)]
        n_targets = int(rng.integers(1, min(3, n_sents + 1)))
        targets = [int(i) for i in rng.choice(n_sents, size=n_targets, replace=False)]
        return lambda: model.teacher_forced_loss(ids_lists, targets), list(model.params.values())

    def build_abstractor_loss(rng):
        model = AbstractorModel(9, 4, 3, rng)
        src = [int(i) for i in rng.integers(4, 9, size=rng.integers(1, 5))]
        tgt = [int(i) for i in rng.integers(4, 9, size=rng.integers(1, 4))]
        return lambda: model.teacher_forced_loss(src, tgt), list(model.params.values())

    def build_pointer_decoder(rng):
        k, h, inner = 3, 2, 2
        n = int(rng.integers(1, 5))
        keys = ad.param(rng.normal(size=(n + 1, k)))
        wm = ad.param(rng.normal(size=(4 * h, k + h)) * 0.5)
        bm = ad.param(rng.normal(size=4 * h) * 0.5)
        wq = ad.param(rng.normal(size=(h, inner)))
        wk = ad.param(rng.normal(size=(k, inner)))
        v = vec(rng, inner)
        order = [int(i) for i in rng.permutation(n)]
        ending = int(rng.integers(0, 3))
        if ending == 0:  # stop
            actions = order[: int(rng.integers(0, n))] + [n]
        elif ending == 1:  # every sentence chosen
            actions = order
        else:  # the step cap
            actions = order[: int(rng.integers(1, n + 1))]
        steps = len(actions)
        weights = rng.normal(size=(steps, n + 1))
        for t in range(1, steps):  # the -1e9 masks would drown a finite difference
            weights[t:, actions[t - 1]] = 0.0
        weights = const(weights.ravel())

        def loss():
            rows = ad.pointer_decoder(keys, actions, wm, bm, wq, wk, v)
            return dot(ad.reshape(rows, (rows.data.size,)), weights)

        return loss, [keys, wm, bm, wq, wk, v]

    return [
        ("add", pairwise(add)),
        ("sub", pairwise(sub)),
        ("neg", unary(neg)),
        ("mul", pairwise(mul)),
        ("scale", build_scale),
        ("dot", build_dot),
        ("matmul", build_matmul),
        ("add_row", build_add_row),
        ("take_row", build_take_row),
        ("reshape", build_reshape),
        ("concat", build_concat),
        ("stack_rows", build_stack_rows),
        ("tanh", unary(tanh)),
        ("sigmoid", unary(sigmoid)),
        ("softmax", unary(softmax)),
        ("log_softmax_at", build_log_softmax_at),
        ("cross_entropy", build_cross_entropy),
        ("embedding_lookup", build_embedding),
        ("vsum", build_vsum),
        ("mean", build_mean),
        ("lstm_cell", build_lstm_cell),
        ("bilstm_sequence", build_bilstm),
        ("bilstm_batch", build_bilstm_batch),
        ("bahdanau_attention", build_attention),
        ("extractor_loss", build_extractor_loss),
        ("abstractor_loss", build_abstractor_loss),
        ("attention_decoder", build_attention_decoder),
        ("linear", build_linear),
        ("mean_cross_entropy", build_mean_cross_entropy),
        ("pointer_decoder", build_pointer_decoder),
    ]


def test_a3_gradient_correctness():
    t0 = time.monotonic()
    # The deep compositions have coordinates whose gradient magnitude sits
    # near 1e-8; at the default step the central difference there is pure
    # float64 roundoff. A larger step keeps noise and truncation both small.
    eps_for = {"bahdanau_attention": 1e-3, "extractor_loss": 1e-3, "abstractor_loss": 1e-3}
    worst_by_op = {}
    for op_idx, (name, builder) in enumerate(_op_builders()):
        worst = 0.0
        for k in range(20):
            rng = np.random.default_rng([303, op_idx, k])
            build_loss, params = builder(rng)
            worst = max(worst, grad_check(build_loss, params, eps=eps_for.get(name, 1e-5), rng=rng))
        worst_by_op[name] = worst
    took = time.monotonic() - t0
    bad = {name: err for name, err in worst_by_op.items() if err >= 1e-4}
    overall = max(worst_by_op.values())
    _report("A3", not bad and took < 60.0,
            f"{len(worst_by_op)} ops x 20 settings, worst rel err {overall:.2e}, "
            f"{took:.1f}s (limit 60s){'; failed: ' + str(bad) if bad else ''}")


def test_a4_oracle_and_extractor_closure(tmp_path):
    t0 = time.monotonic()
    spec = SynthSpec(
        seed=4, n_reports=20, sentences_per_report=30, summary_sentences=5,
        vocabulary_size=40, n_validation_reports=1, n_testing_reports=1,
    )
    truth = generate(spec, tmp_path)["training"]
    dataset = load_dataset(tmp_path, 60)
    oracle = build_oracle(dataset.training)

    def same(a, b):
        return (a.report_id == b.report_id and a.chosen_summary == b.chosen_summary
                and [tuple(p) for p in a.per_sentence] == [tuple(p) for p in b.per_sentence]
                and list(a.extract_targets) == list(b.extract_targets))

    recovered = sum(same(o, t) for o, t in zip(oracle, truth))
    oracle_ok = len(oracle) == len(truth) == 20 and recovered == 20

    vocab = build_vocab([s for report in dataset.training for s in report.sentences], 2000)
    data = prepare_extractor_examples(dataset.training, oracle, vocab)
    model = ExtractorModel(vocab.size, 32, 32, np.random.default_rng(404))
    epochs_done = 0
    accuracy = 0.0
    while epochs_done < 200:
        fit(model.params, example_loss(model), data, RunConfig(lr=0.01, batch_size=8), epochs=10,
            rng=np.random.default_rng([405, epochs_done]))
        epochs_done += 10
        accuracy = exact_step_accuracy(model, data)
        if accuracy >= 0.95:
            break
    took = time.monotonic() - t0
    _report("A4", oracle_ok and accuracy >= 0.95 and took < 600.0,
            f"oracle recovered {recovered}/20, step accuracy {accuracy:.3f} "
            f"after {epochs_done} epochs, {took:.0f}s (limit 600s)")


def test_a5_abstractor_copy_task():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    pairs = []
    for _ in range(50):
        length = int(rng.integers(4, 9))
        ids = [int(i) for i in rng.choice(np.arange(4, 44), size=length, replace=False)]
        pairs.append((ids, list(ids)))
    model = AbstractorModel(44, 32, 32, np.random.default_rng(506))
    epochs_done = 0
    tf_accuracy = 0.0
    while epochs_done < 300:
        fit(model.params, model.teacher_forced_loss, pairs, RunConfig(lr=0.01, batch_size=16), epochs=20,
            rng=np.random.default_rng([507, epochs_done]))
        epochs_done += 20
        tf_accuracy = teacher_forced_accuracy(model, pairs)
        if tf_accuracy >= 0.99:
            break
    verbatim = sum(model.paraphrase(src, PIPE_DECODE) == tgt for src, tgt in pairs)
    took = time.monotonic() - t0
    _report("A5", tf_accuracy >= 0.99 and verbatim >= 45 and took < 600.0,
            f"teacher-forced accuracy {tf_accuracy:.3f} after {epochs_done} epochs, "
            f"beam-2 verbatim {verbatim}/50, {took:.0f}s (limit 600s)")


def _bandit_trajectory(theta, arm, reward):
    return Trajectory(
        [TrajectoryStep(arm, float(np.log(_softmax(theta.data)[arm])), reward)],
        [reward],
        [np.zeros(2)],
        lambda: stack_rows([theta]),
    )


def test_a6_rl_improvement(small_world, identity_abstractor):
    t0 = time.monotonic()

    # (a) 2-arm bandit: the rewarded arm should dominate.
    theta = ad.param(np.zeros(2))
    trainer = A2CTrainer({"theta": theta}, Critic(1, np.random.default_rng(0)), policy_lr=0.05, critic_lr=0.05,
                         clip_norm=1.0)
    rng = np.random.default_rng(606)
    for _ in range(500):
        arm = int(rng.choice(2, p=_softmax(theta.data)))
        trainer.update([_bandit_trajectory(theta, arm, 1.0 if arm == 0 else 0.0)])
    good_arm_prob = float(_softmax(theta.data)[0])

    # (b) REINFORCE-with-baseline estimator vs the analytic gradient.
    theta_vals = np.array([1.0, 0.0, -1.0])
    arm_rewards = np.array([1.0, 0.0, 0.0])
    probs = _softmax(theta_vals)
    expected_reward = float(probs @ arm_rewards)
    analytic = probs * (arm_rewards - expected_reward)
    counts = np.random.default_rng(7).multinomial(100_000, probs)
    empirical = np.zeros(3)
    for arm in range(3):
        node = ad.param(theta_vals)
        ad.backward(log_softmax_at(node, arm))
        empirical += (counts[arm] / 100_000.0) * (arm_rewards[arm] - expected_reward) * node.grad
    estimator_err = float(np.max(np.abs(empirical - analytic) / np.abs(analytic)))

    # (c) A2C lifts a deliberately half-trained pointer.
    examples = small_world["dataset"].training
    truth, vocab, data = small_world["truth"], small_world["vocab"], small_world["data"]
    extractor = ExtractorModel(vocab.size, 24, 24, np.random.default_rng(608))
    snapshots = []

    def snap():
        acc = exact_step_accuracy(extractor, data)
        snapshots.append((acc, {k: v.data.copy() for k, v in extractor.params.items()}))

    fit(extractor.params, example_loss(extractor), data,
        RunConfig(lr=0.005, batch_size=3, checkpoint_every_batches=1), epochs=40, rng=np.random.default_rng(609),
        periodic_save=snap)
    half_acc, half_params = min(snapshots, key=lambda s: abs(s[0] - 0.5))
    assert 0.25 <= half_acc <= 0.75, f"no snapshot near 50% accuracy: {half_acc:.2f}"
    for name, arr in half_params.items():
        extractor.params[name].data[...] = arr

    cache = {}
    pre = mean_greedy_reward(examples, truth, extractor, identity_abstractor, vocab, PIPE_DECODE,
                             paraphrase_cache=cache)
    config = RunConfig(seed=610, hidden_dim=24, rl_lr=0.01, rl_episodes=1000,
                       rl_updates_every=4, max_output_tokens=16)
    critic = Critic(24, np.random.default_rng(611))
    train_rl(examples, truth, extractor, identity_abstractor, critic, vocab, config,
             rng=np.random.default_rng(612))
    post = mean_greedy_reward(examples, truth, extractor, identity_abstractor, vocab, PIPE_DECODE,
                              paraphrase_cache=cache)

    took = time.monotonic() - t0
    ok = good_arm_prob > 0.95 and estimator_err < 0.02 and post > pre and post - pre >= 0.05
    _report("A6", ok and took < 1200.0,
            f"(a) good-arm p={good_arm_prob:.3f}, (b) estimator err {estimator_err:.2%}, "
            f"(c) greedy reward {pre:.3f} -> {post:.3f} from {half_acc:.0%} pretrain, "
            f"{took:.0f}s (limit 1200s)")


def _pipeline_text(ids_lists, indices, abstractor, vocab):
    rewritten = []
    for idx in indices:
        tokens = vocab.decode(abstractor.paraphrase(ids_lists[idx], PIPE_DECODE))
        if tokens:
            rewritten.append(tokens)
    return detokenize(truncate_sentences(rewritten, 1000))


def test_a7_pipeline_identity_bound(small_world, identity_abstractor):
    t0 = time.monotonic()
    vocab = small_world["vocab"]
    by_id = {rid: ids_lists for rid, ids_lists, _ in small_world["data"]}
    predictions = {}
    for alignment in small_world["truth"]:
        predictions[alignment.report_id] = _pipeline_text(
            by_id[alignment.report_id], alignment.extract_targets, identity_abstractor, vocab
        )
    references = {report.id: report.summaries for report in small_world["dataset"].training}
    result = evaluate_system(predictions, references, RunConfig(), system="identity")
    f1s = {label: result.cells[label].f1 for label, _ in
           (("rouge-l", 0), ("rouge-1", 0), ("rouge-2", 0), ("rouge-su4", 0))}
    word_counts = [len(text.split()) for text in predictions.values()]
    took = time.monotonic() - t0
    ok = all(abs(f1 - 1.0) <= 0.001 for f1 in f1s.values()) and max(word_counts) <= 1000
    _report("A7", ok,
            f"F1 " + " ".join(f"{k}={v:.3f}" for k, v in f1s.items())
            + f", longest summary {max(word_counts)} words, {took:.0f}s")


def _dense_stationary(graph, damping=0.85):
    n = len(graph)
    transition = np.full((n, n), 1.0 / n)
    for i in range(n):
        row_sum = graph.weights[i].sum()
        if row_sum > 0:
            transition[i] = graph.weights[i] / row_sum
    matrix = np.eye(n) - damping * transition.T
    scores = np.linalg.solve(matrix, np.full(n, (1.0 - damping) / n))
    return scores / scores.sum()


def test_a8_baseline_sanity(small_world, identity_abstractor, trained_extractor):
    t0 = time.monotonic()

    # Hub construction: sentence 2 shares one token with each other sentence.
    token_lists = [
        ["ax", "ay", "h0"],
        ["bx", "by", "h1"],
        ["h0", "h1", "h2", "h3"],
        ["cx", "cy", "h2"],
        ["dx", "dy", "h3"],
    ]
    hub_ok = True
    eig_gap = 0.0
    for graph in (textrank_graph(token_lists), lexrank_graph(token_lists, 0.1)):
        scores = power_iteration(graph, 0.85, 1e-6, 100)
        dense = _dense_stationary(graph)
        hub_ok = hub_ok and int(np.argmax(scores)) == 2 and int(np.argmax(dense)) == 2
        eig_gap = max(eig_gap, float(np.max(np.abs(scores - dense))))

    # Trained pipeline vs leading-sentences baseline on the same corpus.
    vocab = small_world["vocab"]
    reports = small_world["dataset"].training
    by_id = {rid: ids_lists for rid, ids_lists, _ in small_world["data"]}
    pipeline_preds, lead_preds = {}, {}
    for report in reports:
        rid = report.id
        extraction = trained_extractor.extract(rid, by_id[rid], 80)
        pipeline_preds[rid] = _pipeline_text(by_id[rid], extraction.indices,
                                             identity_abstractor, vocab)
        chosen = lead_n(report, RunConfig(word_limit=1000))
        sentences = [report.sentences[i] for i in chosen]
        lead_preds[rid] = detokenize(truncate_sentences(sentences, 1000))
    references = {report.id: report.summaries for report in reports}
    pipe_f1 = evaluate_system(pipeline_preds, references, RunConfig(), system="pipeline").cells["rouge-l"].f1
    lead_f1 = evaluate_system(lead_preds, references, RunConfig(), system="lead").cells["rouge-l"].f1

    took = time.monotonic() - t0
    ok = hub_ok and eig_gap < 1e-5 and pipe_f1 - lead_f1 >= 0.05
    _report("A8", ok,
            f"hub ranked first (eig gap {eig_gap:.1e}), pipeline R-L F1 {pipe_f1:.3f} "
            f"vs lead {lead_f1:.3f}, {took:.0f}s")


def test_a9_subcommand_determinism(tmp_path):
    t0 = time.monotonic()
    data, out = tmp_path / "data", tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 13, "embedding_dim": 12, "hidden_dim": 8, "vocab_size": 80,
        "extractor_epochs": 2, "abstractor_epochs": 2, "batch_size": 4,
        "rl_episodes": 2, "rl_updates_every": 2, "max_output_tokens": 8,
    }))
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({
        "seed": 13, "n_reports": 4, "n_validation_reports": 1, "n_testing_reports": 2,
        "sentences_per_report": 8, "summary_sentences": 2,
    }))
    base = ["--config", str(cfg), "--data-root", str(data), "--out", str(out)]

    def run_everything():
        assert cli(["synthgen", "--spec", str(spec), "--data-root", str(data)]) == 0
        for argv in (
            ["ingest", *base],
            ["oracle", *base],
            ["train-extractor", *base],
            ["train-abstractor", *base],
            ["train-rl", *base],
            ["summarize", *base],
            ["baseline", "--method", "textrank", *base],
            ["baseline", "--method", "lexrank", *base],
            ["baseline", "--method", "lead", *base],
            ["evaluate", "--pred", str(out / "summaries"), str(out / "baseline_textrank"),
             str(out / "baseline_lead"), *base],
        ):
            assert cli(argv) == 0

    def snapshot():
        return {
            str(p.relative_to(tmp_path)): p.read_bytes()
            for tree in (data, out)
            for p in sorted(tree.rglob("*"))
            if p.is_file()
        }

    run_everything()
    first = snapshot()
    run_everything()
    second = snapshot()
    differing = sorted(name for name in first if first[name] != second.get(name))
    took = time.monotonic() - t0
    ok = first.keys() == second.keys() and not differing
    _report("A9", ok,
            f"{len(first)} files byte-identical across repeated runs of all nine "
            f"subcommands, {took:.0f}s"
            + (f"; differing: {differing[:5]}" if differing else ""))
