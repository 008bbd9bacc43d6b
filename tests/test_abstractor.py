"""Seq2seq paraphraser tests: decoding contract, training, persistence."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrsum import autodiff as ad
from narrsum.abstractor import (
    AbstractorModel,
    _top,
    prepare_abstractor_pairs,
)
from narrsum.config import RunConfig
from narrsum.corpus import (
    END_ID,
    PAD_ID,
    RESERVED_TOKENS,
    START_ID,
    UNK_ID,
    Document,
    Vocab,
)
from narrsum.extractor import ExtractorModel
from narrsum.oracle import OracleAlignment
from narrsum.training import fit
from percell import (
    abstractor_initial_state,
    abstractor_step,
    cross_entropy,
    percell_forced_logits,
    percell_paraphrase_scored,
    percell_teacher_forced_loss,
)
from yardsticks import teacher_forced_accuracy


def small_model(seed=0, vocab=20, e=8, h=6):
    return AbstractorModel(vocab, e, h, np.random.default_rng(seed))


def decoding(beam_width, repetition_penalty, max_output_tokens):
    return RunConfig(
        beam_width=beam_width, repetition_penalty=repetition_penalty, max_output_tokens=max_output_tokens
    )


def random_ids(rng, length, vocab=20):
    return [int(rng.integers(4, vocab)) for _ in range(length)]


def reference_score(model, src_ids, tokens, finished, decode):
    """Recompute a hypothesis's penalized score by replaying its steps."""
    keys, init = model.encode(src_ids)
    state = abstractor_initial_state(init)
    seen = set()
    score = 0.0
    emitted = list(tokens) + ([END_ID] if finished else [])
    prev = START_ID
    for token in emitted:
        logits, state = abstractor_step(model, keys, prev, state)
        shifted = logits.data - logits.data.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        score += float(logp[token])
        if token in seen:
            score -= math.log(decode.repetition_penalty)
        if token != END_ID:
            seen.add(token)
        prev = token
    return score


# ---------------------------------------------------------------- encoding


def test_encode_shapes():
    model = small_model(h=6)
    keys, init = model.encode([4, 5, 6, 7])
    assert keys.shape == (4, 12)
    assert init.shape == (12,)


def test_empty_input_rejected():
    model = small_model()
    with pytest.raises(ValueError):
        model.encode([])
    with pytest.raises(ValueError):
        model.paraphrase([], RunConfig())


# ---------------------------------------------------------------- loss


def test_initial_loss_near_log_vocab():
    losses = []
    for seed in range(8):
        model = small_model(seed=seed, vocab=50)
        rng = np.random.default_rng(seed + 100)
        loss = model.teacher_forced_loss(random_ids(rng, 5, 50), random_ids(rng, 4, 50))
        losses.append(float(loss.data))
    assert np.mean(losses) == pytest.approx(math.log(50), rel=0.05)


def test_loss_counts_end_marker():
    model = small_model()
    keys_loss = model.teacher_forced_loss([4, 5], [6])
    # Two forced steps: the target token and the end marker.
    logits = percell_forced_logits(model, [4, 5], [6])
    assert len(logits) == 2
    expected = np.mean(
        [float(cross_entropy(logits[0], 6).data), float(cross_entropy(logits[1], END_ID).data)]
    )
    assert float(keys_loss.data) == pytest.approx(expected, rel=1e-12)


def test_loss_gradients_flow_to_all_params():
    model = small_model()
    loss = model.teacher_forced_loss([4, 5, 6], [7, 8])
    ad.backward(loss)
    for name, p in model.params.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


# ---------------------------------------------------------------- decoding


@st.composite
def tied_rows(draw):
    """A row with repeated values and -inf entries, and a width up to V + 2."""
    tied = st.sampled_from([-np.inf, -2.5, -1.0, 0.0, 0.75, 3.0])
    values = draw(st.lists(tied | st.floats(-5.0, 5.0), min_size=1, max_size=60))
    return np.array(values), draw(st.integers(1, len(values) + 2))


@settings(max_examples=300, deadline=None)
@given(tied_rows())
def test_top_is_a_stable_descending_sort_and_argmax_at_width_one(case):
    row, width = case
    assert np.array_equal(_top(row, width), np.argsort(-row, kind="stable")[:width])
    assert np.array_equal(_top(row, 1), [np.argmax(row)])


def tied_model(seed):
    """Tokens 6 and 9 share their output row and bias, so their logits tie
    exactly at every step; weights are scaled up so decoding is not flat."""
    model = AbstractorModel(12, 4, 3, np.random.default_rng(seed))
    for p in model.params.values():
        p.data *= 4.0
    for name in ("out_w", "out_b"):
        model.params[name].data[9] = model.params[name].data[6]
    return model


def test_beam_one_no_penalty_matches_manual_greedy():
    cases = [(small_model(seed=seed), random_ids(np.random.default_rng(seed), 4)) for seed in range(5)]
    cases += [(tied_model(seed), random_ids(np.random.default_rng(seed), 4, 12)) for seed in range(40)]
    for model, src in cases:
        cfg = decoding(1, 1.0, 8)
        got = model.paraphrase(src, cfg)

        keys, init = model.encode(src)
        state = abstractor_initial_state(init)
        manual = []
        prev = START_ID
        for _ in range(8):
            logits, state = abstractor_step(model, keys, prev, state)
            masked = logits.data.copy()
            masked[[PAD_ID, UNK_ID, START_ID]] = -np.inf
            token = int(np.argmax(masked))
            if token == END_ID:
                break
            manual.append(token)
            prev = token
        assert got == manual


def test_beam_never_scores_below_greedy():
    for seed in range(12):
        model = small_model(seed=seed)
        rng = np.random.default_rng(seed)
        src = random_ids(rng, 5)
        for penalty in (1.0, 2.0):
            greedy_cfg = decoding(1, penalty, 10)
            _, greedy_score, _ = model.paraphrase_scored(src, greedy_cfg)
            for width in (2, 3):
                cfg = decoding(width, penalty, 10)
                _, score, _ = model.paraphrase_scored(src, cfg)
                assert score >= greedy_score - 1e-12


def test_reported_score_matches_replay():
    for seed in range(6):
        model = small_model(seed=seed)
        rng = np.random.default_rng(seed + 7)
        src = random_ids(rng, 4)
        cfg = decoding(2, 2.0, 8)
        tokens, score, finished = model.paraphrase_scored(src, cfg)
        assert score == pytest.approx(reference_score(model, src, tokens, finished, cfg), abs=1e-9)


def test_outputs_never_contain_reserved_control_tokens():
    for seed in range(6):
        model = small_model(seed=seed)
        rng = np.random.default_rng(seed)
        src = random_ids(rng, 4)
        out = model.paraphrase(src, decoding(2, 2.0, 12))
        assert PAD_ID not in out
        assert START_ID not in out
        assert END_ID not in out


def test_unk_never_emitted_even_with_the_largest_logit():
    model = small_model()
    model.params["out_b"].data[UNK_ID] = 50.0
    model.params["out_b"].data[END_ID] = -50.0
    for width in (1, 2):
        tokens = model.paraphrase([4, 5, 6], decoding(width, 2.0, 8))
        assert len(tokens) == 8 and UNK_ID not in tokens


def test_forced_end_yields_empty_output():
    model = small_model()
    model.params["out_b"].data[:] = 0.0
    model.params["out_b"].data[END_ID] = 50.0
    tokens, _, finished = model.paraphrase_scored([4, 5, 6], decoding(2, 2.0, 10))
    assert tokens == []
    assert finished


def test_suppressed_end_hits_length_cap():
    model = small_model()
    model.params["out_b"].data[END_ID] = -50.0
    tokens, _, finished = model.paraphrase_scored([4, 5, 6], decoding(2, 2.0, 7))
    assert len(tokens) == 7
    assert not finished


def test_penalty_reduces_immediate_repeats():
    plain = penalized = 0
    for seed in range(10):
        model = small_model(seed=seed, vocab=12)
        rng = np.random.default_rng(seed)
        src = random_ids(rng, 4, 12)
        out1 = model.paraphrase(src, decoding(1, 1.0, 20))
        out2 = model.paraphrase(src, decoding(1, 2.0, 20))
        plain += sum(a == b for a, b in zip(out1, out1[1:]))
        penalized += sum(a == b for a, b in zip(out2, out2[1:]))
    assert plain > 0  # random models loop without the penalty
    assert penalized < plain


def test_adjusted_logp_penalizes_only_present_tokens():
    from narrsum.abstractor import _Hypothesis

    model = small_model()
    keys, init = model.encode([4, 5])
    logits, _ = abstractor_step(model, keys, START_ID, abstractor_initial_state(init))
    logits = logits.data
    hyp = _Hypothesis([6, 8], frozenset({6, 8}), 0.0, None, False)
    cfg = decoding(2, 2.0, 5)
    base = model._adjusted_logp(logits, _Hypothesis([], frozenset(), 0.0, None, False), cfg)
    adjusted = model._adjusted_logp(logits, hyp, cfg)
    assert adjusted[PAD_ID] == adjusted[UNK_ID] == adjusted[START_ID] == -np.inf
    for tok in range(model.vocab_size):
        if tok in (PAD_ID, UNK_ID, START_ID):
            continue
        expected = base[tok] - (math.log(2.0) if tok in (6, 8) else 0.0)
        assert adjusted[tok] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- fused ops against the per-step graph


@st.composite
def ragged_pairs(draw):
    vocab = draw(st.integers(5, 12))
    src = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=15))
    tgt = draw(st.lists(st.integers(0, vocab - 1), min_size=0, max_size=15))
    e, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return vocab, e, h, src, tgt, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(ragged_pairs())
def test_fused_loss_and_gradients_match_per_step_graph(case):
    vocab, e, h, src, tgt, seed = case
    model = AbstractorModel(vocab, e, h, np.random.default_rng(seed))
    for p in model.params.values():
        p.data *= 8.0  # saturate gates and attention, away from the linear regime
    params = list(model.params.values())
    fused = model.teacher_forced_loss(src, tgt)
    ad.backward(fused)
    fused_grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    reference = percell_teacher_forced_loss(model, src, tgt)
    ad.backward(reference)
    assert abs(float(fused.data) - float(reference.data)) < 1e-10
    for name, got, p in zip(model.params, fused_grads, params):
        assert np.abs(got - p.grad).max() < 1e-10, name


def test_decoding_matches_per_step_graph_exactly():
    for seed in range(12):
        rng = np.random.default_rng(seed + 40)
        vocab = int(rng.integers(8, 16))
        model = AbstractorModel(vocab, int(rng.integers(2, 7)), int(rng.integers(2, 6)), rng)
        for p in model.params.values():
            p.data *= 4.0
        src = random_ids(rng, int(rng.integers(1, 8)), vocab)
        for width in (1, 2, 3):
            for penalty in (1.0, 2.0):
                cfg = decoding(width, penalty, 12)
                assert model.paraphrase_scored(src, cfg) == percell_paraphrase_scored(model, src, cfg)


@pytest.mark.parametrize("gain", [1.0, 4.0])  # 4.0 saturates most gates and attention units
def test_decode_step_states_equal_the_teacher_forced_rows(gain):
    for seed in range(25):
        rng = np.random.default_rng(seed + 70)
        vocab = int(rng.integers(8, 16))
        model = AbstractorModel(vocab, int(rng.integers(2, 7)), int(rng.integers(2, 6)), rng)
        for p in model.params.values():
            p.data *= gain
        p = model.params
        src = random_ids(rng, int(rng.integers(1, 8)), vocab)
        inputs = [START_ID] + random_ids(rng, int(rng.integers(0, 8)), vocab)
        keys, init = model.encode(src)
        rows = ad.attention_decoder(
            ad.embedding_lookup(p["embed"], inputs), keys, init,
            p["dec_w"], p["dec_b"], p["att_wq"], p["att_wk"], p["att_v"],
        ).data
        source = (keys.data, keys.data @ p["att_wk"].data)
        zeros = np.zeros(2 * model.hidden_dim)
        state = (init.data, zeros, zeros)
        for token, row in zip(inputs, rows):
            _, state = model._decode_step(source, token, state)
            h, _, context = state
            assert np.array_equal(np.concatenate([h, context]), row)


def test_teacher_forced_accuracy_counts_argmax_hits():
    model = small_model(seed=3)
    pairs = [([4, 5, 6], [7, 8]), ([9], [])]
    hits = total = 0
    for src, tgt in pairs:
        for logits, target in zip(percell_forced_logits(model, src, tgt), list(tgt) + [END_ID]):
            hits += int(np.argmax(logits.data) == target)
            total += 1
    assert teacher_forced_accuracy(model, pairs) == hits / total


# ---------------------------------------------------------------- training


def copy_task_pairs(rng, n_pairs, vocab, min_len=3, max_len=4):
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        seq = tuple(random_ids(rng, int(rng.integers(min_len, max_len + 1)), vocab))
        if seq in seen:
            continue
        seen.add(seq)
        pairs.append((list(seq), list(seq)))
    return pairs


def test_overfits_copy_task_and_beam_reproduces_input():
    vocab = 12
    rng = np.random.default_rng(1)
    pairs = copy_task_pairs(rng, 6, vocab)
    model = AbstractorModel(vocab, 16, 16, np.random.default_rng(0))
    fit(
        model.params, model.teacher_forced_loss,
        pairs,
        RunConfig(lr=0.01, batch_size=3),
        epochs=60,
        rng=np.random.default_rng(2),
    )
    assert teacher_forced_accuracy(model, pairs) >= 0.99
    hits = sum(model.paraphrase(src, decoding(2, 2.0, 10)) == src for src, _ in pairs)
    assert hits >= len(pairs) - 1


def test_training_loss_decreases():
    vocab = 12
    rng = np.random.default_rng(3)
    pairs = copy_task_pairs(rng, 4, vocab)
    model = AbstractorModel(vocab, 12, 10, np.random.default_rng(0))
    train_log = fit(
        model.params, model.teacher_forced_loss, pairs, RunConfig(lr=0.01, batch_size=2),
        epochs=40, rng=np.random.default_rng(4)
    )
    assert train_log.epoch_losses[-1] < 0.25 * train_log.epoch_losses[0]


def test_training_is_deterministic():
    def run():
        rng = np.random.default_rng(5)
        pairs = copy_task_pairs(rng, 3, 10)
        model = AbstractorModel(10, 8, 6, np.random.default_rng(1))
        train_log = fit(
            model.params, model.teacher_forced_loss, pairs, RunConfig(lr=0.01, batch_size=2),
            epochs=4, rng=np.random.default_rng(6)
        )
        return train_log.epoch_losses, {k: v.data.copy() for k, v in model.params.items()}

    losses_a, params_a = run()
    losses_b, params_b = run()
    assert losses_a == losses_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


def test_periodic_saves_counted():
    rng = np.random.default_rng(7)
    pairs = copy_task_pairs(rng, 5, 10)
    model = AbstractorModel(10, 8, 6, np.random.default_rng(1))
    calls = []
    train_log = fit(
        model.params, model.teacher_forced_loss,
        pairs,
        RunConfig(batch_size=2, checkpoint_every_batches=2),
        epochs=2,
        rng=np.random.default_rng(8),
        periodic_save=lambda: calls.append(1),
    )
    # 3 batches per epoch, 2 epochs, save every 2 batches.
    assert train_log.batches_seen == 6
    assert train_log.periodic_saves == len(calls) == 3


def test_empty_pair_list_rejected():
    model = small_model()
    with pytest.raises(ValueError):
        fit(model.params, model.teacher_forced_loss, [], RunConfig(), epochs=1, rng=np.random.default_rng(0))


def test_validation_pairs_watched_for_plateau():
    rng = np.random.default_rng(9)
    pairs = copy_task_pairs(rng, 3, 10)
    model = AbstractorModel(10, 8, 6, np.random.default_rng(1))
    train_log = fit(
        model.params, model.teacher_forced_loss,
        pairs,
        RunConfig(lr=0.01, batch_size=2),
        epochs=3,
        rng=np.random.default_rng(10),
        validation=pairs[:1],
    )
    assert len(train_log.validation_losses) == 3
    assert all(np.isfinite(v) for v in train_log.validation_losses)


# ---------------------------------------------------------------- data prep


def test_prepare_abstractor_pairs():
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + ["profit", "rose", "fell", "sharply"])
    report = Document(
        id="r1",
        sentences=[("profit", "rose"), ("profit", "fell", "sharply")],
        summaries=[[("profit", "rose", "sharply")]],
    )
    alignment = OracleAlignment("r1", 0, [(0, 1, 0.5)], [1])
    pairs = prepare_abstractor_pairs([report], [alignment], vocab)
    assert pairs == [
        (vocab.encode(["profit", "fell", "sharply"]), vocab.encode(["profit", "rose", "sharply"]))
    ]


def test_prepare_skips_unknown_report_and_empty_target(caplog):
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + ["a", "b"])
    reports = [Document(id="r1", sentences=[("a", "b")], summaries=[[()]])]
    alignments = [
        OracleAlignment("ghost", 0, [(0, 0, 1.0)], [0]),
        OracleAlignment("r1", 0, [(0, 0, 0.0)], [0]),
    ]
    with caplog.at_level(logging.WARNING):
        pairs = prepare_abstractor_pairs(reports, alignments, vocab)
    assert pairs == []
    assert "unknown report" in caplog.text
    assert "empty target" in caplog.text


# ---------------------------------------------------------------- persistence


def test_checkpoint_round_trip(tmp_path):
    model = small_model(seed=3)
    path = tmp_path / "abstractor.ckpt"
    model.save(path, vocab=["<pad>", "<unk>", "<s>", "</s>"])
    loaded, vocab = AbstractorModel.load(path)
    assert vocab == ["<pad>", "<unk>", "<s>", "</s>"]
    for name, p in model.params.items():
        assert np.array_equal(p.data, loaded.params[name].data)
    src = [4, 5, 6]
    assert model.paraphrase(src, RunConfig()) == loaded.paraphrase(src, RunConfig())


def test_checkpoint_kind_guard(tmp_path):
    wrong = ExtractorModel(10, 8, 6, np.random.default_rng(0))
    path = tmp_path / "extractor.ckpt"
    wrong.save(path)
    with pytest.raises(ValueError, match="not an abstractor"):
        AbstractorModel.load(path)


def test_checkpoint_missing_parameter_refused(tmp_path):
    path = tmp_path / "abstractor.ckpt"
    small_model(seed=4).save(path)
    arrays, cfg, vocab = ad.load_checkpoint(path)
    del arrays["out_w"]
    ad.save_checkpoint(path, arrays, cfg, vocab)
    with pytest.raises(ValueError, match=r"missing \['out_w'\]"):
        AbstractorModel.load(path)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_checkpoint_non_finite_parameter_refused(tmp_path, bad):
    path = tmp_path / "abstractor.ckpt"
    small_model(seed=4).save(path)
    arrays, cfg, vocab = ad.load_checkpoint(path)
    arrays["out_b"] = arrays["out_b"].copy()
    arrays["out_b"][5] = bad
    ad.save_checkpoint(path, arrays, cfg, vocab)
    with pytest.raises(ValueError, match="non-finite values in 'out_b'"):
        AbstractorModel.load(path)
