"""Pointer-extractor tests: encoding shapes, masking, training, persistence."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrsum import autodiff as ad
from narrsum.config import RunConfig
from narrsum.corpus import DataError, Document, Vocab, RESERVED_TOKENS, read_jsonl
from narrsum.extractor import (
    Extraction,
    ExtractorModel,
    example_loss,
    pointer_chooser,
    prepare_extractor_examples,
    save_extractions,
)
from narrsum.oracle import OracleAlignment
from narrsum.training import fit
from percell import add, const, cross_entropy, dot, percell_extractor_encode, percell_pointer_loss, pointer_step_scores


def extraction_from_record(record: dict) -> Extraction:
    return Extraction(
        record["report_id"],
        [int(i) for i in record["indices"]],
        [float(p) for p in record["log_probs"]],
    )


def load_extractions(path) -> list[Extraction]:
    return read_jsonl(path, extraction_from_record)


def stop_first(model: ExtractorModel) -> ExtractorModel:
    """`model` with the stop sentinel projected onto 20 * sign(att_v), so
    its first-step score is the largest and the pointer stops at once."""
    p = model.params
    p["stop_key"].data[:] = np.linalg.lstsq(p["att_wk"].data.T, 20.0 * np.sign(p["att_v"].data), rcond=None)[0]
    return model


# The published step cap, longer than every document here but the step-cap test's.
MAX_STEPS = RunConfig().max_extract_sentences


def small_model(seed=0, vocab=30, e=8, h=6):
    return ExtractorModel(vocab, e, h, np.random.default_rng(seed))


def random_doc(rng, n_sentences, vocab=30, max_len=5):
    return [
        [int(rng.integers(4, vocab)) for _ in range(int(rng.integers(1, max_len + 1)))]
        for _ in range(n_sentences)
    ]


# ---------------------------------------------------------------- encoding


def test_encode_shapes():
    model = small_model()
    keys = model.encode([[4, 5, 6]])
    assert keys.shape == (2, 12)  # one sentence + stop sentinel
    keys = model.encode([[4], [5, 6], [7, 8, 9]])
    assert keys.shape == (4, 12)


def test_encode_matches_per_cell_reference():
    rng = np.random.default_rng(13)
    model = small_model(seed=13)
    ids_lists = [[int(i) for i in rng.integers(0, 20, size=k)] for k in (3, 1, 6, 2, 6)]
    weights = rng.normal(size=(len(ids_lists) + 1, 12))
    results = []
    for encode in (model.encode, lambda ids: percell_extractor_encode(model, ids)):
        ad.zero_grads(model.params.values())
        keys = encode(ids_lists)
        ad.backward(dot(ad.reshape(keys, (keys.data.size,)), const(weights.ravel())))
        results.append((keys.data, {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}))
    (keys, grads), (ref_keys, ref_grads) = results
    assert np.abs(keys - ref_keys).max() < 1e-10
    assert sorted(grads) == sorted(ref_grads) and "word_f_w" in grads
    for name, grad in grads.items():
        assert np.abs(grad - ref_grads[name]).max() < 1e-10, name


def test_encode_rejects_empty():
    model = small_model()
    with pytest.raises(ValueError):
        model.encode([])
    with pytest.raises(ValueError):
        model.encode([[4], []])


def test_sentence_order_changes_representations():
    model = small_model(seed=3)
    a = model.encode([[4, 5], [6, 7]]).data
    b = model.encode([[6, 7], [4, 5]]).data
    # Same sentences, swapped order: the contextual pass must differ.
    assert not np.allclose(a[0], b[1])


# ---------------------------------------------------------------- extraction


def test_extract_single_sentence_doc():
    model = small_model(seed=1)
    ex = model.extract("r", [[4, 5, 6]], MAX_STEPS)
    assert set(ex.indices) <= {0}
    assert len(ex.indices) <= 1


def test_extract_no_duplicates_over_random_models():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        model = small_model(seed=seed, vocab=20, e=5, h=4)
        doc = random_doc(rng, int(rng.integers(1, 7)), vocab=20)
        if seed % 2 == 0:
            ex = model.extract("r", doc, MAX_STEPS)
            indices, log_probs = ex.indices, ex.step_log_probs
        else:
            steps = model.decode(model.encode(doc).data, len(doc), pointer_chooser("sample", rng), MAX_STEPS)
            indices = [s.action for s in steps if s.action != len(doc)]
            log_probs = [float(np.log(s.probs[s.action])) for s in steps]
        assert len(indices) == len(set(indices))
        assert all(0 <= i < len(doc) for i in indices)
        assert all(np.isfinite(p) and p <= 0.0 for p in log_probs)
        if log_probs:
            assert len(log_probs) in (len(indices), len(indices) + 1)
        else:  # the fallback of a greedy pointer that stops at once
            assert len(indices) == 1


def test_extract_respects_step_cap():
    model = small_model(seed=2, vocab=12, e=4, h=3)
    rng = np.random.default_rng(0)
    doc = random_doc(rng, 200, vocab=12, max_len=3)
    ex = model.extract("r", doc, MAX_STEPS)
    assert len(ex.indices) <= 80


def test_pointer_chooser_modes_validate():
    with pytest.raises(ValueError):
        pointer_chooser("beam", np.random.default_rng(0))
    with pytest.raises(ValueError):
        pointer_chooser("sample", None)  # rng required


def test_extract_fallback_is_a_real_sentence():
    model = stop_first(small_model(seed=5))
    doc = [[4, 5], [6], [7, 8]]
    (first,) = model.decode(model.encode(doc).data, len(doc), pointer_chooser("greedy", None), 1)
    assert first.action == len(doc)
    ex = model.extract("r", doc, MAX_STEPS)
    assert ex.step_log_probs == []
    assert len(ex.indices) == 1 and 0 <= ex.indices[0] < len(doc)


# ---------------------------------------------------------------- the fused pointer


@st.composite
def pointer_paths(draw):
    """A document of 1-12 sentences and an action path over it that ends in
    stop, in exhaustion (every sentence chosen) or at a step cap."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(list(range(n))))
    ending = draw(st.sampled_from(["stop", "exhaustion", "cap"]))
    if ending == "stop":
        actions = order[: draw(st.integers(0, n - 1))] + [n]
    elif ending == "exhaustion":
        actions = order + draw(st.sampled_from([[], [n]]))  # a stop after the last sentence is never reached
    else:
        actions = order[: draw(st.integers(1, n))]
    return n, actions, draw(st.integers(0, 2**32 - 1))


def _pointer_loss_and_grads(model, build_loss):
    ad.zero_grads(model.params.values())
    loss = build_loss()
    ad.backward(loss)
    return float(loss.data), {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}


@settings(max_examples=60, deadline=None)
@given(pointer_paths())
def test_fused_pointer_matches_per_step_graph(case):
    n, actions, seed = case
    rng = np.random.default_rng(seed)
    model = ExtractorModel(20, 5, 3, rng)
    for p in model.params.values():  # saturate some gates and scores
        p.data *= rng.uniform(1.0, 8.0)
    ids_lists = random_doc(rng, n, vocab=20)
    rows = model.forced_scores(ids_lists, actions)
    reference = pointer_step_scores(model, model.encode(ids_lists), actions)
    steps = min(len(actions), n, actions.index(n) + 1 if n in actions else n)  # stop, exhaustion or cap
    assert rows.shape == (steps, n + 1)
    assert np.array_equal(rows.data, np.stack([r.data for r in reference]))

    def fused():
        rows = model.forced_scores(ids_lists, actions)
        return ad.mean_cross_entropy(rows, actions[: rows.shape[0]])

    def per_step():
        rows = pointer_step_scores(model, model.encode(ids_lists), actions)
        total = cross_entropy(rows[0], actions[0])
        for row, action in zip(rows[1:], actions[1:]):
            total = add(total, cross_entropy(row, action))
        return ad.scale(total, 1.0 / len(rows))

    loss, grads = _pointer_loss_and_grads(model, fused)
    ref_loss, ref_grads = _pointer_loss_and_grads(model, per_step)
    assert abs(loss - ref_loss) < 1e-10
    assert sorted(grads) == sorted(ref_grads) == sorted(model.params)
    for name, grad in grads.items():
        assert np.abs(grad - ref_grads[name]).max() < 1e-10, name


def test_teacher_forced_loss_equals_per_step_graph_exactly():
    rng = np.random.default_rng(17)
    model = small_model(seed=17)
    ids_lists = random_doc(rng, 6)
    loss, grads = _pointer_loss_and_grads(model, lambda: model.teacher_forced_loss(ids_lists, [4, 1, 2]))
    ref_loss, ref_grads = _pointer_loss_and_grads(model, lambda: percell_pointer_loss(model, ids_lists, [4, 1, 2]))
    assert loss == ref_loss
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name


def test_decode_probabilities_equal_the_fused_forward_pass():
    rng = np.random.default_rng(23)
    model = small_model(seed=23)
    ids_lists = random_doc(rng, 9)
    keys = model.encode(ids_lists).data
    draws = np.random.default_rng(24)
    steps = model.decode(keys, 9, lambda probs, _t: int(draws.choice(len(probs), p=probs)), max_steps=12)
    rows = model.forced_scores(ids_lists, [s.action for s in steps]).data
    assert len(rows) == len(steps)
    for row, step in zip(rows, steps):
        e = np.exp(row - row.max())
        assert np.array_equal(e / e.sum(), step.probs)


def test_decode_builds_no_graph_and_checks_the_sentence_count():
    model = small_model()
    keys = model.encode([[4, 5], [6]]).data
    steps = model.decode(keys, 2, lambda probs, _t: int(np.argmax(probs)), MAX_STEPS)
    assert all(isinstance(s.state, np.ndarray) and isinstance(s.probs, np.ndarray) for s in steps)
    with pytest.raises(ValueError, match="3 keys for 3 sentences"):
        model.decode(keys, 3, lambda probs, _t: 0, MAX_STEPS)


def test_pointer_decoder_rejects_an_action_outside_the_candidates():
    model = small_model()
    with pytest.raises(ad.ShapeError, match="action 3 of 3"):
        model.forced_scores([[4, 5], [6]], [0, 3])


# ---------------------------------------------------------------- training


def test_initial_loss_near_uniform():
    rng = np.random.default_rng(3)
    losses = []
    for seed in range(10):
        model = small_model(seed=seed, vocab=40, e=8, h=8)
        doc = random_doc(rng, 5, vocab=40)
        losses.append(float(model.teacher_forced_loss(doc, [0, 2]).data))
    # Masking shrinks the choice set by one per step: 6, then 5, then 4.
    expected = np.mean([np.log(6), np.log(5), np.log(4)])
    assert np.mean(losses) == pytest.approx(expected, rel=0.05)


def test_overfit_single_report():
    model = small_model(seed=11, vocab=20, e=8, h=6)
    doc = [[4, 5, 6], [7, 8], [9, 10, 11], [12]]
    data = [("r", doc, [0])]
    fit(
        model.params, example_loss(model), data,
        RunConfig(lr=0.01, batch_size=1, checkpoint_every_batches=0), epochs=50, rng=np.random.default_rng(0),
    )
    ex = model.extract("r", doc, MAX_STEPS)
    assert ex.indices == [0]


def test_training_loss_drops_sharply():
    rng = np.random.default_rng(21)
    docs = [random_doc(rng, 6, vocab=25) for _ in range(5)]
    data = [(f"r{k}", doc, sorted(rng.choice(6, size=2, replace=False).tolist())) for k, doc in enumerate(docs)]
    model = small_model(seed=13, vocab=25, e=10, h=8)
    train_log = fit(
        model.params, example_loss(model), data,
        RunConfig(lr=0.01, batch_size=3, checkpoint_every_batches=0), epochs=60, rng=np.random.default_rng(1),
    )
    assert train_log.epoch_losses[-1] <= 0.10 * train_log.epoch_losses[0]


def test_training_is_deterministic():
    def run():
        rng = np.random.default_rng(5)
        docs = [random_doc(rng, 4, vocab=20) for _ in range(3)]
        data = [(f"r{k}", d, [k % 4]) for k, d in enumerate(docs)]
        model = small_model(seed=17, vocab=20, e=6, h=5)
        train_log = fit(
            model.params, example_loss(model), data,
            RunConfig(lr=0.005, batch_size=2, checkpoint_every_batches=0), epochs=3, rng=np.random.default_rng(2),
        )
        return train_log.epoch_losses

    assert run() == run()


def test_periodic_checkpoints_counted(tmp_path):
    rng = np.random.default_rng(31)
    docs = [random_doc(rng, 3, vocab=20) for _ in range(4)]
    data = [(f"r{k}", d, [0]) for k, d in enumerate(docs)]
    model = small_model(seed=19, vocab=20, e=5, h=4)
    saves = []
    train_log = fit(
        model.params, example_loss(model), data,
        RunConfig(batch_size=1, checkpoint_every_batches=2), epochs=1, rng=np.random.default_rng(3),
        periodic_save=lambda: saves.append(model.save(tmp_path / "periodic.ckpt")),
    )
    assert train_log.periodic_saves == 2
    assert len(saves) == 2
    assert (tmp_path / "periodic.ckpt").exists()


def test_lr_halves_on_plateau():
    doc = [[4, 5], [6, 7]]
    # Conflicting targets on the same document put a floor under the loss,
    # so validation stops improving and the schedule must fire.
    data = [("a", doc, [0]), ("b", doc, [1])]
    model = small_model(seed=23, vocab=20, e=5, h=4)
    train_log = fit(
        model.params, example_loss(model), data,
        RunConfig(lr=0.05, batch_size=2, checkpoint_every_batches=0), epochs=15, rng=np.random.default_rng(4),
        validation=data,
    )
    assert train_log.lr_history[-1] < 0.05


def test_halve_on_plateau_rule():
    from narrsum.training import HalveOnPlateau

    opt = ad.Adam({"x": ad.param(0.0)}, lr=1.0, clip_norm=1.0)
    schedule = HalveOnPlateau(opt, 0.5)
    assert not schedule.epoch_end(2.0)
    assert not schedule.epoch_end(1.5)
    assert schedule.epoch_end(1.5)  # equal is not an improvement
    assert opt.lr == 0.5
    assert not schedule.epoch_end(1.0)
    assert opt.lr == 0.5


def test_train_requires_data():
    model = small_model()
    with pytest.raises(ValueError):
        fit(model.params, example_loss(model), [], RunConfig(), epochs=1, rng=np.random.default_rng(0))


# ---------------------------------------------------------------- data prep


def _vocab():
    return Vocab.from_list(list(RESERVED_TOKENS) + ["alpha", "beta", "gamma"])


def test_prepare_examples_joins_and_skips(caplog):
    sents = [("alpha", "beta"), ("gamma",)]
    examples = [Document("r1", sents, []), Document("r2", sents[:1], [])]
    alignments = [
        OracleAlignment("r1", 0, [(0, 1, 1.0)], [1]),
        OracleAlignment("r2", 0, [], []),
        OracleAlignment("ghost", 0, [(0, 0, 1.0)], [0]),
    ]
    with caplog.at_level(logging.WARNING):
        prepared = prepare_extractor_examples(examples, alignments, _vocab())
    assert len(prepared) == 1
    rid, ids, targets = prepared[0]
    assert rid == "r1" and targets == [1]
    assert ids == [[4, 5], [6]]
    assert any("ghost" in r.message for r in caplog.records)
    assert any("empty extraction targets" in r.message for r in caplog.records)


# ---------------------------------------------------------------- persistence


def test_checkpoint_round_trip(tmp_path):
    model = small_model(seed=29)
    doc = [[4, 5, 6], [7, 8]]
    before = model.extract("r", doc, MAX_STEPS)
    path = tmp_path / "extractor.ckpt"
    model.save(path, vocab=list(RESERVED_TOKENS))
    loaded, vocab = ExtractorModel.load(path)
    assert vocab == list(RESERVED_TOKENS)
    after = loaded.extract("r", doc, MAX_STEPS)
    assert before == after
    for name, p in model.params.items():
        assert np.array_equal(p.data, loaded.params[name].data)


def test_checkpoint_kind_checked(tmp_path):
    path = tmp_path / "other.ckpt"
    ad.save_checkpoint(path, {"w": ad.param(np.ones(3))}, {"kind": "abstractor"})
    with pytest.raises(ValueError):
        ExtractorModel.load(path)


def test_checkpoint_missing_parameter_refused(tmp_path):
    path = tmp_path / "extractor.ckpt"
    small_model(seed=5).save(path)
    arrays, cfg, vocab = ad.load_checkpoint(path)
    del arrays["dec_w"]
    ad.save_checkpoint(path, arrays, cfg, vocab)
    with pytest.raises(ValueError, match=r"missing \['dec_w'\]"):
        ExtractorModel.load(path)


def test_extraction_jsonl_round_trip(tmp_path):
    items = [
        Extraction("r1", [0, 2], [-0.1, -0.5, -0.01]),
        Extraction("r2", [], [-0.7]),
    ]
    path = tmp_path / "extractions.jsonl"
    save_extractions(items, path)
    assert load_extractions(path) == items
    first = path.read_bytes()
    save_extractions(items, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("bad_line", [b"{not json", b'{"report_id": "r2"}', b'{"report_id": "r\xff2"}'],
                         ids=["not-json", "missing-field", "not-utf8"])
def test_load_extractions_names_file_and_line_of_a_malformed_record(tmp_path, bad_line):
    path = tmp_path / "extractions.jsonl"
    save_extractions([Extraction("r1", [0], [-0.1, -0.2])], path)
    path.write_bytes(path.read_bytes() + bad_line + b"\n")
    with pytest.raises(DataError, match=r"extractions\.jsonl line 2: malformed record"):
        load_extractions(path)
