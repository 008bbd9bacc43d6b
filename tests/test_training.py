"""The shared training loop: golden values recorded from the per-model loops it replaced.

Every golden value below was produced by the separate extractor and
abstractor training loops, and by the RL fine-tune's own gradient step, that
`fit` and `accumulate_gradients` replaced. Equality is exact: the refactor
kept the batch order, the arithmetic and the RNG draws. The last tests pin
the gradient arrays that `Adam.zero_grad` hands back for reuse.
"""

import hashlib

import numpy as np

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.config import RunConfig
from narrsum.corpus import RESERVED_TOKENS, Document, Vocab
from narrsum.extractor import ExtractorModel, example_loss
from narrsum.oracle import OracleAlignment
from narrsum.rl import Critic, train_rl
from narrsum.training import fit


def params_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def extractor_examples(rng, n):
    docs = [[[int(rng.integers(4, 20)) for _ in range(int(rng.integers(1, 5)))] for _ in range(4)] for _ in range(n)]
    return [(f"r{k}", doc, sorted(rng.choice(4, size=2, replace=False).tolist())) for k, doc in enumerate(docs)]


def abstractor_pairs(rng, n):
    pairs = []
    for _ in range(n):
        ids = [int(i) for i in rng.integers(4, 14, size=int(rng.integers(2, 6)))]
        pairs.append((ids, ids[::-1]))
    return pairs


def golden_fit(params, loss, items, validation, seed):
    """5 items in batches of 2 for 3 epochs, a plateau decay of 0.5, a save
    every 2 batches, validation data and a frozen embedding."""
    saves = []
    train_log = fit(
        params, loss, items,
        RunConfig(lr=0.05, lr_decay=0.5, clip_norm=1.0, batch_size=2, checkpoint_every_batches=2),
        epochs=3, rng=np.random.default_rng(seed), validation=validation,
        periodic_save=lambda: saves.append(1), frozen_params=("embed",),
    )
    assert len(saves) == train_log.periodic_saves
    return train_log


def test_fit_extractor_golden_values():
    data = extractor_examples(np.random.default_rng(100), 7)
    model = ExtractorModel(20, 6, 5, np.random.default_rng(101))
    train_log = golden_fit(model.params, example_loss(model), data[:5], data[5:], 102)
    assert train_log.epoch_losses == [1.3637813428515353, 1.3491715371158146, 1.3420237063614968]
    assert train_log.validation_losses == [1.3579078508419888, 1.361653775306336, 1.3444149320683323]
    assert train_log.lr_history == [0.05, 0.05, 0.025]
    assert (train_log.batches_seen, train_log.periodic_saves) == (9, 4)
    assert params_digest(model.params) == "45e5f00676103db80bae43d7782f9b2986633a849e9c7cc5d6af012c089d4d49"


def test_fit_abstractor_golden_values():
    pairs = abstractor_pairs(np.random.default_rng(200), 7)
    model = AbstractorModel(14, 6, 5, np.random.default_rng(201))
    train_log = golden_fit(model.params, model.teacher_forced_loss, pairs[:5], pairs[5:], 202)
    assert train_log.epoch_losses == [2.6193446729362564, 2.338804537204723, 2.147563030111119]
    assert train_log.validation_losses == [2.4969262146462006, 2.3006569260121026, 2.432962846237208]
    assert train_log.lr_history == [0.05, 0.05, 0.05]
    assert (train_log.batches_seen, train_log.periodic_saves) == (9, 4)
    assert params_digest(model.params) == "16940798c3b132c9b5a7bfb55d6f9f32eff6c8bb25cec50f470d797d8e24b36f"


def test_rl_abstractor_fine_tune_golden_digest():
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + words)
    sentences = [("alpha", "beta", "gamma"), ("delta", "epsilon"), ("zeta", "eta", "theta"), ("iota", "kappa")]
    report = Document("r1", sentences, [[sentences[0], sentences[2]]])
    alignment = OracleAlignment("r1", 0, [(0, 0, 1.0), (1, 2, 1.0)], [0, 2])
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(301))
    abstractor = AbstractorModel(14, 8, 6, np.random.default_rng(302))
    critic = Critic(6, np.random.default_rng(303))
    config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6, rl_episodes=4,
                       rl_finetune_abstractor=True)
    train_rl([report], [alignment], extractor, abstractor, critic, vocab, config,
             rng=np.random.default_rng(304))
    assert params_digest(abstractor.params) == "80c279a64e866ae9bfd5bd1781207019f409f5ea1b6403be9be37ff74a06391e"


def test_fit_keeps_each_gradient_array_across_steps():
    data = extractor_examples(np.random.default_rng(110), 4)
    model = ExtractorModel(20, 6, 5, np.random.default_rng(111))
    seen = []
    fit(model.params, example_loss(model), data, RunConfig(batch_size=2, checkpoint_every_batches=1),
        epochs=1, rng=np.random.default_rng(112),
        periodic_save=lambda: seen.append({k: p.grad for k, p in model.params.items()}))
    assert len(seen) == 2
    for name, grad in seen[0].items():
        assert grad is not None and seen[1][name] is grad, name


def test_fit_with_reused_gradient_arrays_equals_fresh_arrays(monkeypatch):
    """Twenty steps, each on a new batch; `ad.zero_grads` hands out fresh arrays."""
    def train(model):
        data = extractor_examples(np.random.default_rng(120), 20)
        grads = []
        fit(model.params, example_loss(model), data, RunConfig(lr=0.05, batch_size=1, checkpoint_every_batches=1),
            epochs=1, rng=np.random.default_rng(121), periodic_save=lambda: grads.append(model.params["dec_w"].grad))
        assert len(grads) == 20
        return model, len({id(g) for g in grads})

    reused, reused_arrays = train(ExtractorModel(20, 6, 5, np.random.default_rng(122)))
    monkeypatch.setattr(ad.Adam, "zero_grad", lambda self: ad.zero_grads(self.params.values()))
    fresh, fresh_arrays = train(ExtractorModel(20, 6, 5, np.random.default_rng(122)))
    assert (reused_arrays, fresh_arrays) == (1, 20)
    for name, p in reused.params.items():
        assert np.array_equal(p.data, fresh.params[name].data), name


def test_fit_resets_a_frozen_parameters_gradient_every_step():
    """The loss depends on the frozen table alone, so every step's gradient
    is the same; it must not sum over steps, and its array is reused."""
    table = ad.param(np.random.default_rng(130).normal(size=(5, 4)))
    params = {"embed": table, "w": ad.param(np.ones(3))}
    initial = table.data.copy()
    seen = []
    fit(params, lambda ids: ad.mean_cross_entropy(ad.embedding_lookup(table, ids), [0, 3]), [([1, 2],)] * 4,
        RunConfig(batch_size=1, checkpoint_every_batches=1), epochs=1, rng=np.random.default_rng(131),
        periodic_save=lambda: seen.append((table.grad, table.grad.copy())), frozen_params=("embed",))
    assert len(seen) == 4
    for grad, values in seen:
        assert grad is seen[0][0]
        assert np.array_equal(values, seen[0][1])
    assert np.abs(seen[0][1]).sum() > 0.0
    assert np.array_equal(table.data, initial)
