"""The shared training loop: golden values of `fit` on both models.

The golden values pin `fit`'s batch order, arithmetic and RNG draws
exactly. The last tests pin the gradient arrays that `Adam.zero_grad` hands
back for reuse.
"""

import hashlib

import numpy as np

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.config import RunConfig
from narrsum.extractor import ExtractorModel, example_loss
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
    every 2 batches and validation data."""
    saves = []
    train_log = fit(
        params, loss, items,
        RunConfig(lr=0.05, lr_decay=0.5, clip_norm=1.0, batch_size=2, checkpoint_every_batches=2),
        epochs=3, rng=np.random.default_rng(seed), validation=validation,
        periodic_save=lambda: saves.append(1),
    )
    assert len(saves) == train_log.periodic_saves
    return train_log


def test_fit_extractor_golden_values():
    data = extractor_examples(np.random.default_rng(100), 7)
    model = ExtractorModel(20, 6, 5, np.random.default_rng(101))
    train_log = golden_fit(model.params, example_loss(model), data[:5], data[5:], 102)
    assert train_log.epoch_losses == [1.3637827793598094, 1.3486218754105754, 1.3338737443934483]
    assert train_log.validation_losses == [1.3577183186480666, 1.3596627848772305, 1.3308997785633747]
    assert train_log.lr_history == [0.05, 0.05, 0.025]
    assert (train_log.batches_seen, train_log.periodic_saves) == (9, 4)
    assert params_digest(model.params) == "20005c6ace7c54a38479f446f4a94b89d0fdd253fcb4cd62cacf619a9a53fd3f"


def test_fit_abstractor_golden_values():
    pairs = abstractor_pairs(np.random.default_rng(200), 7)
    model = AbstractorModel(14, 6, 5, np.random.default_rng(201))
    train_log = golden_fit(model.params, model.teacher_forced_loss, pairs[:5], pairs[5:], 202)
    assert train_log.epoch_losses == [2.618453588914897, 2.312719803463964, 2.1097634458248478]
    assert train_log.validation_losses == [2.4820580815076103, 2.2976503253288136, 2.445370213610054]
    assert train_log.lr_history == [0.05, 0.05, 0.05]
    assert (train_log.batches_seen, train_log.periodic_saves) == (9, 4)
    assert params_digest(model.params) == "726adda94ba5ce53608e1786495d8eba79bb68f43e87d4fa7a80fbfec864b3df"


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
