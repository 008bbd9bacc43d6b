"""Actor-critic tests: rewards, rollouts, estimator math, training loop."""

import gc
import logging
import weakref

import numpy as np
import pytest

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.config import RunConfig
from narrsum.corpus import RESERVED_TOKENS, Document, Vocab
from narrsum.extractor import ExtractorModel, doc_to_ids, example_loss
from narrsum.oracle import OracleAlignment
from narrsum.rl import (
    A2CTrainer,
    Critic,
    policy_loss,
    Trajectory,
    TrajectoryStep,
    compute_reward,
    rollout,
    suffix_returns,
    train_rl,
)
from narrsum.rouge import rouge_l_summary
from narrsum.training import fit
from percell import (
    add,
    const,
    dot,
    log_softmax_at,
    mul,
    percell_policy_loss,
    pointer_step_scores,
    stack_rows,
    sub,
    take_row,
)
from yardsticks import mean_greedy_reward


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class IdentityParaphraser:
    """Stands in for an identity-overfit seq2seq model."""

    def paraphrase(self, ids, config):
        return list(ids)


# The published settings: decoding, and a step cap above every toy report's length.
CONFIG = RunConfig()


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]


def toy_world():
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + WORDS)
    doc = Document(
        id="r1",
        sentences=[("alpha", "beta", "gamma"), ("delta", "epsilon"), ("zeta", "eta", "theta"), ("iota", "kappa")],
        summaries=[],
    )
    gold = [doc.sentences[0], doc.sentences[2]]
    return vocab, doc, gold


def pointer_overfit(doc_ids, targets, seed=0, epochs=60):
    model = ExtractorModel(14, 8, 6, np.random.default_rng(seed))
    fit(
        model.params, example_loss(model),
        [("r1", doc_ids, targets)],
        RunConfig(lr=0.01, batch_size=1, checkpoint_every_batches=0),
        epochs=epochs,
        rng=np.random.default_rng(seed + 1),
    )
    return model


# ---------------------------------------------------------------- rewards


def test_compute_reward_frozen_values():
    assert compute_reward(["a", "b"], ["a", "b"]) == 1.0
    assert compute_reward(["a", "b"], ["c", "d"]) == 0.0
    assert compute_reward(["profit", "rose"], ["profit", "rose", "sharply"]) == pytest.approx(0.8)


def test_suffix_returns():
    assert suffix_returns([1.0, 0.5, 0.25]) == [1.75, 0.75, 0.25]
    assert suffix_returns([]) == []


# ---------------------------------------------------------------- critic


def test_critic_value_matches_node():
    critic = Critic(3, np.random.default_rng(0))
    state = np.random.default_rng(1).normal(size=6)
    value = critic.value(state)
    assert value == pytest.approx(float(critic.params["w"].data @ state + critic.params["b"].data))
    for target in (0.0, 1.5):
        assert float(critic.loss([state], [target]).data) == pytest.approx((target - value) ** 2)


def test_critic_checkpoint_round_trip(tmp_path):
    critic = Critic(3, np.random.default_rng(2))
    path = tmp_path / "critic.ckpt"
    critic.save(path)
    loaded, _ = Critic.load(path)
    for name in critic.params:
        assert np.array_equal(critic.params[name].data, loaded.params[name].data)


def test_critic_kind_guard(tmp_path):
    model = AbstractorModel(10, 8, 6, np.random.default_rng(0))
    path = tmp_path / "abstractor.ckpt"
    model.save(path)
    with pytest.raises(ValueError, match="not a critic"):
        Critic.load(path)


def test_critic_checkpoint_missing_parameter_refused(tmp_path):
    path = tmp_path / "critic.ckpt"
    Critic(3, np.random.default_rng(2)).save(path)
    arrays, cfg, _ = ad.load_checkpoint(path)
    del arrays["b"]
    ad.save_checkpoint(path, arrays, cfg)
    with pytest.raises(ValueError, match=r"missing \['b'\]"):
        Critic.load(path)


# ---------------------------------------------------------------- rollout


def test_optimal_policy_attains_perfect_rewards():
    vocab, doc, gold = toy_world()
    ids = doc_to_ids(doc, vocab)
    extractor = pointer_overfit(ids, [0, 2])
    traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")
    assert [s.action for s in traj.steps] == [0, 2]
    assert [s.reward for s in traj.steps] == [1.0, 1.0]
    assert traj.return_per_step == [2.0, 1.0]


def test_greedy_rollout_deterministic():
    vocab, doc, gold = toy_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(5))
    a = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")
    b = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")
    assert a.steps == b.steps


def test_stop_step_reward_is_marginal_summary_gain():
    vocab, doc, gold = toy_world()
    ids = doc_to_ids(doc, vocab)
    extractor = pointer_overfit(ids, [0])
    traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")
    assert [s.action for s in traj.steps] == [0, len(ids)]
    expected = rouge_l_summary([gold[0]], gold).f1  # earlier truncation is empty
    assert traj.steps[1].reward == pytest.approx(expected)


def test_sampled_rollouts_bounded_and_mask_safe():
    vocab, doc, _ = toy_world()
    gold = list(doc.sentences)  # horizon covers everything
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="sample", rng=rng)
        picked = [s.action for s in traj.steps if s.action < len(doc.sentences)]
        assert len(picked) == len(set(picked))
        assert all(0.0 <= s.reward <= 1.0 for s in traj.steps)


def test_rollout_validation():
    vocab, doc, gold = toy_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(9))
    with pytest.raises(ValueError, match="mode"):
        rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="beam")
    with pytest.raises(ValueError, match="rng"):
        rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="sample")
    with pytest.raises(ValueError, match="gold"):
        rollout(doc, [], extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")


def test_paraphrase_cache_is_filled_and_reused():
    vocab, doc, gold = toy_world()
    ids = doc_to_ids(doc, vocab)
    extractor = pointer_overfit(ids, [0, 2])

    class CountingParaphraser(IdentityParaphraser):
        calls = 0

        def paraphrase(self, ids, config):
            CountingParaphraser.calls += 1
            return list(ids)

    cache = {}
    paraphraser = CountingParaphraser()
    rollout(doc, gold, extractor, paraphraser, vocab, CONFIG, mode="greedy", paraphrase_cache=cache)
    first = CountingParaphraser.calls
    rollout(doc, gold, extractor, paraphraser, vocab, CONFIG, mode="greedy", paraphrase_cache=cache)
    assert CountingParaphraser.calls == first
    assert set(cache) == {("r1", 0), ("r1", 2)}


def test_sampled_rollout_probabilities_equal_its_replay():
    vocab, doc, _ = toy_world()
    gold = list(doc.sentences)
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(61))
    rng = np.random.default_rng(62)
    for _ in range(10):
        traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="sample", rng=rng)
        rows = traj.replay().data
        replayed = [float(np.log(softmax(row)[s.action])) for row, s in zip(rows, traj.steps)]
        assert len(rows) == len(traj.steps)
        assert np.array_equal(np.array([s.log_prob for s in traj.steps]), np.array(replayed))
        greedy = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy")
        reused = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="greedy", keys=traj.keys)
        assert reused.steps == greedy.steps


def test_rollout_keeps_no_encoder_graph(monkeypatch):
    vocab, doc, gold = toy_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(63))
    refs = []
    encode = extractor.encode

    def tracked(ids_lists):
        keys = encode(ids_lists)
        refs.append(weakref.ref(keys))
        return keys

    monkeypatch.setattr(extractor, "encode", tracked)
    gc.disable()
    try:
        traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, CONFIG, mode="sample",
                       rng=np.random.default_rng(64))
        assert len(refs) == 1 and refs[0]() is None
        rows = traj.replay()  # the update's replay encodes again, and its graph lives as long as the rows
        assert len(refs) == 2 and refs[1]() is not None
        del rows
        assert refs[1]() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- updates


def theta_rows(theta: ad.Value, steps: int) -> ad.Value:
    """The bandit policy's score rows: `theta` once per step."""
    return stack_rows([theta] * steps)


def bandit_trajectory(theta: ad.Value, arm: int, reward: float, state_dim: int = 2) -> Trajectory:
    return Trajectory(
        [TrajectoryStep(arm, float(np.log(softmax(theta.data)[arm])), reward)],
        [reward],
        [np.zeros(state_dim)],
        lambda: theta_rows(theta, 1),
    )


def test_constant_reward_with_perfect_critic_freezes_policy():
    theta = ad.param(np.array([0.3, -0.1, 0.2]))
    critic = Critic(1, np.random.default_rng(0))
    critic.params["w"].data[:] = 0.0
    critic.params["b"].data[...] = 0.7
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05, critic_lr=0.05, clip_norm=1.0)
    before = theta.data.copy()
    stats = trainer.update([bandit_trajectory(theta, arm, 0.7) for arm in range(3)])
    assert stats.policy_grad_norm == 0.0
    assert stats.mean_advantage == 0.0
    assert np.array_equal(theta.data, before)
    assert critic.params["b"].data == pytest.approx(0.7)


def test_two_arm_bandit_learns_the_good_arm():
    theta = ad.param(np.zeros(2))
    critic = Critic(1, np.random.default_rng(0))
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05, critic_lr=0.05, clip_norm=1.0)
    rng = np.random.default_rng(1)
    for _ in range(500):
        arm = int(rng.choice(2, p=softmax(theta.data)))
        trainer.update([bandit_trajectory(theta, arm, 1.0 if arm == 0 else 0.0)])
    assert softmax(theta.data)[0] > 0.95


def test_critic_regression_drives_loss_to_zero():
    rng = np.random.default_rng(3)
    states = [rng.normal(size=4), rng.normal(size=4)]
    theta = ad.param(np.zeros(2))
    critic = Critic(2, np.random.default_rng(4))
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.0, critic_lr=0.05, clip_norm=1.0)

    def batch():
        return [
            Trajectory(
                [TrajectoryStep(0, -0.5, ret)],
                [ret],
                [state],
                lambda: theta_rows(theta, 1),
            )
            for state, ret in zip(states, [1.0, -0.5])
        ]

    first = trainer.update(batch()).critic_loss
    for _ in range(400):
        stats = trainer.update(batch())
    assert stats.critic_loss < 1e-4 * max(first, 1.0)
    assert np.array_equal(theta.data, np.zeros(2))  # zero lr left the policy alone


def test_nonfinite_advantage_discards_batch(caplog):
    theta = ad.param(np.zeros(2))
    critic = Critic(1, np.random.default_rng(0))
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05, critic_lr=0.05, clip_norm=1.0)
    bad = bandit_trajectory(theta, 0, float("inf"))
    with caplog.at_level(logging.WARNING):
        assert trainer.update([bad]) is None
    assert "non-finite advantage" in caplog.text
    assert np.array_equal(theta.data, np.zeros(2))


def test_reinforce_with_baseline_matches_analytic_gradient():
    theta_vals = np.array([1.0, 0.0, -1.0])
    arm_rewards = np.array([1.0, 0.0, 0.0])
    p = softmax(theta_vals)
    expected_reward = float(p @ arm_rewards)
    analytic = p * (arm_rewards - expected_reward)

    rng = np.random.default_rng(42)
    counts = rng.multinomial(100_000, p)
    empirical = np.zeros(3)
    for arm in range(3):
        theta = ad.param(theta_vals)
        ad.backward(log_softmax_at(theta, arm))
        weight = (counts[arm] / 100_000.0) * (arm_rewards[arm] - expected_reward)
        empirical += weight * theta.grad
    rel = np.abs(empirical - analytic) / np.abs(analytic)
    assert np.all(rel < 0.02), rel


def test_policy_loss_matches_per_step_nodes():
    rng = np.random.default_rng(71)
    data = rng.normal(size=(4, 200)) * 3.0
    data[1, 2] += -1e9  # a masked candidate
    actions, advantages = [0, 133, 2, 199], rng.normal(size=4)
    grads = []
    for build in (
        lambda rows: policy_loss(rows, actions, advantages),
        lambda rows: percell_policy_loss([take_row(rows, t) for t in range(4)], actions, advantages),
    ):
        rows = ad.param(data)
        ad.backward(build(rows))
        grads.append(rows.grad)
    assert np.array_equal(grads[0], grads[1])


def test_update_matches_one_graph_over_the_wave():
    """Replaying each trajectory on its own, last first, leaves the same
    weights as one graph of per-step nodes over the whole wave."""
    vocab, doc, _ = toy_world()
    gold = list(doc.sentences)
    models = [ExtractorModel(14, 8, 6, np.random.default_rng(81)) for _ in range(2)]
    critics = [Critic(6, np.random.default_rng(82)) for _ in range(2)]
    rng = np.random.default_rng(83)
    wave = [rollout(doc, gold, models[0], IdentityParaphraser(), vocab, CONFIG, mode="sample", rng=rng)
            for _ in range(3)]
    trainer = A2CTrainer(models[0].params, critics[0], policy_lr=0.01, critic_lr=0.01, clip_norm=1.0)
    stats = trainer.update(wave)

    model, critic = models[1], critics[1]
    returns = [g for traj in wave for g in traj.return_per_step]
    states = [s for traj in wave for s in traj.states]
    values = [add(dot(critic.params["w"], const(s)), critic.params["b"]) for s in states]
    advantages = np.array(returns) - np.array([float(v.data) for v in values])
    ids_lists = doc_to_ids(doc, vocab)
    rows, actions = [], []
    for traj in wave:
        traj_actions = [s.action for s in traj.steps]
        rows += pointer_step_scores(model, model.encode(ids_lists), traj_actions)
        actions += traj_actions
    ad.backward(percell_policy_loss(rows, actions, advantages))
    assert ad.Adam(model.params, lr=0.01, clip_norm=1.0).step() == stats.policy_grad_norm
    squares = [mul(d, d) for d in (sub(const(np.asarray(g)), v) for g, v in zip(returns, values))]
    critic_loss = squares[0]
    for term in squares[1:]:
        critic_loss = add(critic_loss, term)
    ad.backward(critic_loss)
    assert float(critic_loss.data) == stats.critic_loss
    assert ad.Adam(critic.params, lr=0.01, clip_norm=1.0).step() == stats.critic_grad_norm
    for name, p in models[0].params.items():
        assert np.array_equal(p.data, model.params[name].data), name
    for name, p in critics[0].params.items():
        assert np.array_equal(p.data, critic.params[name].data), name


# ---------------------------------------------------------------- training


def rl_world():
    vocab, doc, gold = toy_world()
    report = Document(doc.id, doc.sentences, [gold])
    alignment = OracleAlignment("r1", 0, [(0, 0, 1.0), (1, 2, 1.0)], [0, 2])
    return vocab, report, alignment


def small_abstractor(vocab_size=14, seed=0):
    return AbstractorModel(vocab_size, 8, 6, np.random.default_rng(seed))


def test_zero_lr_run_is_flat_and_leaves_params_unchanged():
    vocab, report, alignment = rl_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(11))
    abstractor = small_abstractor()
    critic = Critic(6, np.random.default_rng(12))
    config = RunConfig(hidden_dim=6, rl_lr=0.0, rl_updates_every=2, max_output_tokens=6, rl_episodes=9)
    before = {
        "extractor": {k: v.data.copy() for k, v in extractor.params.items()},
        "critic": {k: v.data.copy() for k, v in critic.params.items()},
    }
    rows = train_rl(
        [report], [alignment], extractor, abstractor, critic, vocab, config,
        rng=np.random.default_rng(13),
    )
    assert len({row.mean_reward for row in rows}) == 1
    for k, arr in before["extractor"].items():
        assert np.array_equal(extractor.params[k].data, arr)
    for k, arr in before["critic"].items():
        assert np.array_equal(critic.params[k].data, arr)


def test_identical_seeds_give_identical_curves():
    def run():
        vocab, report, alignment = rl_world()
        extractor = ExtractorModel(14, 8, 6, np.random.default_rng(21))
        critic = Critic(6, np.random.default_rng(22))
        config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6, rl_episodes=8)
        return train_rl(
            [report], [alignment], extractor, small_abstractor(seed=23), critic, vocab, config,
            rng=np.random.default_rng(24),
        )

    assert run() == run()


def test_last_partial_wave_is_trained_on():
    """At two episodes per update, the fifth episode's rollout is an update
    of its own: five episodes train the pointer further than four."""
    def run(episodes):
        vocab, report, alignment = rl_world()
        extractor = ExtractorModel(14, 8, 6, np.random.default_rng(61))
        critic = Critic(6, np.random.default_rng(62))
        config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6, rl_episodes=episodes)
        train_rl(
            [report], [alignment], extractor, small_abstractor(seed=63), critic, vocab, config,
            rng=np.random.default_rng(64),
        )
        return {k: v.data.copy() for k, v in extractor.params.items()}

    four, five = run(4), run(5)
    assert any(not np.array_equal(five[k], four[k]) for k in four)


def test_reward_curve_csv(tmp_path):
    vocab, report, alignment = rl_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(31))
    critic = Critic(6, np.random.default_rng(32))
    config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6, rl_episodes=5)
    path = tmp_path / "rl_rewards.csv"
    rows = train_rl(
        [report], [alignment], extractor, small_abstractor(), critic, vocab, config,
        rng=np.random.default_rng(33), csv_path=path,
    )
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "episode,mean_reward,mean_advantage,critic_loss"
    assert len(lines) == 1 + len(rows) == 6
    assert lines[1].startswith("0,")


def test_policy_improves_on_tiny_task():
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + WORDS)
    report = Document(
        id="r1",
        sentences=[("alpha", "beta", "gamma"), ("delta", "epsilon", "zeta")],
        summaries=[[("alpha", "beta", "gamma")]],
    )
    alignment = OracleAlignment("r1", 0, [(0, 0, 1.0)], [0])
    extractor = ExtractorModel(14, 8, 4, np.random.default_rng(41))
    critic = Critic(4, np.random.default_rng(42))
    config = RunConfig(hidden_dim=4, rl_lr=0.02, rl_updates_every=2, max_output_tokens=6, rl_episodes=120)
    rows = train_rl(
        [report], [alignment], extractor, IdentityParaphraser(), critic, vocab, config,
        rng=np.random.default_rng(43),
    )
    early = np.mean([r.mean_reward for r in rows[:20]])
    late = np.mean([r.mean_reward for r in rows[-20:]])
    assert late >= early
    assert late >= 0.9


def test_train_rl_leaves_the_abstractor_unchanged():
    vocab, report, alignment = rl_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(51))
    abstractor = small_abstractor(seed=52)
    critic = Critic(6, np.random.default_rng(53))
    config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6, rl_episodes=4)
    before = {k: v.data.copy() for k, v in abstractor.params.items()}
    train_rl([report], [alignment], extractor, abstractor, critic, vocab, config, rng=np.random.default_rng(54))
    for name, arr in before.items():
        assert np.array_equal(abstractor.params[name].data, arr), name


def test_mean_greedy_reward_on_perfect_setup():
    vocab, report, alignment = rl_world()
    ids = doc_to_ids(report, vocab)
    extractor = pointer_overfit(ids, [0, 2])
    value = mean_greedy_reward([report], [alignment], extractor, IdentityParaphraser(), vocab, CONFIG)
    assert value == pytest.approx(1.0)
