"""Actor-critic tests: rewards, rollouts, estimator math, training loop."""

import logging

import numpy as np
import pytest

from narrsum import autodiff as ad
from narrsum.abstractor import AbstractorModel
from narrsum.config import RunConfig
from narrsum.corpus import RESERVED_TOKENS, Document, ReportExample, Sentence, SummarySet, Vocab
from narrsum.extractor import ExtractorModel, doc_to_ids, example_loss
from narrsum.oracle import OracleAlignment
from narrsum.rl import (
    A2CTrainer,
    Critic,
    Trajectory,
    TrajectoryStep,
    compute_reward,
    mean_greedy_reward,
    rollout,
    suffix_returns,
    train_rl,
)
from narrsum.rouge import rouge_l_summary
from narrsum.training import fit


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class IdentityParaphraser:
    """Stands in for an identity-overfit seq2seq model."""

    def paraphrase(self, ids, decode=None):
        return list(ids)


def sent(*tokens):
    return Sentence(tokens=tuple(tokens), char_span=(0, 0))


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]


def toy_world():
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + WORDS)
    doc = Document(
        id="r1",
        sentences=(
            sent("alpha", "beta", "gamma"),
            sent("delta", "epsilon"),
            sent("zeta", "eta", "theta"),
            sent("iota", "kappa"),
        ),
        source_path=None,
    )
    gold = [list(doc.sentences[0].tokens), list(doc.sentences[2].tokens)]
    return vocab, doc, gold


def pointer_overfit(doc_ids, targets, seed=0, epochs=60):
    model = ExtractorModel(14, 8, 6, np.random.default_rng(seed))
    fit(
        model.params, example_loss(model),
        [("r1", doc_ids, targets)],
        epochs=epochs,
        lr=0.01,
        batch_size=1,
        checkpoint_every=0,
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
    assert critic.value(state) == pytest.approx(float(critic.value_node(state).data))


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
    traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="greedy")
    assert [s.action for s in traj.steps] == [0, 2]
    assert [s.reward for s in traj.steps] == [1.0, 1.0]
    assert traj.return_per_step == [2.0, 1.0]


def test_greedy_rollout_deterministic():
    vocab, doc, gold = toy_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(5))
    a = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="greedy")
    b = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="greedy")
    assert a.steps == b.steps


def test_stop_step_reward_is_marginal_summary_gain():
    vocab, doc, gold = toy_world()
    ids = doc_to_ids(doc, vocab)
    extractor = pointer_overfit(ids, [0])
    traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="greedy")
    assert [s.action for s in traj.steps] == [0, len(ids)]
    expected = rouge_l_summary([gold[0]], gold).f1  # earlier truncation is empty
    assert traj.steps[1].reward == pytest.approx(expected)


def test_sampled_rollouts_bounded_and_mask_safe():
    vocab, doc, _ = toy_world()
    gold = [list(s.tokens) for s in doc.sentences]  # horizon covers everything
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="sample", rng=rng)
        picked = [s.action for s in traj.steps if s.action < len(doc.sentences)]
        assert len(picked) == len(set(picked))
        assert all(0.0 <= s.reward <= 1.0 for s in traj.steps)


def test_rollout_validation():
    vocab, doc, gold = toy_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(9))
    with pytest.raises(ValueError, match="mode"):
        rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="beam")
    with pytest.raises(ValueError, match="rng"):
        rollout(doc, gold, extractor, IdentityParaphraser(), vocab, mode="sample")
    with pytest.raises(ValueError, match="gold"):
        rollout(doc, [], extractor, IdentityParaphraser(), vocab, mode="greedy")


def test_paraphrase_cache_is_filled_and_reused():
    vocab, doc, gold = toy_world()
    ids = doc_to_ids(doc, vocab)
    extractor = pointer_overfit(ids, [0, 2])

    class CountingParaphraser(IdentityParaphraser):
        calls = 0

        def paraphrase(self, ids, decode=None):
            CountingParaphraser.calls += 1
            return list(ids)

    cache = {}
    paraphraser = CountingParaphraser()
    rollout(doc, gold, extractor, paraphraser, vocab, mode="greedy", paraphrase_cache=cache)
    first = CountingParaphraser.calls
    rollout(doc, gold, extractor, paraphraser, vocab, mode="greedy", paraphrase_cache=cache)
    assert CountingParaphraser.calls == first
    assert set(cache) == {("r1", 0), ("r1", 2)}


# ---------------------------------------------------------------- updates


def bandit_trajectory(theta: ad.Value, arm: int, reward: float, state_dim: int = 2) -> Trajectory:
    logp = ad.log_softmax_at(theta, arm)
    return Trajectory(
        "bandit",
        [TrajectoryStep(arm, float(logp.data), reward, 0.0)],
        [reward],
        [logp],
        [ad.softmax_entropy(theta)],
        [np.zeros(state_dim)],
    )


def test_constant_reward_with_perfect_critic_freezes_policy():
    theta = ad.param(np.array([0.3, -0.1, 0.2]))
    critic = Critic(1, np.random.default_rng(0))
    critic.params["w"].data[:] = 0.0
    critic.params["b"].data[...] = 0.7
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05)
    before = theta.data.copy()
    stats = trainer.update([bandit_trajectory(theta, arm, 0.7) for arm in range(3)])
    assert stats.policy_grad_norm == 0.0
    assert stats.mean_advantage == 0.0
    assert np.array_equal(theta.data, before)
    assert critic.params["b"].data == pytest.approx(0.7)


def test_two_arm_bandit_learns_the_good_arm():
    theta = ad.param(np.zeros(2))
    critic = Critic(1, np.random.default_rng(0))
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05)
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
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.0, critic_lr=0.05)

    def batch():
        return [
            Trajectory(
                "fixed",
                [TrajectoryStep(0, -0.5, ret, 0.0)],
                [ret],
                [ad.log_softmax_at(theta, 0)],
                [ad.softmax_entropy(theta)],
                [state],
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
    trainer = A2CTrainer({"theta": theta}, critic, policy_lr=0.05)
    bad = bandit_trajectory(theta, 0, float("inf"))
    with caplog.at_level(logging.WARNING):
        assert trainer.update([bad]) is None
    assert "non-finite advantage" in caplog.text
    assert np.array_equal(theta.data, np.zeros(2))


def test_normalized_advantage_keeps_update_direction():
    def deltas(normalize):
        theta = ad.param(np.array([0.3, -0.2, 0.1]))
        critic = Critic(1, np.random.default_rng(5))
        critic.params["w"].data[:] = 0.0
        critic.params["b"].data[...] = 0.0
        trainer = A2CTrainer(
            {"theta": theta}, critic, policy_lr=0.01, critic_lr=0.0, normalize_advantage=normalize
        )
        steps = [TrajectoryStep(a, -1.0, r, 0.0) for a, r in zip([0, 1, 2], [1.0, 0.0, 1.0])]
        traj = Trajectory(
            "one",
            steps,
            suffix_returns([1.0, 0.0, 1.0]),
            [ad.log_softmax_at(theta, a) for a in [0, 1, 2]],
            [ad.softmax_entropy(theta) for _ in range(3)],
            [np.zeros(2) for _ in range(3)],
        )
        before = theta.data.copy()
        trainer.update([traj])
        return theta.data - before

    plain, normalized = deltas(False), deltas(True)
    assert np.all(np.sign(plain) == np.sign(normalized))
    assert np.any(plain != 0.0)


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
        ad.backward(ad.log_softmax_at(theta, arm))
        weight = (counts[arm] / 100_000.0) * (arm_rewards[arm] - expected_reward)
        empirical += weight * theta.grad
    rel = np.abs(empirical - analytic) / np.abs(analytic)
    assert np.all(rel < 0.02), rel


# ---------------------------------------------------------------- training


def rl_world():
    vocab, doc, gold = toy_world()
    summaries = SummarySet("r1", [("1", (sent(*gold[0]), sent(*gold[1])))])
    example = ReportExample(doc, summaries)
    alignment = OracleAlignment("r1", 0, [(0, 0, 1.0), (1, 2, 1.0)], [0, 2])
    return vocab, example, alignment


def small_abstractor(vocab_size=14, seed=0):
    return AbstractorModel(vocab_size, 8, 6, np.random.default_rng(seed))


def test_zero_lr_run_is_flat_and_leaves_params_unchanged():
    vocab, example, alignment = rl_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(11))
    abstractor = small_abstractor()
    critic = Critic(6, np.random.default_rng(12))
    config = RunConfig(hidden_dim=6, rl_lr=0.0, rl_updates_every=2, max_output_tokens=6)
    before = {
        "extractor": {k: v.data.copy() for k, v in extractor.params.items()},
        "critic": {k: v.data.copy() for k, v in critic.params.items()},
    }
    rows = train_rl(
        [example], [alignment], extractor, abstractor, critic, vocab, config,
        rng=np.random.default_rng(13), episodes=9,
    )
    assert len({row.mean_reward for row in rows}) == 1
    for k, arr in before["extractor"].items():
        assert np.array_equal(extractor.params[k].data, arr)
    for k, arr in before["critic"].items():
        assert np.array_equal(critic.params[k].data, arr)


def test_identical_seeds_give_identical_curves():
    def run():
        vocab, example, alignment = rl_world()
        extractor = ExtractorModel(14, 8, 6, np.random.default_rng(21))
        critic = Critic(6, np.random.default_rng(22))
        config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6)
        return train_rl(
            [example], [alignment], extractor, small_abstractor(seed=23), critic, vocab, config,
            rng=np.random.default_rng(24), episodes=8,
        )

    assert run() == run()


def test_reward_curve_csv(tmp_path):
    vocab, example, alignment = rl_world()
    extractor = ExtractorModel(14, 8, 6, np.random.default_rng(31))
    critic = Critic(6, np.random.default_rng(32))
    config = RunConfig(hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6)
    path = tmp_path / "rl_rewards.csv"
    rows = train_rl(
        [example], [alignment], extractor, small_abstractor(), critic, vocab, config,
        rng=np.random.default_rng(33), episodes=5, csv_path=path,
    )
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "episode,mean_reward,mean_advantage,critic_loss"
    assert len(lines) == 1 + len(rows) == 6
    assert lines[1].startswith("0,")


def test_policy_improves_on_tiny_task():
    vocab = Vocab.from_list(list(RESERVED_TOKENS) + WORDS)
    doc = Document(
        id="r1",
        sentences=(sent("alpha", "beta", "gamma"), sent("delta", "epsilon", "zeta")),
        source_path=None,
    )
    summaries = SummarySet("r1", [("1", (sent("alpha", "beta", "gamma"),))])
    example = ReportExample(doc, summaries)
    alignment = OracleAlignment("r1", 0, [(0, 0, 1.0)], [0])
    extractor = ExtractorModel(14, 8, 4, np.random.default_rng(41))
    critic = Critic(4, np.random.default_rng(42))
    config = RunConfig(hidden_dim=4, rl_lr=0.02, rl_updates_every=2, max_output_tokens=6)
    rows = train_rl(
        [example], [alignment], extractor, IdentityParaphraser(), critic, vocab, config,
        rng=np.random.default_rng(43), episodes=120,
    )
    early = np.mean([r.mean_reward for r in rows[:20]])
    late = np.mean([r.mean_reward for r in rows[-20:]])
    assert late >= early
    assert late >= 0.9


def test_abstractor_frozen_by_default_and_tunable_by_flag():
    vocab, example, alignment = rl_world()

    def run(finetune):
        extractor = ExtractorModel(14, 8, 6, np.random.default_rng(51))
        abstractor = small_abstractor(seed=52)
        critic = Critic(6, np.random.default_rng(53))
        config = RunConfig(
            hidden_dim=6, rl_lr=0.01, rl_updates_every=2, max_output_tokens=6,
            rl_finetune_abstractor=finetune,
        )
        before = {k: v.data.copy() for k, v in abstractor.params.items()}
        train_rl(
            [example], [alignment], extractor, abstractor, critic, vocab, config,
            rng=np.random.default_rng(54), episodes=4,
        )
        return any(not np.array_equal(abstractor.params[k].data, arr) for k, arr in before.items())

    assert run(False) is False
    assert run(True) is True


def test_mean_greedy_reward_on_perfect_setup():
    vocab, example, alignment = rl_world()
    ids = doc_to_ids(example.document, vocab)
    extractor = pointer_overfit(ids, [0, 2])
    value = mean_greedy_reward([example], [alignment], extractor, IdentityParaphraser(), vocab)
    assert value == pytest.approx(1.0)
