"""Advantage actor-critic fine-tuning of the sentence pointer.

The pointer network is the policy; a frozen paraphraser rewrites each
chosen sentence, and the step reward is longest-common-subsequence F1
between that rewrite and the position-aligned gold summary sentence.
Choosing stop earns the marginal change in summary-level F1 from the
last emitted sentence, clamped to [0, 1]. A linear critic on the
detached pointer state supplies the advantage baseline.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .abstractor import AbstractorModel
from .config import RunConfig
from .corpus import DataError, Document, Vocab
from .extractor import ExtractorModel, doc_to_ids, pointer_chooser
from .oracle import OracleAlignment, aligned_reports
from .rouge import rouge_l_sentence, rouge_l_summary

log = logging.getLogger(__name__)


def compute_reward(generated: Sequence[str], target: Sequence[str]) -> float:
    """Longest-common-subsequence F1 of a rewrite against one gold sentence."""
    return rouge_l_sentence(generated, target).f1


@dataclass(frozen=True)
class TrajectoryStep:
    action: int  # sentence index, or n_sentences for stop
    log_prob: float
    reward: float


@dataclass
class Trajectory:
    """One episode, detached from any graph.

    `replay()` rebuilds the score rows (T, K) of the steps as a graph over
    the policy's parameters; while those are unchanged, its rows are the
    ones the actions were drawn from. `states` are the decoder states the
    critic reads, and `keys` the report encoding the pointer decoded over.
    """

    report_id: str
    steps: list[TrajectoryStep]
    return_per_step: list[float]
    states: list[np.ndarray]
    replay: Callable[[], ad.Value]
    keys: np.ndarray | None = None

    def mean_reward(self) -> float:
        return float(np.mean([s.reward for s in self.steps])) if self.steps else 0.0


def suffix_returns(rewards: Sequence[float]) -> list[float]:
    """Undiscounted return-to-go for each step."""
    out: list[float] = []
    acc = 0.0
    for r in reversed(rewards):
        acc += r
        out.append(acc)
    out.reverse()
    return out


# ---------------------------------------------------------------- critic


class Critic(ad.Checkpointed):
    """Affine value head over the detached pointer decoder state (2H,)."""

    KIND = "critic"
    SIZES = ("hidden_dim",)

    @staticmethod
    def param_table(hidden_dim: int) -> dict[str, tuple[tuple[int, ...], str]]:
        return {"w": ((2 * hidden_dim,), "uniform"), "b": ((), "zeros")}

    def __init__(self, hidden_dim: int, rng: np.random.Generator):
        self._fill((hidden_dim,), rng)

    def value(self, state: np.ndarray) -> float:
        return float(self.params["w"].data @ state + self.params["b"].data)

    def loss(self, states: Sequence[np.ndarray], returns: Sequence[float]) -> ad.Value:
        """Summed squared error of the values of `states` against `returns`, as one node."""
        w, b = self.params["w"], self.params["b"]
        diff = np.asarray(returns, dtype=np.float64) - np.array([self.value(s) for s in states])

        def backward(g):
            # Last state first, each term as a chain of per-state nodes adds it.
            for state, d in zip(reversed(states), reversed(diff)):
                gd = -(g * d + g * d)
                w.accum(gd * state)
                b.accum(gd)

        return ad.Value(np.cumsum(diff * diff)[-1], (w, b), backward)


def policy_loss(rows: ad.Value, actions: Sequence[int], advantages: np.ndarray) -> ad.Value:
    """The actor's loss over one trajectory's score rows (T, K), as one node:
    the sum over steps of -advantage * log softmax(row)[action].

    Each row's gradient is computed as a separate log-softmax node, scaled
    by its advantage, would compute it."""
    steps = np.arange(len(actions))
    shifted = rows.data - rows.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1)[:, None])
    p = np.exp(log_probs)
    advantages = np.asarray(advantages, dtype=np.float64)

    def backward(g):
        coef = g * -advantages
        delta = -p * coef[:, None]
        delta[steps, actions] += coef
        rows.accum(delta)

    return ad.Value(-(advantages @ log_probs[steps, actions]), (rows,), backward)


# ---------------------------------------------------------------- rollout


def rollout(
    document: Document,
    gold_sentences: Sequence[Sequence[str]],
    extractor: ExtractorModel,
    abstractor,
    vocab: Vocab,
    config: RunConfig,
    *,
    mode: str,
    rng: np.random.Generator | None = None,
    paraphrase_cache: dict | None = None,
    keys: np.ndarray | None = None,
) -> Trajectory:
    """One episode: point, paraphrase under `config`, reward each step against gold.

    The episode ends when the policy picks stop, when gold sentences are
    exhausted, or after `config.max_extract_sentences` steps, whichever
    comes first. `keys` may hold the report's encoding under the
    extractor's current weights; the rollout builds no graph either way.
    """
    choose = pointer_chooser(mode, rng)
    if not gold_sentences:
        raise ValueError(f"report {document.id}: rollout needs gold sentences")

    ids_lists = doc_to_ids(document, vocab)
    if keys is None:
        keys = extractor.encode(ids_lists).data
    n = len(ids_lists)
    horizon = min(len(gold_sentences), config.max_extract_sentences)
    decode_steps = extractor.decode(keys, n, choose, max_steps=horizon)

    generated: list[list[str]] = []
    steps: list[TrajectoryStep] = []
    for t, step in enumerate(decode_steps):
        if step.action == n:  # stop
            full = rouge_l_summary(generated, gold_sentences).f1
            earlier = rouge_l_summary(generated[:-1], gold_sentences).f1
            reward = min(1.0, max(0.0, full - earlier))
        else:
            cache_key = (document.id, step.action)
            if paraphrase_cache is not None and cache_key in paraphrase_cache:
                out_ids = paraphrase_cache[cache_key]
            else:
                out_ids = abstractor.paraphrase(ids_lists[step.action], config)
                if paraphrase_cache is not None:
                    paraphrase_cache[cache_key] = out_ids
            rewrite = vocab.decode(out_ids)
            reward = compute_reward(rewrite, gold_sentences[t])
            generated.append(rewrite)
        steps.append(TrajectoryStep(step.action, float(np.log(step.probs[step.action])), reward))
    actions = [s.action for s in steps]
    return Trajectory(
        document.id, steps, suffix_returns([s.reward for s in steps]), [s.state for s in decode_steps],
        partial(extractor.forced_scores, ids_lists, actions), keys,
    )


# ---------------------------------------------------------------- update


@dataclass(frozen=True)
class UpdateStats:
    mean_advantage: float
    critic_loss: float
    policy_grad_norm: float
    critic_grad_norm: float


class A2CTrainer:
    """Separate Adam updates for the policy and for the critic.

    Advantages enter the policy term as plain numbers, so critic
    gradients never flow into the policy update. Critic values are
    recomputed from the stored detached states at update time.
    """

    def __init__(
        self,
        policy_params: dict[str, ad.Value],
        critic: Critic,
        *,
        policy_lr: float,
        critic_lr: float,
        clip_norm: float | None,
    ):
        self.critic = critic
        self.policy_opt = ad.Adam(policy_params, lr=policy_lr, clip_norm=clip_norm)
        self.critic_opt = ad.Adam(critic.params, lr=critic_lr, clip_norm=clip_norm)

    def update(self, trajectories: Sequence[Trajectory]) -> UpdateStats | None:
        """One A2C step over a batch; returns None when it is discarded.

        Each trajectory's graph is rebuilt by its `replay` and backpropagated
        on its own, last trajectory first, so at most one graph is alive and
        the gradients add up in the order that one graph over the whole
        batch would add them.
        """
        if not trajectories:
            raise ValueError("a2c update needs at least one trajectory")
        returns = [g for traj in trajectories for g in traj.return_per_step]
        states = [s for traj in trajectories for s in traj.states]
        if not returns:
            raise ValueError("a2c update got trajectories without steps")
        advantages = np.array(returns) - np.array([self.critic.value(s) for s in states])
        if not np.isfinite(advantages).all():
            log.warning("discarding a2c batch: non-finite advantage")
            return None

        self.policy_opt.zero_grad()
        self.critic_opt.zero_grad()

        end = len(returns)
        for traj in reversed(trajectories):
            start = end - len(traj.steps)
            if traj.steps:
                actions = [s.action for s in traj.steps]
                ad.backward(policy_loss(traj.replay(), actions, advantages[start:end]))
            end = start
        policy_norm = self.policy_opt.step()

        critic_loss = self.critic.loss(states, returns)
        ad.backward(critic_loss)
        critic_norm = self.critic_opt.step()

        return UpdateStats(
            mean_advantage=float(advantages.mean()),
            critic_loss=float(critic_loss.data),
            policy_grad_norm=policy_norm,
            critic_grad_norm=critic_norm,
        )


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class RewardRow:
    episode: int
    mean_reward: float
    mean_advantage: float
    critic_loss: float


def write_reward_curve(rows: Sequence[RewardRow], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "mean_reward", "mean_advantage", "critic_loss"])
        for row in rows:
            writer.writerow(
                [row.episode, f"{row.mean_reward:.6f}", f"{row.mean_advantage:.6f}", f"{row.critic_loss:.6f}"]
            )


def _paired_examples(
    reports: Sequence[Document], alignments: Sequence[OracleAlignment]
) -> list[tuple[Document, list[tuple[str, ...]]]]:
    paired = []
    for report, al in aligned_reports(reports, alignments):
        gold = report.summaries[al.chosen_summary]
        if not gold:
            log.warning("report %s has an empty gold summary; skipped for rl", report.id)
            continue
        paired.append((report, gold))
    return paired


def train_rl(
    reports: Sequence[Document],
    alignments: Sequence[OracleAlignment],
    extractor: ExtractorModel,
    abstractor: AbstractorModel,
    critic: Critic,
    vocab: Vocab,
    config: RunConfig,
    *,
    rng: np.random.Generator,
    csv_path: str | Path | None = None,
) -> list[RewardRow]:
    """Alternate sampled rollouts with A2C updates over cycled reports:
    one update per `rl_updates_every` episodes, and one on the last wave
    even when it is shorter.

    The curve records, per episode, the mean step reward of a greedy
    rollout on that episode's report (a deterministic function of the
    current parameters), plus the statistics of the latest update.
    """
    paired = _paired_examples(reports, alignments)
    if not paired:
        raise DataError("no usable reports for rl training")
    trainer = A2CTrainer(
        extractor.params,
        critic,
        policy_lr=config.effective_rl_lr,
        critic_lr=config.effective_rl_lr,
        clip_norm=config.clip_norm,
    )
    cache: dict = {}

    def play(report: Document, gold: list[tuple[str, ...]], **mode) -> Trajectory:
        return rollout(report, gold, extractor, abstractor, vocab, config, paraphrase_cache=cache, **mode)

    rows: list[RewardRow] = []
    wave: list[Trajectory] = []
    last = UpdateStats(0.0, 0.0, 0.0, 0.0)
    for episode in range(config.rl_episodes):
        report, gold = paired[episode % len(paired)]
        traj = play(report, gold, mode="sample", rng=rng)
        wave.append(traj)
        keys = traj.keys  # the greedy probe's encoding too, unless an update changes the weights first
        if len(wave) >= config.rl_updates_every or episode == config.rl_episodes - 1:
            stats = trainer.update(wave)
            if stats is not None:
                last = stats
            wave = []
            keys = None
        greedy = play(report, gold, mode="greedy", keys=keys)
        rows.append(RewardRow(episode, greedy.mean_reward(), last.mean_advantage, last.critic_loss))
    if csv_path is not None:
        write_reward_curve(rows, csv_path)
    return rows
