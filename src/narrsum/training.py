"""One training loop for every stage: mini-batches, plateau decay, periodic saves."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .config import RunConfig


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    lr_history: list[float] = field(default_factory=list)
    batches_seen: int = 0
    periodic_saves: int = 0

    def record_epoch(self, train_loss: float, val_loss: float, lr: float) -> None:
        self.epoch_losses.append(train_loss)
        self.validation_losses.append(val_loss)
        self.lr_history.append(lr)


class HalveOnPlateau:
    """Multiply the optimizer lr by decay when a full epoch brings no
    improvement in the watched loss."""

    def __init__(self, optimizer: ad.Adam, decay: float):
        self.optimizer = optimizer
        self.decay = decay
        self.best = math.inf

    def epoch_end(self, loss: float) -> bool:
        if loss < self.best:
            self.best = loss
            return False
        self.optimizer.lr *= self.decay
        return True


def fit(
    params: dict[str, ad.Value],
    loss: Callable[..., ad.Value],
    items: Sequence[tuple],
    config: RunConfig,
    *,
    epochs: int,
    rng: np.random.Generator,
    validation: Sequence[tuple] = (),
    periodic_save: Callable[[], None] | None = None,
) -> TrainLog:
    """Adam on the mean `loss(*item)` of mini-batches of `items`, with
    `config`'s `lr`, `lr_decay`, `clip_norm`, `batch_size` and
    `checkpoint_every_batches`.

    Each epoch visits `items` in an order shuffled by `rng`. The learning
    rate is multiplied by `lr_decay` on a plateau of the mean validation
    loss, or of the epoch's training loss when there is no validation data.
    `periodic_save` runs after every `checkpoint_every_batches` batches
    (never when 0).
    """
    if not items:
        raise ValueError("no training items")
    optimizer = ad.Adam(params, lr=config.lr, clip_norm=config.clip_norm)
    schedule = HalveOnPlateau(optimizer, config.lr_decay)
    batch_size, checkpoint_every = config.batch_size, config.checkpoint_every_batches
    train_log = TrainLog()

    for _ in range(epochs):
        order = np.arange(len(items))
        rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(items), batch_size):
            batch = [items[i] for i in order[start : start + batch_size]]
            optimizer.zero_grad()
            for item in batch:
                node = ad.scale(loss(*item), 1.0 / len(batch))
                ad.backward(node)
                epoch_losses.append(float(node.data) * len(batch))
            optimizer.step()
            train_log.batches_seen += 1
            if periodic_save is not None and checkpoint_every > 0 and train_log.batches_seen % checkpoint_every == 0:
                periodic_save()
                train_log.periodic_saves += 1
        train_loss = float(np.mean(epoch_losses))
        val_loss = float(np.mean([float(loss(*item).data) for item in validation])) if validation else math.nan
        train_log.record_epoch(train_loss, val_loss, optimizer.lr)
        schedule.epoch_end(val_loss if validation else train_loss)
    return train_log
