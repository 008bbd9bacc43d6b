"""Unsupervised extractive baselines: graph centrality and lead sentences.

Both graph methods score sentences with damped PageRank over a
sentence-similarity graph and then take sentences in descending score
until the word budget is full, re-sorted into document order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .config import RunConfig
from .corpus import Document
from .oracle import SourceIndex

# Elements per temporary of the blocked symmetry check: a block holds this
# many weights' worth of rows, so validating a graph allocates no n x n array.
_SYMMETRY_BLOCK = 1 << 14


@dataclass(frozen=True)
class SentenceGraph:
    """Symmetric non-negative sentence similarities with a zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"sentence graph must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("sentence graph weights must be finite")
        if not _is_symmetric(w):
            raise ValueError("sentence graph weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("sentence graph must not contain self-edges")
        if np.any(w < 0.0):
            raise ValueError("sentence graph weights must be non-negative")

    def __len__(self) -> int:
        return self.weights.shape[0]


def _is_symmetric(w: np.ndarray) -> bool:
    """`np.allclose(w, w.T)` for finite `w`: the same elementwise test
    `|w - w.T| <= atol + rtol * |w.T|` with its default tolerances, one block
    of rows at a time."""
    n = w.shape[0]
    rows = max(1, _SYMMETRY_BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        upper, mirrored = w[lo : lo + rows], w[:, lo : lo + rows].T
        if not (np.abs(upper - mirrored) <= 1e-8 + 1e-5 * np.abs(mirrored)).all():
            return False
    return True


def _token_lists(doc: Document) -> list[tuple[str, ...]]:
    if not doc.sentences:
        raise ValueError(f"document {doc.id!r} has no sentences")
    return doc.sentences


# ---------------------------------------------------------------- graphs


def _divide_in_place(gram: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """`gram / denom` where `denom` is positive and 0 elsewhere and on the diagonal, written into `gram`."""
    positive = denom > 0.0
    np.divide(gram, denom, out=gram, where=positive)
    gram[~positive] = 0.0
    np.fill_diagonal(gram, 0.0)
    return gram


def textrank_graph(token_lists: list[list[str]]) -> SentenceGraph:
    """Edges weigh shared token types against log sentence lengths."""
    index = SourceIndex(token_lists)
    shared = index.gram(np.ones(len(index.df)), counted=False)
    logs = np.array([log(len(toks)) for toks in token_lists])
    return SentenceGraph(_divide_in_place(shared, np.add.outer(logs, logs)))


def lexrank_graph(token_lists: list[list[str]], threshold: float) -> SentenceGraph:
    """Tf-idf cosine edges, kept only at or above the threshold.

    Document frequency is computed over this document's sentences.
    """
    n = len(token_lists)
    index = SourceIndex(token_lists)
    idf = np.array([log(n / df) for df in index.df.tolist()])
    gram = index.gram(idf)
    norms = np.sqrt(np.diag(gram))
    cosines = _divide_in_place(gram, np.multiply.outer(norms, norms))
    cosines[cosines < threshold] = 0.0
    return SentenceGraph(cosines)


# ---------------------------------------------------------------- ranking


def power_iteration(graph: SentenceGraph, damping: float, tol: float, max_iter: int) -> np.ndarray:
    """Damped PageRank scores; rows without edges teleport uniformly."""
    n = len(graph)
    row_sums = graph.weights.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    linked = row_sums > 0.0
    np.divide(graph.weights, row_sums[:, None], out=transition, where=linked[:, None])
    scores = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        updated = (1.0 - damping) / n + damping * (transition.T @ scores)
        done = float(np.abs(updated - scores).sum()) < tol
        scores = updated
        if done:
            break
    return scores


def select_by_score(scores: np.ndarray, lengths: list[int], word_limit: int) -> list[int]:
    """Descending-score greedy fill of the word budget, in document order.

    Ties prefer the earlier sentence. If even the top sentence exceeds
    the budget it is returned alone; emission-time truncation caps it.
    """
    order = sorted(range(len(lengths)), key=lambda i: (-scores[i], i))
    chosen: list[int] = []
    used = 0
    for idx in order:
        if used + lengths[idx] > word_limit:
            if not chosen:
                chosen = [idx]
            break
        chosen.append(idx)
        used += lengths[idx]
    return sorted(chosen)


# ---------------------------------------------------------------- methods


def _rank_and_fill(token_lists: list[list[str]], graph: SentenceGraph, config: RunConfig) -> list[int]:
    scores = power_iteration(graph, config.damping, config.pagerank_tol, config.pagerank_max_iter)
    return select_by_score(scores, [len(t) for t in token_lists], config.word_limit)


def textrank(doc: Document, config: RunConfig) -> list[int]:
    token_lists = _token_lists(doc)
    return _rank_and_fill(token_lists, textrank_graph(token_lists), config)


def lexrank(doc: Document, config: RunConfig) -> list[int]:
    token_lists = _token_lists(doc)
    return _rank_and_fill(token_lists, lexrank_graph(token_lists, config.lexrank_threshold), config)


def lead_n(doc: Document, config: RunConfig) -> list[int]:
    """The budget fill over equal scores, which takes sentences in document order."""
    lengths = [len(toks) for toks in _token_lists(doc)]
    return select_by_score(np.zeros(len(lengths)), lengths, config.word_limit)
