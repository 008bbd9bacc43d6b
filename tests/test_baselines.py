"""Graph-baseline tests: edge math, PageRank, budgeted selection."""

import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrsum.baselines import (
    SentenceGraph,
    _is_symmetric,
    lead_n,
    lexrank,
    lexrank_graph,
    power_iteration,
    select_by_score,
    textrank,
    textrank_graph,
)
from narrsum.config import RunConfig
from narrsum.corpus import Document
from narrsum.oracle import _PAIR_DF_RATIO, SourceIndex

CONFIG = RunConfig()


def pagerank(graph: SentenceGraph) -> np.ndarray:
    """`power_iteration` with the published damping, tolerance and iteration cap."""
    return power_iteration(graph, CONFIG.damping, CONFIG.pagerank_tol, CONFIG.pagerank_max_iter)


def mk_doc(token_lists, doc_id="d"):
    return Document(id=doc_id, sentences=[tuple(toks) for toks in token_lists], summaries=[])


def dense_pagerank(graph: SentenceGraph, damping=0.85) -> np.ndarray:
    """Principal eigenvector of the full transition matrix, L1-normalized."""
    n = len(graph)
    row_sums = graph.weights.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    linked = row_sums > 0.0
    transition[linked] = graph.weights[linked] / row_sums[linked, None]
    google = (1.0 - damping) / n + damping * transition.T
    eigvals, eigvecs = np.linalg.eig(google)
    principal = np.argmax(eigvals.real)
    vec = np.abs(eigvecs[:, principal].real)
    return vec / vec.sum()


def pair_loop_textrank_weights(token_lists):
    """Reference: the pair-loop TextRank builder the matrix form replaced."""
    n = len(token_lists)
    sets = [set(toks) for toks in token_lists]
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            denom = math.log(len(token_lists[i])) + math.log(len(token_lists[j]))
            if denom > 0.0:
                weights[i, j] = weights[j, i] = len(sets[i] & sets[j]) / denom
    return weights


def pair_loop_lexrank_weights(token_lists, threshold):
    """Reference: the pair-loop LexRank builder; returns (weights, raw cosines)."""
    n = len(token_lists)
    vocabulary = sorted({tok for toks in token_lists for tok in toks})
    index = {tok: k for k, tok in enumerate(vocabulary)}
    df = Counter(tok for toks in token_lists for tok in set(toks))
    idf = np.array([math.log(n / df[tok]) for tok in vocabulary])
    tf = np.zeros((n, len(vocabulary)))
    for i, toks in enumerate(token_lists):
        for tok, count in Counter(toks).items():
            tf[i, index[tok]] = count
    vectors = tf * idf
    norms = np.linalg.norm(vectors, axis=1)
    weights = np.zeros((n, n))
    cosines = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] > 0.0 and norms[j] > 0.0:
                cosine = float(vectors[i] @ vectors[j] / (norms[i] * norms[j]))
                cosines[i, j] = cosines[j, i] = cosine
                if cosine >= threshold:
                    weights[i, j] = weights[j, i] = cosine
    return weights, cosines


def dense_term_counts(token_lists):
    """Reference: the sentences x sorted-vocabulary count matrix the dense builders read."""
    vocabulary = sorted({tok for toks in token_lists for tok in toks})
    index = {tok: k for k, tok in enumerate(vocabulary)}
    rows, cols, values = [], [], []
    for i, toks in enumerate(token_lists):
        for tok, count in Counter(toks).items():
            rows.append(i)
            cols.append(index[tok])
            values.append(count)
    counts = np.zeros((len(token_lists), len(vocabulary)))
    counts[rows, cols] = values
    return counts


def dense_textrank_weights(token_lists):
    """Reference: TextRank as one product over the dense 0/1 term matrix."""
    present = np.minimum(dense_term_counts(token_lists), 1.0)
    shared = present @ present.T
    logs = np.array([math.log(len(toks)) for toks in token_lists])
    denom = logs[:, None] + logs[None, :]
    weights = np.divide(shared, denom, out=np.zeros_like(shared), where=denom > 0.0)
    np.fill_diagonal(weights, 0.0)
    return weights


def dense_lexrank_weights(token_lists, threshold):
    """Reference: LexRank as one product over the dense tf-idf matrix."""
    n = len(token_lists)
    vectors = dense_term_counts(token_lists)
    vectors *= np.array([math.log(n / df) for df in np.count_nonzero(vectors, axis=0).tolist()])
    norms = np.linalg.norm(vectors, axis=1)
    gram = vectors @ vectors.T
    denom = norms[:, None] * norms[None, :]
    cosines = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0)
    weights = np.where(cosines >= threshold, cosines, 0.0)
    np.fill_diagonal(weights, 0.0)
    return weights


def dense_power_iteration(weights, damping=0.85, tol=1e-6, max_iter=100):
    """Reference: PageRank with the transition rows filled by a boolean-mask copy."""
    n = len(weights)
    row_sums = weights.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    linked = row_sums > 0.0
    transition[linked] = weights[linked] / row_sums[linked, None]
    scores = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        updated = (1.0 - damping) / n + damping * (transition.T @ scores)
        done = float(np.abs(updated - scores).sum()) < tol
        scores = updated
        if done:
            break
    return scores


def blocked_gram(index: SourceIndex, type_weights, counted=True):
    """Reference: `SourceIndex.gram` as one dense path, the postings of n
    consecutive types at a time scattered into an n x n block and multiplied."""
    n = len(index.sentences)
    df = index.df
    values = np.repeat(type_weights, df)
    if counted:
        values *= index._counts
    width = max(n, 1)
    gram = np.zeros((n, n))
    block = np.zeros((n, width))
    product = np.empty((n, n))
    for first in range(0, len(df), width):
        used = min(width, len(df) - first)
        lo, hi = index._starts[first], index._starts[first + used]
        rows, cols = index._ids[lo:hi], np.repeat(np.arange(used), df[first : first + used])
        block[rows, cols] = values[lo:hi]
        gram += np.matmul(block[:, :used], block[:, :used].T, out=product)
        block[rows, cols] = 0.0
    return gram


# ---------------------------------------------------------------- graphs


def test_textrank_edge_weight_frozen():
    g = textrank_graph([["a", "b", "c"], ["b", "c", "d"]])
    assert g.weights[0, 1] == pytest.approx(2.0 / (2.0 * math.log(3)))


def test_textrank_zero_denominator_gives_zero_edge():
    g = textrank_graph([["a"], ["a"]])
    assert g.weights[0, 1] == 0.0


def test_textrank_counts_shared_types_not_occurrences():
    g = textrank_graph([["a", "a", "b"], ["a", "a", "c"]])
    assert g.weights[0, 1] == pytest.approx(1.0 / (2.0 * math.log(3)))


def test_lexrank_cosine_frozen():
    # idf: a = ln(3/2), others = ln 3. cos(s0, s1) carried only by "a".
    g = lexrank_graph([["a", "b"], ["a", "c"], ["d", "e"]], CONFIG.lexrank_threshold)
    ia, ib = math.log(3 / 2), math.log(3)
    expected = ia * ia / (ia * ia + ib * ib)
    assert g.weights[0, 1] == pytest.approx(expected)
    assert g.weights[0, 2] == 0.0


def test_lexrank_threshold_prunes_weak_edges():
    sentences = [
        ["a", "b", "c", "d", "e"],
        ["a", "f", "g", "h", "i"],
        ["j", "k"],
    ]
    pruned = lexrank_graph(sentences, threshold=0.1)
    kept = lexrank_graph(sentences, threshold=0.01)
    assert pruned.weights[0, 1] == 0.0
    assert kept.weights[0, 1] > 0.0


@st.composite
def ragged_documents(draw):
    """1-60 sentences of 1-30 tokens over 2-2000 types, some repeated."""
    n_types = draw(st.integers(min_value=2, max_value=2000))
    n_sentences = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    token_lists = []
    for _ in range(n_sentences):
        if token_lists and rng.uniform() < 0.2:
            token_lists.append(list(token_lists[int(rng.integers(len(token_lists)))]))
        else:
            length = int(rng.integers(1, 31))
            token_lists.append([f"t{int(k)}" for k in rng.integers(n_types, size=length)])
    return token_lists


@settings(max_examples=150, deadline=None)
@given(ragged_documents())
def test_textrank_graph_matches_pair_loop(token_lists):
    assert np.array_equal(textrank_graph(token_lists).weights, pair_loop_textrank_weights(token_lists))


@settings(max_examples=150, deadline=None)
@given(ragged_documents(), st.sampled_from([0.0, 0.01, 0.1, 0.3]))
def test_lexrank_graph_matches_pair_loop(token_lists, threshold):
    got = lexrank_graph(token_lists, threshold).weights
    want, cosines = pair_loop_lexrank_weights(token_lists, threshold)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    away = np.abs(cosines - threshold) > 1e-12
    assert np.array_equal((got != 0.0)[away], (want != 0.0)[away])


@settings(max_examples=150, deadline=None)
@given(ragged_documents())
def test_textrank_blocks_match_dense_product(token_lists):
    graph = textrank_graph(token_lists)
    want = dense_textrank_weights(token_lists)
    assert np.array_equal(graph.weights, want)
    assert np.array_equal(pagerank(graph), dense_power_iteration(want))


@settings(max_examples=150, deadline=None)
@given(ragged_documents(), st.sampled_from([0.0, 0.01, 0.1, 0.3]))
def test_lexrank_blocks_match_dense_product(token_lists, threshold):
    got = lexrank_graph(token_lists, threshold).weights
    want = dense_lexrank_weights(token_lists, threshold)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    _, cosines = pair_loop_lexrank_weights(token_lists, threshold)
    away = np.abs(cosines - threshold) > 1e-12
    assert np.array_equal((got != 0.0)[away], (want != 0.0)[away])


@st.composite
def two_path_documents(draw):
    """1-150 sentences: a few types held by most sentences and a long tail,
    some tokens repeated. `paths` "rare" builds only types that take the pair
    path of `SourceIndex.gram`, and "dense" has fewer sentences than
    `_PAIR_DF_RATIO`, so that every type takes the dense blocks."""
    paths = draw(st.sampled_from(["mixed", "rare", "dense"]))
    low, high = {"mixed": (1, 150), "rare": (_PAIR_DF_RATIO, 150), "dense": (1, _PAIR_DF_RATIO - 1)}[paths]
    n = draw(st.integers(min_value=low, max_value=high))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    token_lists = [[] for _ in range(n)]
    if paths == "rare":
        for t in range(int(rng.integers(1, 40 * n))):
            for i in rng.choice(n, size=int(rng.integers(1, n // _PAIR_DF_RATIO + 1)), replace=False).tolist():
                token_lists[i] += [f"t{t}"] * int(rng.integers(1, 3))
    else:
        common = int(rng.integers(0, 5))
        tail = int(rng.integers(1, 3000))
        for toks in token_lists:
            toks += [f"c{k}" for k in range(common) if rng.uniform() < 0.8]
            toks += [f"t{int(k)}" for k in rng.integers(tail, size=int(rng.integers(0, 31)))]
    for i, toks in enumerate(token_lists):
        # Every sentence holds a token, and its first token twice.
        toks.append(toks[0] if toks else f"only{i}")
        rng.shuffle(toks)
    return paths, token_lists


def reference_graphs(token_lists, threshold):
    """TextRank and LexRank weights built with `blocked_gram` as the gram."""
    with mock.patch.object(SourceIndex, "gram", blocked_gram):
        return textrank_graph(token_lists).weights, lexrank_graph(token_lists, threshold).weights


@settings(max_examples=150, deadline=None)
@given(two_path_documents(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_matches_blocked_reference(document, counted, seed):
    paths, token_lists = document
    n, index = len(token_lists), SourceIndex(token_lists)
    rare = _PAIR_DF_RATIO * index.df <= n
    assert {"rare": rare.all(), "dense": not rare.any(), "mixed": True}[paths]
    ones = np.ones(len(index.df))
    assert np.array_equal(index.gram(ones, counted), blocked_gram(index, ones, counted))
    rng = np.random.default_rng(seed)
    weights = np.where(rng.uniform(size=len(ones)) < 0.2, 0.0, rng.uniform(0.0, 3.0, size=len(ones)))
    got, want = index.gram(weights, counted), blocked_gram(index, weights, counted)
    assert got.shape == (n, n)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(got == 0.0, want == 0.0)


@settings(max_examples=150, deadline=None)
@given(two_path_documents(), st.sampled_from([0.0, 0.01, 0.1, 0.3]))
def test_graphs_match_blocked_reference(document, threshold):
    _, token_lists = document
    textrank_want, lexrank_want = reference_graphs(token_lists, threshold)
    textrank_got = textrank_graph(token_lists)
    assert np.array_equal(textrank_got.weights, textrank_want)
    assert np.array_equal(pagerank(textrank_got), pagerank(SentenceGraph(textrank_want)))
    lexrank_got = lexrank_graph(token_lists, threshold).weights
    assert np.allclose(lexrank_got, lexrank_want, rtol=0.0, atol=1e-12)
    _, cosines = pair_loop_lexrank_weights(token_lists, threshold)
    away = np.abs(cosines - threshold) > 1e-12
    assert np.array_equal((lexrank_got != 0.0)[away], (lexrank_want != 0.0)[away])


@pytest.mark.parametrize("counted", [False, True])
def test_gram_pair_path_memory_stays_within_four_square_arrays(counted):
    # 240 sentences of about 50 tokens, each type held by 10 of them: every
    # type takes the pair path, and their 120 000 pairs fill its buffers of
    # n * n // 2 pairs four times over.
    rng = np.random.default_rng(9)
    n = 240
    token_lists = [[] for _ in range(n)]
    for t in range(1200):
        for i in rng.choice(n, size=n // _PAIR_DF_RATIO, replace=False).tolist():
            token_lists[i].append(f"t{t}")
    index = SourceIndex(token_lists)
    assert (_PAIR_DF_RATIO * index.df <= n).all() and int(np.dot(index.df, index.df)) > 4 * (n * n // 2)
    weights = np.ones(len(index.df))
    tracemalloc.start()
    try:
        gram = index.gram(weights, counted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8
    assert np.array_equal(gram, blocked_gram(index, weights, counted))


@pytest.mark.parametrize("builder", [textrank_graph, lexrank_graph])
def test_graph_memory_stays_within_four_square_arrays(builder):
    # 400 sentences over 6000 types: a sentences x vocabulary matrix alone is 15 n x n arrays.
    rng = np.random.default_rng(7)
    n = 400
    token_lists = [[f"t{int(k)}" for k in rng.integers(6000, size=int(rng.integers(1, 31)))] for _ in range(n)]
    threshold = (CONFIG.lexrank_threshold,) if builder is lexrank_graph else ()
    tracemalloc.start()
    try:
        builder(token_lists, *threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8


def test_graph_validation_peaks_below_one_square_array():
    # The symmetry check runs one block of rows at a time; a whole-matrix
    # `np.allclose(w, w.T)` peaked at about 2.2 n x n arrays here.
    rng = np.random.default_rng(8)
    n = 400
    token_lists = [[f"t{int(k)}" for k in rng.integers(300, size=int(rng.integers(1, 31)))] for _ in range(n)]
    weights = textrank_graph(token_lists).weights
    tracemalloc.start()
    try:
        SentenceGraph(weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@st.composite
def near_symmetric(draw):
    """A symmetric matrix of 1-200 rows with a few entries moved by about the
    tolerance of `np.allclose` (atol 1e-8 plus rtol 1e-5 of the mirror)."""
    n = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    w = rng.uniform(0.0, draw(st.sampled_from([1e-9, 1.0, 1e6])), size=(n, n))
    w = w + w.T
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = rng.integers(n, size=2)
        w[i, j] += (1e-8 + 1e-5 * abs(w[j, i])) * draw(st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]))
    return w


@settings(max_examples=300, deadline=None)
@given(near_symmetric())
def test_blocked_symmetry_check_matches_allclose(w):
    assert _is_symmetric(w) == np.allclose(w, w.T)


def test_graph_validation():
    with pytest.raises(ValueError, match="square"):
        SentenceGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        SentenceGraph(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        SentenceGraph(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        SentenceGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="self-edges"):
        SentenceGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        SentenceGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------- pagerank


def hub_doc():
    # Sentence 2 shares one token with every other; the rest are disjoint.
    return mk_doc(
        [
            ["h0", "x0", "y0"],
            ["h1", "x1", "y1"],
            ["h0", "h1", "h2", "h3"],
            ["h2", "x2", "y2"],
            ["h3", "x3", "y3"],
        ]
    )


def test_hub_ranked_first_textrank():
    doc = hub_doc()
    graph = textrank_graph(doc.sentences)
    scores = pagerank(graph)
    assert int(np.argmax(scores)) == 2
    assert np.allclose(scores, dense_pagerank(graph), atol=1e-5)


def test_hub_ranked_first_lexrank():
    doc = hub_doc()
    graph = lexrank_graph(doc.sentences, threshold=0.01)
    scores = pagerank(graph)
    assert int(np.argmax(scores)) == 2
    assert np.allclose(scores, dense_pagerank(graph), atol=1e-5)


def test_disconnected_graph_uniform_scores():
    graph = textrank_graph([["a", "b"], ["c", "d"], ["e", "f"]])
    scores = pagerank(graph)
    assert np.allclose(scores, 1.0 / 3.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_iteration_matches_dense_solve(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    # Randomly disconnect some nodes to exercise the dangling rule.
    for i in range(n):
        if rng.uniform() < 0.3:
            raw[i, :] = 0.0
            raw[:, i] = 0.0
    graph = SentenceGraph(raw)
    scores = pagerank(graph)
    assert np.all(scores >= 0.0)
    assert abs(scores.sum() - 1.0) <= 1e-9
    assert np.allclose(scores, dense_pagerank(graph), atol=1e-5)


def test_identical_sentences_equal_scores():
    graph = lexrank_graph([["a", "b"], ["a", "b"], ["a", "b"]], CONFIG.lexrank_threshold)
    scores = pagerank(graph)
    assert np.allclose(scores, scores[0])


# ---------------------------------------------------------------- selection


def test_select_by_score_budget_and_order():
    scores = np.array([0.1, 0.5, 0.2, 0.4])
    lengths = [10, 10, 10, 10]
    assert select_by_score(scores, lengths, 25) == [1, 3]
    assert select_by_score(scores, lengths, 100) == [0, 1, 2, 3]


def test_select_by_score_stops_at_first_violation():
    # Highest score is long; the budget stops there even though a later
    # shorter sentence would fit.
    scores = np.array([0.9, 0.5, 0.4])
    lengths = [10, 20, 2]
    assert select_by_score(scores, lengths, 15) == [0]


def test_select_by_score_tie_prefers_lower_index():
    scores = np.array([0.5, 0.5, 0.5])
    assert select_by_score(scores, [10, 10, 10], 20) == [0, 1]


def test_select_top_alone_over_budget_still_returned():
    scores = np.array([0.2, 0.9])
    assert select_by_score(scores, [5, 50], 10) == [1]


# ---------------------------------------------------------------- methods


def test_single_sentence_doc():
    doc = mk_doc([["only", "sentence", "here"]])
    assert textrank(doc, CONFIG) == [0]
    assert lexrank(doc, CONFIG) == [0]
    assert lead_n(doc, CONFIG) == [0]


def test_empty_doc_rejected():
    doc = mk_doc([])
    for method in (textrank, lexrank, lead_n):
        with pytest.raises(ValueError, match="no sentences"):
            method(doc, CONFIG)


def test_lead_arithmetic():
    doc = mk_doc([["w"] * 10, ["w"] * 10, ["w"] * 10])
    assert lead_n(doc, RunConfig(word_limit=25)) == [0, 1]
    assert lead_n(doc, RunConfig(word_limit=100)) == [0, 1, 2]


def test_lead_first_sentence_over_limit():
    doc = mk_doc([["w"] * 30, ["w"] * 2])
    assert lead_n(doc, RunConfig(word_limit=5)) == [0]


def loop_lead_n(doc, word_limit):
    """The lead-N fill written as its own loop; the reference `lead_n` replaced."""
    chosen = []
    used = 0
    for i, sentence in enumerate(doc.sentences):
        if used + len(sentence) > word_limit:
            if not chosen:
                chosen = [0]
            break
        chosen.append(i)
        used += len(sentence)
    return chosen


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=30), st.integers(1, 200))
def test_lead_n_matches_its_own_loop(lengths, word_limit):
    doc = mk_doc([["w"] * n for n in lengths])
    assert lead_n(doc, RunConfig(word_limit=word_limit)) == loop_lead_n(doc, word_limit)


def test_methods_output_document_order():
    doc = hub_doc()
    picked = textrank(doc, RunConfig(word_limit=7))  # hub (4 tokens) + one 3-token sentence
    assert picked == sorted(picked)
    assert 2 in picked


def test_disconnected_selection_prefers_leading_ties():
    doc = mk_doc([["a", "b"], ["c", "d"], ["e", "f"]])
    assert textrank(doc, RunConfig(word_limit=4)) == [0, 1]
