"""Overlap-metric tests against brute-force oracles and hand-frozen values."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrsum.rouge import (
    MetricVariant,
    RougeScore,
    _ngrams,
    _su4_units,
    best_against_references,
    lcs_length,
    lcs_match_positions,
    rouge_l_sentence,
    rouge_l_summary,
    rouge_n,
    rouge_su4,
    score_variant,
)

# ---------------------------------------------------------------- oracles


def oracle_lcs(a, b):
    """Exponential-time LCS by enumerating subsequences of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    idx = list(range(len(short)))
    for size in range(len(short), 0, -1):
        for combo in itertools.combinations(idx, size):
            sub = [short[i] for i in combo]
            it = iter(long_)
            if all(tok in it for tok in sub):
                return size
    return 0


def dp_lcs_length(a, b):
    """Rolling-row dynamic program; the reference the bit-parallel LCS replaced."""
    if not a or not b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for tok in a:
        cur = [0]
        for j, other in enumerate(b):
            if tok == other:
                cur.append(prev[j] + 1)
            else:
                cur.append(max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def dp_lcs_match_positions(reference, candidate):
    """Full suffix-table dynamic program; the reference the bit-parallel walk replaced."""
    n, m = len(reference), len(candidate)
    if n == 0 or m == 0:
        return ()
    # suffix[i][j] = LCS length of reference[i:] vs candidate[j:]
    suffix = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = suffix[i]
        nxt = suffix[i + 1]
        for j in range(m - 1, -1, -1):
            if reference[i] == candidate[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]
    positions = []
    i = j = 0
    while i < n and j < m:
        if reference[i] == candidate[j]:
            positions.append(i)
            i += 1
            j += 1
        elif suffix[i][j + 1] == suffix[i][j]:
            j += 1
        else:
            i += 1
    return tuple(positions)


def unskipped_rouge_l_summary(candidate_sentences, reference_sentences):
    """Summary-level ROUGE-L with the union taken over every sentence pair."""
    cand_total = sum(len(s) for s in candidate_sentences)
    ref_total = sum(len(s) for s in reference_sentences)
    budget = Counter(tok for sent in candidate_sentences for tok in sent)
    matches = 0
    for ref_sent in reference_sentences:
        hit_positions = set()
        for cand_sent in candidate_sentences:
            hit_positions.update(lcs_match_positions(ref_sent, cand_sent))
        for pos in sorted(hit_positions):
            if budget[ref_sent[pos]] > 0:
                budget[ref_sent[pos]] -= 1
                matches += 1
    return RougeScore.from_counts(matches, cand_total, ref_total)


def oracle_match_positions(reference, candidate):
    """Lexicographically smallest maximum-size reference match set."""
    best = ()
    for size in range(len(reference), 0, -1):
        hits = []
        for combo in itertools.combinations(range(len(reference)), size):
            sub = [reference[i] for i in combo]
            it = iter(candidate)
            if all(tok in it for tok in sub):
                hits.append(combo)
        if hits:
            best = min(hits)
            break
    return best


def oracle_su4_units(tokens):
    units = Counter((tok,) for tok in tokens)
    for i, j in itertools.combinations(range(len(tokens)), 2):
        if j - i <= 4:
            units[(tokens[i], tokens[j])] += 1
    return units


def loop_ngrams(tokens, n):
    """Reference for `rouge._ngrams`: one slice per start position."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def loop_su4_units(tokens):
    """Reference for `rouge._su4_units`: one `Counter` update per unit."""
    units = Counter()
    for i, tok in enumerate(tokens):
        units[(tok,)] += 1
        for j in range(i + 1, min(i + 5, len(tokens))):
            units[(tok, tokens[j])] += 1
    return units


tokens4 = st.lists(st.sampled_from("abcd"), max_size=12)
sentences4 = st.lists(st.lists(st.sampled_from("abcd"), max_size=6), max_size=4)
# Past one 64-bit word, over alphabets small enough that matches and repeats are dense.
def _long_list(alphabet):
    return st.integers(0, 150).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    )


long_tokens = st.sampled_from(["ab", "abcd"]).flatmap(
    lambda alphabet: st.tuples(_long_list(alphabet), _long_list(alphabet))
)
def _mid_pair(alphabet):
    tokens = st.lists(st.sampled_from(alphabet), max_size=60)
    return st.tuples(tokens, tokens)


mid_tokens = st.sampled_from(["ab", "abcd"]).flatmap(_mid_pair)
sentences8 = st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8), max_size=5)


# ---------------------------------------------------------------- lcs


def test_lcs_length_frozen():
    assert lcs_length(["a", "b", "c"], ["a", "b", "c"]) == 3
    assert lcs_length(["a", "b"], ["c", "d"]) == 0
    assert lcs_length(["a", "b", "c", "d"], ["a", "c", "b", "d"]) == 3
    assert lcs_length([], ["a"]) == 0


@settings(max_examples=300)
@given(tokens4, tokens4)
def test_lcs_length_matches_enumeration(a, b):
    assert lcs_length(a, b) == oracle_lcs(a, b)


@settings(max_examples=300)
@given(long_tokens)
def test_lcs_length_matches_dp_on_long_sequences(pair):
    a, b = pair
    assert lcs_length(a, b) == dp_lcs_length(a, b)
    assert lcs_length(b, a) == dp_lcs_length(a, b)


def test_lcs_length_matches_dp_across_word_boundaries():
    a = ["a", "b"] * 70 + ["c"]
    b = ["b"] * 64 + ["c"] + ["a", "b"] * 40
    assert lcs_length(a, b) == dp_lcs_length(a, b) == 110  # b^30 then (ab)^40
    assert lcs_length(a, a) == len(a)


@settings(max_examples=300)
@given(tokens4, tokens4)
def test_match_positions_are_valid_and_smallest(ref, cand):
    positions = lcs_match_positions(ref, cand)
    assert list(positions) == sorted(set(positions))
    sub = [ref[i] for i in positions]
    it = iter(cand)
    assert all(tok in it for tok in sub)
    assert len(positions) == lcs_length(ref, cand)
    assert positions == tuple(oracle_match_positions(ref, cand))


@settings(max_examples=300)
@given(mid_tokens)
def test_match_positions_match_dp(pair):
    ref, cand = pair
    assert lcs_match_positions(ref, cand) == dp_lcs_match_positions(ref, cand)
    assert lcs_match_positions(cand, ref) == dp_lcs_match_positions(cand, ref)


def test_match_positions_match_dp_across_word_boundaries():
    ref = ["a", "b"] * 40 + ["c"]
    cand = ["b"] * 66 + ["c"]
    expected = tuple(range(1, 80, 2)) + (80,)
    assert lcs_match_positions(ref, cand) == dp_lcs_match_positions(ref, cand) == expected
    a = ["a", "b"] * 70 + ["c"]
    b = ["b"] * 64 + ["c"] + ["a", "b"] * 40
    for x, y in ((a, b), (b, a)):
        positions = lcs_match_positions(x, y)
        assert positions == dp_lcs_match_positions(x, y)
        assert len(positions) == 110


# ---------------------------------------------------------------- rouge-n


def test_rouge_n_frozen():
    same = rouge_n(["x", "y"], ["x", "y"], 1)
    assert (same.precision, same.recall, same.f1) == (1.0, 1.0, 1.0)
    uni = rouge_n(["the", "cat", "sat"], ["the", "cat", "ate"], 1)
    assert uni.precision == pytest.approx(2 / 3)
    assert uni.recall == pytest.approx(2 / 3)
    assert uni.f1 == pytest.approx(2 / 3)
    bi = rouge_n(["the", "cat", "sat"], ["the", "cat", "ate"], 2)
    assert (bi.precision, bi.recall, bi.f1) == (0.5, 0.5, 0.5)


def test_rouge_n_short_sequences_score_zero():
    assert rouge_n(["a"], ["a", "b"], 2) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_n([], [], 1) == RougeScore(0.0, 0.0, 0.0)


def test_rouge_n_clipping_uses_multiset_counts():
    score = rouge_n(["a", "a", "a"], ["a", "b"], 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_n_rejects_bad_order():
    with pytest.raises(ValueError):
        rouge_n(["a"], ["a"], 0)


# ---------------------------------------------------------------- rouge-l


def test_rouge_l_sentence_frozen():
    same = rouge_l_sentence(["a", "b"], ["a", "b"])
    assert (same.precision, same.recall, same.f1) == (1.0, 1.0, 1.0)
    score = rouge_l_sentence(["a", "b", "c", "d"], ["a", "c", "b", "d"])
    assert (score.precision, score.recall) == (0.75, 0.75)
    assert rouge_l_sentence(["a"], []) == RougeScore(0.0, 0.0, 0.0)


def test_rouge_l_summary_frozen():
    same = rouge_l_summary([["a", "b"], ["c"]], [["a", "b"], ["c"]])
    assert (same.precision, same.recall, same.f1) == (1.0, 1.0, 1.0)
    score = rouge_l_summary([["the", "cat", "runs"]], [["the", "cat"], ["dogs", "run"]])
    assert score.recall == pytest.approx(0.5)
    assert score.precision == pytest.approx(2 / 3)


def test_rouge_l_summary_clips_repeated_credit():
    # One candidate token may not satisfy two reference sentences.
    score = rouge_l_summary([["a"]], [["a"], ["a"]])
    assert score.precision == pytest.approx(1.0)
    assert score.recall == pytest.approx(0.5)


@settings(max_examples=200)
@given(tokens4, tokens4)
def test_rouge_l_summary_single_pair_equals_sentence(cand, ref):
    summary = rouge_l_summary([cand], [ref])
    sentence = rouge_l_sentence(cand, ref)
    assert summary.precision == pytest.approx(sentence.precision)
    assert summary.recall == pytest.approx(sentence.recall)


@settings(max_examples=200)
@given(sentences4, sentences4, st.randoms(use_true_random=False))
def test_rouge_l_summary_candidate_order_invariant(cands, refs, rng):
    base = rouge_l_summary(cands, refs)
    shuffled = list(cands)
    rng.shuffle(shuffled)
    again = rouge_l_summary(shuffled, refs)
    assert again.precision == pytest.approx(base.precision)
    assert again.recall == pytest.approx(base.recall)


@settings(max_examples=300)
@given(sentences8, sentences8)
def test_rouge_l_summary_disjoint_skip_matches_full_union(cands, refs):
    assert rouge_l_summary(cands, refs) == unskipped_rouge_l_summary(cands, refs)


# ---------------------------------------------------------------- rouge-su4


def test_rouge_su4_frozen():
    same = rouge_su4(["p", "q", "r"], ["p", "q", "r"])
    assert (same.precision, same.recall, same.f1) == (1.0, 1.0, 1.0)
    score = rouge_su4(["a", "b", "c"], ["a", "c", "b"])
    assert score.precision == pytest.approx(5 / 6)
    assert score.recall == pytest.approx(5 / 6)
    single = rouge_su4(["x"], ["x"])
    assert (single.precision, single.recall, single.f1) == (1.0, 1.0, 1.0)


def test_rouge_su4_window_is_four():
    # Indices 0 and 5 are too far apart to pair; 0 and 4 are not.
    far = ["a", "x", "x", "x", "x", "b"]
    near = ["a", "x", "x", "x", "b"]
    assert (("a", "b") in oracle_su4_units(near)) and (("a", "b") not in oracle_su4_units(far))
    assert rouge_su4(far, far).f1 == 1.0
    assert rouge_su4(["a", "b"], far).precision < rouge_su4(["a", "b"], near).precision


@settings(max_examples=300)
@given(tokens4, tokens4)
def test_rouge_su4_matches_enumeration(cand, ref):
    cand_units = oracle_su4_units(cand)
    ref_units = oracle_su4_units(ref)
    matches = sum((cand_units & ref_units).values())
    expected = RougeScore.from_counts(matches, sum(cand_units.values()), sum(ref_units.values()))
    got = rouge_su4(cand, ref)
    assert got.precision == pytest.approx(expected.precision)
    assert got.recall == pytest.approx(expected.recall)
    assert got.f1 == pytest.approx(expected.f1)


short_tokens = st.one_of(
    st.lists(st.sampled_from("ab"), max_size=4),
    st.lists(st.sampled_from("abc"), max_size=16),
    st.lists(st.sampled_from("abcdef"), max_size=40).map(tuple),
)


@settings(max_examples=400)
@given(short_tokens, short_tokens, st.integers(1, 5))
def test_unit_counts_match_their_loops(cand, ref, n):
    assert _su4_units(cand) == loop_su4_units(cand)
    assert _ngrams(cand, n) == loop_ngrams(cand, n)
    cand_units, ref_units = loop_su4_units(cand), loop_su4_units(ref)
    matches = sum((cand_units & ref_units).values())
    assert rouge_su4(cand, ref) == RougeScore.from_counts(matches, sum(cand_units.values()), sum(ref_units.values()))
    cand_grams, ref_grams = loop_ngrams(cand, n), loop_ngrams(ref, n)
    matches = sum((cand_grams & ref_grams).values())
    assert rouge_n(cand, ref, n) == RougeScore.from_counts(matches, sum(cand_grams.values()), sum(ref_grams.values()))


# ---------------------------------------------------------------- shared properties


@settings(max_examples=200)
@given(tokens4, tokens4)
def test_symmetry_of_ngram_metrics(a, b):
    for fn in (lambda x, y: rouge_n(x, y, 1), lambda x, y: rouge_n(x, y, 2), rouge_su4):
        assert fn(a, b).precision == pytest.approx(fn(b, a).recall)


@settings(max_examples=200)
@given(sentences4, sentences4)
def test_bounds_all_variants(cands, refs):
    for variant in MetricVariant:
        score = score_variant(variant, cands, refs)
        for part in (score.precision, score.recall, score.f1):
            assert 0.0 <= part <= 1.0 + 1e-12
        assert score.f1 <= max(score.precision, score.recall) + 1e-12


# ---------------------------------------------------------------- aggregation


def test_best_against_references_single():
    cand = [["a", "b"]]
    ref = [["a", "b"]]
    score, idx = best_against_references(cand, [ref], MetricVariant.R1, "max")
    assert idx == 0 and score.f1 == 1.0


def test_best_against_references_perfect_dominates():
    cand = [["u", "v", "w"]]
    refs = [[["u", "v", "w"]], [["zzz"]]]
    score, idx = best_against_references(cand, refs, MetricVariant.RL_SUMMARY, "max")
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
    assert idx == 0


def test_best_against_references_picks_max_f1():
    cand = [["a", "b", "c", "d"]]
    weak = [["a", "x", "y", "z"]]
    strong = [["a", "b", "c", "q"]]
    score, idx = best_against_references(cand, [weak, strong], MetricVariant.R1, "max")
    direct = score_variant(MetricVariant.R1, cand, strong)
    assert idx == 1 and score.f1 == pytest.approx(direct.f1)


def test_best_against_references_tie_prefers_lowest_index():
    cand = [["a", "b"]]
    refs = [[["a", "q"]], [["b", "q"]]]
    _, idx = best_against_references(cand, refs, MetricVariant.R1, "max")
    assert idx == 0


def test_best_against_references_mean():
    cand = [["a", "b"]]
    refs = [[["a", "b"]], [["zzz", "qqq"]]]
    score, idx = best_against_references(cand, refs, MetricVariant.R1, aggregation="mean")
    assert idx == -1
    assert score.f1 == pytest.approx(0.5)


def test_best_against_references_empty_errors():
    with pytest.raises(ValueError):
        best_against_references([["a"]], [], MetricVariant.R1, "max")
    with pytest.raises(ValueError):
        best_against_references([["a"]], [[["a"]]], MetricVariant.R1, aggregation="median")
