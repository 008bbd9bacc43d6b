"""Exact recall-oriented n-gram and subsequence overlap metrics.

All scorers take the candidate (system output) first and the reference
(gold text) second, and return precision, recall, and F1 computed from
clipped unit matches. Tokens are compared as plain strings; callers are
responsible for any normalization before scoring.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

TokenSeq = Sequence[str]
SentenceSeq = Sequence[Sequence[str]]


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(matches: float, candidate_units: float, reference_units: float) -> "RougeScore":
        precision = matches / candidate_units if candidate_units > 0 else 0.0
        recall = matches / reference_units if reference_units > 0 else 0.0
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return RougeScore(precision, recall, f1)


class MetricVariant(enum.Enum):
    R1 = "rouge-1"
    R2 = "rouge-2"
    RL_SUMMARY = "rouge-l-summary"
    RSU4 = "rouge-su4"


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(candidate: TokenSeq, reference: TokenSeq, n: int) -> RougeScore:
    """Clipped n-gram overlap between two flat token sequences."""
    if n < 1:
        raise ValueError(f"n-gram order must be positive, got {n}")
    cand_counts = _ngrams(candidate, n)
    ref_counts = _ngrams(reference, n)
    matches = sum((cand_counts & ref_counts).values())
    return RougeScore.from_counts(matches, sum(cand_counts.values()), sum(ref_counts.values()))


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel over the positions of ``b`` (Allison & Dix 1986; Hyyrö
    2004): one big-int update per token of ``a`` replaces a row of the
    dynamic program, and the LCS length is the number of cleared bits.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        match = masks.get(tok)
        if match:
            u = v & match
            # v - u == v & ~match, since u holds only bits of v.
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def lcs_match_positions(reference: TokenSeq, candidate: TokenSeq) -> tuple[int, ...]:
    """Reference positions used by one maximal common subsequence.

    Of all position sets realizing the LCS length, returns the
    lexicographically smallest, which makes union-based summary scoring
    deterministic.

    The greedy walk needs, for each suffix pair, whether dropping
    ``candidate[j]`` keeps LCS(reference[i:], candidate[j:]). That is the
    bit-parallel recurrence of `lcs_length` run over both sequences
    reversed: ``rows[i]`` is its state after ``reference[i:]``, and its bit
    ``m-1-j`` is set exactly when the LCS does not shrink without
    ``candidate[j]``.
    """
    n, m = len(reference), len(candidate)
    if n == 0 or m == 0:
        return ()
    masks: dict[str, int] = {}
    for j, tok in enumerate(candidate):
        masks[tok] = masks.get(tok, 0) | (1 << (m - 1 - j))
    full = (1 << m) - 1
    rows = [0] * n
    v = full
    for i in range(n - 1, -1, -1):
        match = masks.get(reference[i])
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
        rows[i] = v
    positions = []
    i = j = 0
    while i < n and j < m:
        if reference[i] == candidate[j]:
            positions.append(i)
            i += 1
            j += 1
        elif rows[i] >> (m - 1 - j) & 1:
            j += 1
        else:
            i += 1
    return tuple(positions)


def rouge_l_sentence(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """LCS-based overlap between two flat token sequences."""
    matches = lcs_length(candidate, reference)
    return RougeScore.from_counts(matches, len(candidate), len(reference))


def rouge_l_summary(candidate_sentences: SentenceSeq, reference_sentences: SentenceSeq) -> RougeScore:
    """Union-LCS overlap between two sentence-segmented summaries.

    For each reference sentence, the positions matched by any candidate
    sentence are unioned; the union is then counted against the pooled
    candidate token multiset so a candidate token cannot be credited
    more times than it occurs.
    """
    cand_total = sum(len(s) for s in candidate_sentences)
    ref_total = sum(len(s) for s in reference_sentences)
    if cand_total == 0 or ref_total == 0:
        return RougeScore.from_counts(0, cand_total, ref_total)
    budget = Counter()
    for sent in candidate_sentences:
        budget.update(sent)
    cand_types = [set(sent) for sent in candidate_sentences]
    matches = 0
    for ref_sent in reference_sentences:
        hit_positions: set[int] = set()
        for cand_sent, types in zip(candidate_sentences, cand_types):
            # A pair sharing no token has an empty LCS and adds no position.
            if not types.isdisjoint(ref_sent):
                hit_positions.update(lcs_match_positions(ref_sent, cand_sent))
        for pos in sorted(hit_positions):
            tok = ref_sent[pos]
            if budget[tok] > 0:
                budget[tok] -= 1
                matches += 1
    return RougeScore.from_counts(matches, cand_total, ref_total)


def _su4_units(tokens: TokenSeq) -> Counter:
    """Each unigram, and each ordered pair of tokens 1 to 4 positions apart."""
    units = Counter(zip(tokens))
    for gap in range(1, 5):
        units.update(zip(tokens, tokens[gap:]))
    return units


def rouge_su4(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """Unigram plus skip-bigram overlap with pair indices at most 4 apart."""
    cand_units = _su4_units(candidate)
    ref_units = _su4_units(reference)
    matches = sum((cand_units & ref_units).values())
    return RougeScore.from_counts(matches, sum(cand_units.values()), sum(ref_units.values()))


def _flatten(sentences: SentenceSeq) -> list[str]:
    return [tok for sent in sentences for tok in sent]


def score_variant(variant: MetricVariant, candidate_sentences: SentenceSeq, reference_sentences: SentenceSeq) -> RougeScore:
    """Score a candidate summary against one reference under a variant.

    Both sides are sentence-segmented; variants defined on flat token
    streams see the concatenation in sentence order.
    """
    if variant is MetricVariant.RL_SUMMARY:
        return rouge_l_summary(candidate_sentences, reference_sentences)
    cand_tokens = _flatten(candidate_sentences)
    ref_tokens = _flatten(reference_sentences)
    if variant is MetricVariant.R1:
        return rouge_n(cand_tokens, ref_tokens, 1)
    if variant is MetricVariant.R2:
        return rouge_n(cand_tokens, ref_tokens, 2)
    if variant is MetricVariant.RSU4:
        return rouge_su4(cand_tokens, ref_tokens)
    raise ValueError(f"unknown metric variant: {variant!r}")


def best_against_references(
    candidate_sentences: SentenceSeq,
    reference_sets: Sequence[SentenceSeq],
    variant: MetricVariant,
    aggregation: str,
) -> tuple[RougeScore, int]:
    """Aggregate a candidate's score over several reference summaries.

    With "max" aggregation returns the highest-F1 reference's score and
    its index (ties resolved to the lowest index). With "mean" returns
    componentwise means and index -1.
    """
    if not reference_sets:
        raise ValueError("at least one reference summary is required")
    scores = [score_variant(variant, candidate_sentences, ref) for ref in reference_sets]
    if aggregation == "max":
        best_idx = 0
        for idx, score in enumerate(scores):
            if score.f1 > scores[best_idx].f1:
                best_idx = idx
        return scores[best_idx], best_idx
    if aggregation == "mean":
        k = len(scores)
        return (
            RougeScore(
                sum(s.precision for s in scores) / k,
                sum(s.recall for s in scores) / k,
                sum(s.f1 for s in scores) / k,
            ),
            -1,
        )
    raise ValueError(f"unknown aggregation: {aggregation!r}")
