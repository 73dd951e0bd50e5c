"""Candidate weighting by Poisson deconvolution, and ranking.

Each unordered webpage pair covered by at least one candidate gets an
observation a_ij (the graph weight, zero if the pair is not an edge). The
model explains a_ij as a Poisson count with mean w_ij = sum_k mu_k C_k_ij,
where C_k_ij is 1 when candidate k contains both endpoints. The nonnegative
candidate weights mu maximize the likelihood

    sum_ij ( a_ij * log(w_ij) - w_ij )

over the covered pairs, fitted with the classic multiplicative update

    mu_k <- mu_k * ( sum_{ij in C_k} a_ij / w_ij ) / |pairs(C_k)|

which never leaves the nonnegative orthant and never decreases the
likelihood. A covered pair with a_ij = 0 adds nothing to the numerator, and
|pairs(C_k)| = s_k(s_k-1)/2 in closed form, so the fit runs over the covered
edges only, looked up in the graph's CSR arrays; the -w_ij terms of the
likelihood sum to -sum_k mu_k |pairs(C_k)|. A candidate's interestingness is its weight
times its size, so a small dense fragment can outrank a big sparse blob of
noise.

The coverage is built from page classes (pages held by the same
candidates), never from one key per (pair, candidate) incidence: it costs
the distinct covered pairs plus the class pairs each candidate holds, not
sum_k s_k(s_k-1)/2, and the starting guess still sums the distinct covered
pairs in the order in which the candidates first list them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Generator, Sequence

import numpy as np

from .candidates import TopicCandidate
from .errors import ConvergenceError, InputError, check_int
from .graph import SimilarityGraph

# Lower guard for the model mean inside the update ratio; keeps a zero mean
# from producing inf while leaving converged values untouched.
MEAN_GUARD = 1e-12

DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[t] .. starts[t] + counts[t] - 1, concatenated."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(len(out))
    return out


@dataclass
class RankedTopicList:
    """Candidates sorted by descending interestingness.

    indices maps each rank position back to the candidate's position in the
    original input list; ties in interestingness keep the smaller original
    index first.
    """

    items: list[TopicCandidate]
    indices: list[int]


class _Coverage:
    """Covered-edge view of a candidate list against a graph.

    Its (edge, candidate) entries run in ascending pair-key order, one
    edge's candidates ascending, so that both products below add each
    output's terms in the order of the CSC/CSR matvecs they replace.

    It is built from page classes: pages held by the same candidates form
    a class, and a pair drawn from classes A and B is covered by exactly
    the candidates holding both. No array holds one entry per (pair,
    candidate) incidence: the distinct covered pairs take one float each,
    for the starting guess, and the rest grows with the class pairs each
    candidate holds and the graph's edges.
    """

    def __init__(self, g: SimilarityGraph, candidates: Sequence[TopicCandidate]):
        if not candidates:
            raise InputError("no candidates to weight")
        n = g.n
        members = [cand.members for cand in candidates]
        sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        n_pairs = sizes * (sizes - 1) // 2
        holders: dict[int, list[int]] = {}  # page -> candidates holding it
        for k, pages in enumerate(members):
            for page in pages:
                holders.setdefault(page, []).append(k)
        if max(holders) >= n:
            largest = next(max(pages) for pages in members if max(pages) >= n)
            raise InputError(f"candidate member {largest} outside graph (n={n})")
        classes: dict[tuple[int, ...], int] = {}  # holders -> class, numbered as first met
        pages = np.fromiter(holders, dtype=np.int64, count=len(holders))
        page_class = np.zeros(n, dtype=np.int64)
        page_class[pages] = [classes.setdefault(tuple(h), len(classes)) for h in holders.values()]
        n_classes = len(classes)
        pages = np.sort(page_class[pages] * n + pages) % n  # by class, ascending within
        class_size = np.bincount(page_class[pages], minlength=n_classes)
        class_start = np.cumsum(class_size) - class_size
        # (candidate, class) entries by candidate, then class
        held_by = np.fromiter(map(len, classes), dtype=np.int64, count=n_classes)
        entry_k = np.fromiter(chain.from_iterable(classes), dtype=np.int64, count=int(held_by.sum()))
        # A page's holders as bits k mod 63, 0 if unheld: no candidate covers
        # an edge whose ends share no bit, so the edge lookup skips it.
        bits = np.zeros(n, dtype=np.int64)
        bits[pages] = np.bitwise_or.reduceat(1 << entry_k % 63, np.cumsum(held_by) - held_by)[page_class[pages]]
        key = np.sort(entry_k * n_classes + np.repeat(np.arange(n_classes), held_by))
        entry_k, entry_class = key // n_classes, key % n_classes
        del holders, classes, key  # spent temporaries are freed at once, to keep the peak low
        # An entry pairs with each later entry of its candidate, and with
        # itself when its class holds 2 pages or more. One stable sort lists
        # each covered class pair's holders ascending, its first holder's first.
        entry = np.arange(len(entry_k))
        solo = class_size[entry_class] < 2
        later = np.searchsorted(entry_k, entry_k, side="right") - entry - solo
        left, right = np.repeat(entry, later), _spans(entry + solo, later)
        code = entry_class[left] * n_classes + entry_class[right]
        order = np.argsort(code, kind="stable")
        code = code[order]
        if not len(code):
            raise InputError("no candidate covers any edge of the graph")
        hstart = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        class_pairs, first_a, first_b = code[hstart], left[order[hstart]], right[order[hstart]]
        holder = entry_k[left[order]]
        hcount = np.diff(hstart, append=len(holder))
        del code, order, left, right
        # The graph's upper-triangle edges whose ends share a bit, ascending,
        # and their class pairs, looked up with sorted needles (far faster).
        i = np.repeat(np.arange(n, dtype=np.int32), np.diff(g.indptr))
        up = np.flatnonzero(g.indices > i)
        i, j = i[up], g.indices[up]
        keep = np.flatnonzero((bits[i] & bits[j] != 0) & (g.data[up] > 0.0))
        up, i, j = up[keep], i[keep], j[keep]
        ci, cj = page_class[i], page_class[j]
        code = np.minimum(ci, cj) * n_classes + np.maximum(ci, cj)
        order = np.argsort(code)
        code = code[order]
        at = np.minimum(np.searchsorted(class_pairs, code), len(class_pairs) - 1)
        hit = np.flatnonzero(class_pairs[at] == code)
        covered = order[hit]
        back = np.argsort(covered)  # the covered edges, ascending again
        up, i, j, at = up[covered[back]], i[covered[back]], j[covered[back]], at[hit[back]]
        del keep, ci, cj, code, order, hit, covered, back
        ci, cj, self.a = page_class[i], page_class[j], g.data[up]
        if not len(self.a):
            raise InputError("no candidate covers any edge of the graph")
        # Each covered edge's candidates, ascending: its class pair's holders.
        counts = hcount[at]
        self.rows = np.repeat(np.arange(len(self.a)), counts)
        self.owner = holder[_spans(hstart[at], counts)]
        # An edge's candidates, and so its mean, depend only on its ends'
        # classes: each pair of classes takes its entries from its first edge.
        _, firsts, self.edge_class = np.unique(ci * n_classes + cj, return_index=True, return_inverse=True)
        firsts.sort()
        self.class_rows = np.repeat(self.edge_class[firsts], counts[firsts])
        self.class_owner = holder[_spans(hstart[at[firsts]], counts[firsts])]
        # The starting guess sums the distinct covered pairs, zeros included,
        # in first-appearance order: candidate k, then page i ascending, then
        # i's partners j > i in the classes whose pair with i's class k holds
        # first. Any other order rounds differently. Entry e = (k, A) has A's
        # pages as rows and lists their partners, coded e*n + j; entries
        # number at most sum(sizes), so no code overflows.
        a_class, b_class = class_pairs // n_classes, class_pairs % n_classes
        low, high = pages[class_start], pages[class_start + class_size - 1]
        # a partner class wholly below an entry's pages partners none of them
        forward = high[b_class] > low[a_class]
        backward = (high[a_class] > low[b_class]) & (a_class != b_class)
        seg = np.concatenate((first_a[forward], first_b[backward]))
        partner = np.concatenate((b_class[forward], a_class[backward]))
        del a_class, b_class, forward, backward
        partners = pages[_spans(class_start[partner], class_size[partner])]
        partners += np.repeat(seg * n, class_size[partner])
        partners.sort()
        row_entry = np.repeat(entry, class_size[entry_class])
        row_page = pages[_spans(class_start[entry_class], class_size[entry_class])]
        row_code = row_entry * n + row_page
        seen = np.searchsorted(partners, row_code, side="right")
        length = np.searchsorted(partners, (row_entry + 1) * n) - seen
        in_order = np.argsort(entry_k[row_entry] * n + row_page)
        base = np.empty_like(length)
        base[in_order] = np.cumsum(length[in_order]) - length[in_order]
        e = np.where(ci <= cj, first_a[at], first_b[at])
        row = np.searchsorted(row_code, e * n + i)
        place = base[row] + np.searchsorted(partners, e * n + j) - seen[row]
        del partners, row_code, row_entry, row_page
        first = np.zeros(int(length.sum()))
        first[place] = self.a
        self.mu0 = float(first.sum()) / float(n_pairs.sum())
        self.pair_counts = n_pairs.astype(float)

    def mean(self, mu: np.ndarray) -> np.ndarray:
        """The model mean of each covered edge, membership @ mu."""
        by_class = np.bincount(self.class_rows, weights=mu[self.class_owner])
        return by_class[self.edge_class]

    def numerator(self, ratio: np.ndarray) -> np.ndarray:
        """Each candidate's sum of ratio over its edges, membership.T @ ratio."""
        weights = np.take(ratio, self.rows)
        return np.bincount(self.owner, weights=weights, minlength=len(self.pair_counts))

    def log_likelihood(self, mu: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            logs = np.log(self.mean(mu))
        return float(np.dot(self.a, logs) - np.dot(self.pair_counts, mu))


def iterate_weights(
    g: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> Generator[np.ndarray, None, np.ndarray | None]:
    """Yield the weight vector after each multiplicative update.

    Stops early once the largest relative coordinate change falls below
    tol, and returns None. If max_iter updates run out first, it returns
    the relative change of each coordinate in the last update instead:
    raising on non-convergence is the caller's business.
    """
    max_iter = check_int("max_iter", max_iter, 1)
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    cov = _Coverage(g, candidates)
    mu = np.full(len(cov.pair_counts), cov.mu0)
    mu[cov.pair_counts == 0] = 0.0  # a singleton covers no pairs
    counts = np.maximum(cov.pair_counts, 1.0)
    for _ in range(max_iter):
        ratio = cov.a / np.maximum(cov.mean(mu), MEAN_GUARD)
        mu_new = mu * cov.numerator(ratio) / counts
        change = np.abs(mu_new - mu) / np.maximum(mu, MEAN_GUARD)
        mu = mu_new
        yield mu.copy()
        if change.max() < tol:
            return None
    return change


def estimate_weights(
    g: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Fit candidate weights; returns the final nonnegative vector.

    Raises ConvergenceError when the largest relative change has not fallen
    below tol within max_iter updates: ranking on an unfinished fit would
    pass for a converged one. The message names the candidate whose weight
    changed the most, relative to itself, in update max_iter, the last one.
    """
    steps = iterate_weights(g, candidates, max_iter=max_iter, tol=tol)
    try:
        while True:
            mu = next(steps)
    except StopIteration as stop:
        change = stop.value
    if change is not None:
        k = int(np.argmax(change))
        raise ConvergenceError(
            f"weight estimation did not converge within {max_iter} "
            f"iterations (tol={tol}); slowest: candidate {k} "
            f"(size {candidates[k].size}, weight {mu[k]:.3g}, "
            f"last relative change {change[k]:.3g})"
        )
    return mu


def apply_weights(
    candidates: Sequence[TopicCandidate], weights: np.ndarray
) -> None:
    """Attach fitted weights to candidates in place."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(candidates):
        raise InputError("weights length does not match candidate count")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise InputError("weights must be finite and nonnegative")
    for cand, w in zip(candidates, weights):
        cand.weight = float(w)


def rank(candidates: Sequence[TopicCandidate]) -> RankedTopicList:
    """Sort candidates by descending interestingness = weight * size.

    Ties keep the candidate with the smaller original index first, so the
    output is deterministic for any input.
    """
    if not candidates:
        raise InputError("no candidates to rank")
    for pos, cand in enumerate(candidates):
        if cand.weight is None:
            raise InputError(f"candidate {pos} has no weight; run estimate_weights first")
        if cand.weight < 0.0:
            raise InputError(f"candidate {pos} has negative weight")
    order = sorted(
        range(len(candidates)),
        key=lambda k: (-candidates[k].interestingness, k),
    )
    return RankedTopicList(
        items=[candidates[k] for k in order],
        indices=order,
    )
