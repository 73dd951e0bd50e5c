"""Topic candidates: multi-granularity groups of webpage indices.

Candidates normally come from an upstream clustering stage. As a built-in
stand-in, cascade_candidates emits the connected components of the graph at
a ladder of edge-weight thresholds, which reproduces the coarse-to-fine
granularity structure the rest of the pipeline expects: low thresholds give
big loose components, high thresholds split them into tight fragments. The
components come from the graph's CSR arrays in numpy: no module imports
scipy, except the graph's adjacency view.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .graph import SimilarityGraph


@dataclass
class TopicCandidate:
    """A set of webpage indices, later annotated with a model weight.

    weight is the Poisson deconvolution estimate; it starts unset and is
    filled by the ranking stage. interestingness is weight * size.
    """

    members: frozenset[int]
    weight: float | None = None

    def __post_init__(self) -> None:
        members = index_set(self.members)
        if not members:
            raise InputError("candidate must have at least one member")
        if min(members) < 0:
            raise InputError("candidate members must be nonnegative indices")
        self.members = members

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def interestingness(self) -> float | None:
        return None if self.weight is None else self.weight * self.size

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def index_set(members: Iterable) -> frozenset[int]:
    """members as a frozenset of Python ints, numpy ints among them; a
    member that is no integer, such as 1.5, raises InputError rather than
    being truncated."""
    try:
        return frozenset(map(index, members))
    except TypeError as exc:
        raise InputError(f"members must be integer indices: {exc}") from exc


def checked_thresholds(thresholds: Iterable[float]) -> tuple[float, ...]:
    """thresholds as floats: one or more, each in (0, 1) and above the last."""
    out = tuple(map(float, thresholds))
    if not out:
        raise InputError("at least one threshold is required")
    if any(not (0.0 < t < 1.0) for t in out):
        raise InputError("thresholds must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InputError("thresholds must be strictly increasing")
    return out


def cascade_candidates(
    g: SimilarityGraph, thresholds: Sequence[float]
) -> list[TopicCandidate]:
    """Connected components at each threshold, singletons dropped.

    For every threshold tau the edges with weight >= tau are kept and each
    resulting component of size >= 2 becomes one candidate. Duplicate member
    sets across thresholds are emitted once. Output order is deterministic:
    by threshold, then by smallest member index.

    Singletons are dropped because a one-webpage topic carries no edges and
    would always sit at zero weight downstream.
    """
    if g.n == 0 or len(g.data) == 0:
        raise InputError("cascade requires a graph with at least one edge")
    thresholds = checked_thresholds(thresholds)

    out: list[TopicCandidate] = []
    seen: set[frozenset[int]] = set()
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = rows < g.indices  # each undirected edge once
    rows, cols, weights = rows[upper], g.indices[upper], g.data[upper]
    for tau in thresholds:
        # Label each node with its component's smallest node: hook the larger
        # root of every edge across two labels onto the smaller, pointer-jump
        # until every label is a root, repeat. No label exceeds its node.
        label, u, v = np.arange(g.n), rows[weights >= tau], cols[weights >= tau]
        while np.any(across := label[u] != label[v]):
            u, v = u[across], v[across]  # an edge within one label stays so
            np.minimum.at(label, np.maximum(label[u], label[v]), np.minimum(label[u], label[v]))
            while not np.array_equal(jumped := label[label], label):
                label = jumped
        paired = np.bincount(label, minlength=g.n)[label] > 1  # no singletons
        order = np.flatnonzero(paired)[np.argsort(label[paired], kind="stable")]
        for members in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
            if len(members) and (key := frozenset(members.tolist())) not in seen:
                seen.add(key)
                out.append(TopicCandidate(key))
    return out


def load_candidates(path: str | Path, n: int | None = None) -> list[TopicCandidate]:
    """Read a candidates file: one candidate per line.

    Members are whitespace-separated 0-based indices; '#' begins a comment
    line and blank lines are skipped. When n is given every index must be
    below it. Errors name the file and line.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    out: list[TopicCandidate] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            members = list(map(int, line.split()))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed candidate line") from exc
        if min(members) < 0:
            raise InputError(f"{path}:{lineno}: negative index")
        if n is not None and max(members) >= n:
            raise InputError(f"{path}:{lineno}: index out of range (n={n})")
        out.append(TopicCandidate(members))
    if not out:
        raise InputError(f"{path}: no candidates")
    return out


def save_candidates(candidates: Iterable, path: str | Path, header: Iterable[str] = ()) -> None:
    """Write one member set per line as sorted indices.

    Accepts anything with a .members attribute (candidates, coarse or
    refined topics) or bare sets. Each header line is written first, as a
    '# ' comment.
    """
    lines = [f"# {h}" for h in header]
    for cand in candidates:
        members = getattr(cand, "members", cand)
        lines.append(" ".join(str(m) for m in sorted(members)))
    Path(path).write_text("\n".join(lines) + "\n")
