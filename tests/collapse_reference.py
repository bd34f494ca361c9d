"""Step-by-step references for collapse sequences: the sequential replay,
the per-simplex dict recurrence of the cone, and the greedy searches and
strong-collapse validation on a ``_Subcomplex`` of dead flags and live-cofacet
counts, one Python step at a time.

``homotopy._collapse_steps`` and ``cones.collapse_cone`` do the same work in
whole-array numpy passes, and ``homotopy``'s searches on flat per-simplex
lists; the tests compare them with these.
"""

from __future__ import annotations

import heapq
from functools import cached_property

import numpy as np

from decpotentials.homotopy import CollapseSequence, StrongCollapseSequence
from decpotentials.simplicial import SimplicialComplex


def replay(seq: CollapseSequence):
    """Replay the sequence on dead flags and live-cofacet counts.

    Returns ``(bad, steps, facets)``: ``bad`` is ``(j, why)`` for the first
    step j that fails, why its first failing test ("dimensions", "absent",
    "tau again", "sigma again", "not a facet" or "not free"),
    ``"survivors"`` when every step passes but
    more than the terminal vertex is left, or None for a valid sequence;
    ``steps`` lists ``(k, sigma, tau)`` positions and ``facets[k][s]`` the
    facet positions of k-simplex s in ``facets_of`` order.
    """
    cx = seq.complex
    facets = {0: [()] * cx.num_simplices(0)}
    for k in range(1, cx.dim + 1):
        facets[k] = [tuple(row[::-1]) for row in
                     cx.coboundary_matrix(k - 1).indices.reshape(-1, k + 1).tolist()]
    dead = {k: [False] * len(rows) for k, rows in cx._rows.items()}
    count = {k: np.diff(cx._cofacet_csc(k).indptr).tolist() if k < cx.dim else [0] * len(rows)
             for k, rows in cx._rows.items()}
    steps = []
    for j, (sigma, tau) in enumerate(seq.steps):
        k = len(tau) - 1
        if len(sigma) != k + 2 or not 0 <= k < cx.dim:
            return (j, "dimensions"), steps, facets
        s, t = int(cx.positions(k + 1, [sigma])[0]), int(cx.positions(k, [tau])[0])
        if min(s, t) < 0:
            return (j, "absent"), steps, facets
        if dead[k][t]:
            return (j, "tau again"), steps, facets
        if dead[k + 1][s]:
            return (j, "sigma again"), steps, facets
        if t not in facets[k + 1][s]:
            return (j, "not a facet"), steps, facets
        if count[k][t] != 1:
            return (j, "not free"), steps, facets
        for d, r in ((k + 1, s), (k, t)):
            dead[d][r] = True
            for f in facets[d][r]:
                count[d - 1][f] -= 1
        steps.append((k, s, t))
    alive = [(d, r) for d, flags in dead.items() for r, gone in enumerate(flags) if not gone]
    terminal = int(cx.positions(0, [seq.terminal])[0])
    return (None if alive == [(0, terminal)] else "survivors"), steps, facets


def cone_terms(seq: CollapseSequence) -> dict:
    """Per degree k, the cone as ``{(row, col): coefficient}``, built by the
    dict recurrence in expansion order: ``Co(tau) = eps (sigma - Co(rest))``."""
    bad, steps, facets = replay(seq)
    assert bad is None, bad
    cx = seq.complex
    cone = {k: [{} for _ in rows] for k, rows in cx._rows.items()}
    for k, sigma, tau in reversed(steps):
        faces, lower = facets[k + 1][sigma], cone[k]
        eps = (-1) ** faces.index(tau)
        out = {sigma: eps}
        for i, f in enumerate(faces):
            if f != tau:
                for t, x in lower[f].items():
                    out[t] = out.get(t, 0) - eps * (-1) ** i * x
        lower[tau] = {t: x for t, x in out.items() if x}
    return {k: {(r, t): x for r, chain in enumerate(chains) for t, x in chain.items()}
            for k, chains in cone.items()}


class _Subcomplex:
    """A complex under removal, on simplex positions: per dimension, each
    simplex's facets (none for a vertex), a dead flag, and its number of live
    cofacets.  A strong collapse removes stars, so its states are the full
    subcomplexes on the live vertices, and a vertex's maximal simplices there
    are its live star simplices with no live cofacet."""

    def __init__(self, complex: SimplicialComplex):
        # reversed, a row of coboundary_matrix(k - 1) lists the facets in facets_of order
        self.complex, self.facets = complex, {0: [()] * complex.num_simplices(0)}
        for k in range(1, complex.dim + 1):
            rows = complex.coboundary_matrix(k - 1).indices.reshape(-1, k + 1)
            self.facets[k] = rows[:, ::-1].tolist()
        self.dead = {k: [False] * len(r) for k, r in complex._rows.items()}
        self.count = {k: np.diff(complex._cofacet_csc(k).indptr).tolist()
                      if k < complex.dim else [0] * len(d) for k, d in self.dead.items()}

    def remove(self, k: int, s: int) -> list[tuple[int, int]]:
        """Remove k-simplex s; return the facets it leaves free, as ``(1 - k, position)``."""
        self.dead[k][s] = True
        count, facets = self.count.get(k - 1), self.facets[k][s]
        for f in facets:
            count[f] -= 1
        return [(1 - k, f) for f in facets if count[f] == 1]

    @cached_property
    def star(self) -> list[list[tuple]]:
        """Per vertex, its star's (dead flags, counts, position, vertex positions)."""
        cx, star = self.complex, [[] for _ in range(self.complex.num_simplices(0))]
        for k, rows in cx._rows.items():
            for s, row in enumerate(np.searchsorted(cx._rows[0][:, 0], rows).tolist()):
                for v in row:
                    star[v].append((self.dead[k], self.count[k], s, row))
        return star

    def dominators(self, v: int) -> set[int]:
        """Vertices other than v in every maximal simplex containing v."""
        maximal = [row for dead, count, s, row in self.star[v] if not (dead[s] or count[s])]
        return set(maximal[0]).intersection(*maximal[1:]) - {v}

    def remove_star(self, v: int) -> set[int]:
        """Remove v's star; return its vertices, the only ones whose dominators change."""
        for dead, _, s, row in self.star[v]:
            if not dead[s]:
                self.remove(len(row) - 1, s)
        return {u for *_, row in self.star[v] for u in row}


def find_collapse_sequence(complex: SimplicialComplex,
                           terminal: int | None = None) -> CollapseSequence | None:
    """Greedily collapse to a vertex; None when the greedy collapse gets stuck.

    Each step removes the free face of largest dimension, breaking ties
    lexicographically, together with its only cofacet.  A free face stays
    free until its cofacet is removed, so a greedy collapse that gets stuck
    has removed every top-dimensional simplex that any collapse removes.
    In dimension <= 2 what is left is then a graph with no free vertex but
    the terminal, which collapses only if it is a single vertex: greedy
    finds a collapse exactly when one exists.  In dimension >= 3 it can get
    stuck on a collapsible complex (Benedetti-Lutz 2014).  A collapse keeps
    the homotopy type, so a complex whose Euler characteristic is not 1
    returns None at once.
    """
    if terminal is not None and terminal not in complex._rows[0]:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    if complex.euler_characteristic() != 1:
        return None
    state = _Subcomplex(complex)
    cofacets = [(m.indptr.tolist(), m.indices.tolist())
                for m in map(complex._cofacet_csc, range(complex.dim))]
    # (-k, position) pops in the order of (-len, tuple), since rows are
    # lexicographic; listed in that order, the free faces are already a heap
    heap = [(-k, f) for k in reversed(state.count) for f, n in enumerate(state.count[k]) if n == 1]
    stop = (0, complex.positions(0, [terminal])[0]) if terminal is not None else None
    steps: list[tuple[int, int, int]] = []
    while heap:
        entry = heapq.heappop(heap)
        k, tau = -entry[0], entry[1]
        if state.count[k][tau] != 1 or entry == stop:  # removed or no longer free
            continue
        ptr, ind = cofacets[k]
        sigma = next(s for s in ind[ptr[tau]:ptr[tau + 1]] if not state.dead[k + 1][s])
        steps.append((k, sigma, tau))
        for freed in state.remove(k + 1, sigma) + state.remove(k, tau):
            heapq.heappush(heap, freed)
    if sum(dead.count(False) for dead in state.dead.values()) > 1:
        return None
    rows = {k: list(map(tuple, r.tolist())) for k, r in complex._rows.items()}
    return CollapseSequence(complex, [(rows[k + 1][s], rows[k][t]) for k, s, t in steps],
                            rows[0][state.dead[0].index(False)][0])


def greedy_strong_collapse(complex: SimplicialComplex, terminal: int | None = None):
    """Greedily remove dominated vertices (lowest id first, never ``terminal``)
    until one remains or none is dominated; return the steps and the core left.

    A vertex is dominated when some other vertex belongs to every maximal
    simplex containing it; removal deletes its entire star, and it is
    recorded with its lowest dominator.  Candidates wait in a heap: every
    vertex, then the star of each one removed; one not dominated is dropped."""
    ids = complex._rows[0][:, 0].tolist()
    state, heap = _Subcomplex(complex), list(range(len(ids)))
    steps: list[tuple[int, int]] = []
    while len(ids) - len(steps) > 1 and heap:
        v = heapq.heappop(heap)
        if state.dead[0][v] or ids[v] == terminal or not (found := state.dominators(v)):
            continue
        steps.append((ids[v], ids[min(found)]))
        for u in state.remove_star(v):
            heapq.heappush(heap, u)
    return steps, {ids[v] for v, dead in enumerate(state.dead[0]) if not dead}


def validate_strong_collapse_sequence(seq: StrongCollapseSequence) -> bool:
    cx, state = seq.complex, _Subcomplex(seq.complex)
    for v, w in cx.positions(0, np.reshape(seq.steps, (-1, 1))).reshape(-1, 2).tolist():
        if min(v, w) < 0 or state.dead[0][v] or state.dead[0][w] or w not in state.dominators(v):
            return False
        state.remove_star(v)
    alive = [u for u, dead in zip(cx._rows[0][:, 0].tolist(), state.dead[0]) if not dead]
    return alive == [seq.terminal]
