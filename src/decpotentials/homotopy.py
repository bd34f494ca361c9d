"""Product complexes, prism extrusion, and combinatorial contractions.

The product of a base complex with a subdivided interval is the *staircase*
triangulation: product vertices ``(v, level)`` are ordered by the global id
``level * stride + v`` (a linear extension of the componentwise partial
order), and the simplices within one slab are exactly the chains of that
partial order.  The extrusion operator sends a base k-simplex to the signed
sum of the (k+1)-dimensional prisms over all slabs; together with the two
end inclusions it satisfies the prism identity

    boundary(E(c)) + E(boundary(c)) = j1(c) - j0(c)

exactly, in integer arithmetic; ``ProductComplex.prism_rows`` lists them.
The product complex is built only on request, with no face closure: the
one-slab product's rows (each base row's copies and its split faces and
prisms) are sorted once and shifted slab by slab.

Collapse sequences (free-face removals) are found by one greedy pass that
pops free faces from a heap, largest dimension first, on simplex positions:
a dead flag and a count of live cofacets per simplex, with facets and
cofacets read from the coboundary matrices.  Validation maps a sequence's
tuples to positions and replays it on the same state.  Greedy is exact in
dimension <= 2: it gets stuck only on complexes that are not collapsible;
in dimension >= 3 it can get stuck on a collapsible one.  Strong collapse
sequences (dominated-vertex removals) are searched greedily, lowest
dominated vertex first, which suffices (Barmak-Minian, DCG 2012), and found
and validated with one local test on the full subcomplex of the vertices
still alive.  Failed searches return ``None``.

A strong collapse sequence induces a discrete contraction: a vertex
function on the product vertices that is the identity at the top level and
constant at the bottom, and that is simplicial when the sequence is valid.
It looks a vertex's image up among the levels where it changes, and it
carries the sequence's steps, which are all the cone needs:
``cones.strong_collapse_cone`` builds it from the sequence alone,
accepting exactly the sequences that ``validate_strong_collapse_sequence``
accepts, and ``cones.contraction_cone`` reads the function's steps without
calling it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .simplicial import (
    Chain,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    canonical_simplex,
)


def checked_breakpoints(breakpoints: Sequence[float]) -> tuple[float, ...]:
    """Breakpoints as floats, strictly increasing from 0.0 to 1.0."""
    times = tuple(float(t) for t in breakpoints)
    if len(times) < 2:
        raise ValueError("need at least two breakpoints")
    if times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("breakpoints must run from 0.0 to 1.0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return times


class ProductComplex:
    """Staircase product of a base complex with a subdivided interval.

    Stores only the base, breakpoints and vertex stride; ``complex`` (listed
    from the base's rows and ``prism_rows``), ``j0`` and ``j1`` are cached.
    """

    def __init__(self, base: SimplicialComplex, breakpoints: Sequence[float]):
        self.base = base
        self.times = checked_breakpoints(breakpoints)
        self.stride = base.vertex_count

    @property
    def n_slabs(self) -> int:
        return len(self.times) - 1

    def vertex_id(self, v: int, level: int) -> int:
        return level * self.stride + v

    def vertex_level(self, product_vertex: int) -> tuple[int, int]:
        """Decode a product vertex id into (base vertex, level)."""
        level, v = divmod(product_vertex, self.stride)
        return v, level

    def prism_rows(self, rows: np.ndarray) -> np.ndarray:
        """Staircase prisms of base simplices given as rows ``v_0..v_k``.

        Entry ``[r, s, i]`` of the result, of shape (slabs, rows, k + 1,
        k + 2), is the i-th prism of row s in slab r,
        ``v_0..v_i@r v_i..v_k@r+1``, with sign ``(-1)^i``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = rows.shape[1] - 1
        up = np.arange(k + 2) > np.arange(k + 1)[:, None]  # position on the upper level
        slabs = np.arange(self.n_slabs, dtype=np.int64)[:, None, None, None] * self.stride
        return slabs + up * self.stride + rows[:, np.arange(k + 2) - up]

    def prisms(self, simplex: Simplex):
        """Yield ``(sign, prism)`` for the ``prism_rows`` of one simplex."""
        for slab in self.prism_rows([simplex])[:, 0].tolist():
            for i, prism in enumerate(slab):
                yield (-1) ** i, tuple(prism)

    def _listed(self, k: int):
        """Arrays whose rows are the product's k-simplices, each listed once:
        the copies of every base row v_0..v_d at each level and, in slab r,
        its split faces v_0..v_{i-1}@r v_i..v_d@r+1 (i = 1..d) and prisms."""
        base, stride = self.base._rows, self.stride
        levels = np.arange(self.n_slabs + 1, dtype=np.int64)[:, None, None] * stride
        if k in base:
            up = np.arange(k + 1) >= np.arange(1, k + 1)[:, None]
            yield levels + base[k]
            yield levels[:-1, None] + up * stride + base[k][:, None]
        if k - 1 in base:
            yield self.prism_rows(base[k - 1])

    @cached_property
    def complex(self) -> SimplicialComplex:
        # a row of slab r starts at level r: it is a row of the one-slab
        # product shifted by r levels, whose level-1 copies sort last
        one, m, closed = ProductComplex(self.base, (0.0, 1.0)), self.n_slabs, {}
        slabs = np.arange(m, dtype=np.int64)[:, None, None] * self.stride
        for k in range(self.base.dim + 2):
            first = np.concatenate([p.reshape(-1, k + 1) for p in one._listed(k)])
            first = first[np.lexsort(first.T[::-1])]
            n = len(first) - len(self.base._rows.get(k, ()))  # rows below level 1
            rows = closed[k] = np.empty((m * n + len(first) - n, k + 1), dtype=np.int64)
            np.add(slabs, first[:n], out=rows[:m * n].reshape(m, n, k + 1))
            rows[m * n:] = first[n:] + (m - 1) * self.stride
        return SimplicialComplex._from_closed(closed)

    @cached_property
    def j0(self) -> SimplicialMap:
        return SimplicialMap(self.base, self.complex, lambda v: v, check=False)

    @cached_property
    def j1(self) -> SimplicialMap:
        top = self.vertex_id(0, self.n_slabs)
        return SimplicialMap(self.base, self.complex, lambda v: top + v, check=False)


def build_product_complex(base: SimplicialComplex,
                          breakpoints: Sequence[float]) -> ProductComplex:
    return ProductComplex(base, breakpoints)


def uniform_breakpoints(n_slabs: int) -> tuple[float, ...]:
    if n_slabs < 1:
        raise ValueError("need at least one slab")
    return tuple(j / n_slabs for j in range(n_slabs + 1))


def extrusion(arg, product: ProductComplex) -> Chain:
    """Signed prism sum of a base simplex or chain, over every slab."""
    base = product.base
    if isinstance(arg, Chain):
        chain = arg
        if chain.complex is not base:
            raise ValueError("chain must live on the product's base complex")
    else:
        chain = Chain.single(base, arg)
    out: dict[Simplex, float] = {}
    for s, c in chain.terms.items():
        for sign, prism in product.prisms(s):
            out[prism] = out.get(prism, 0) + sign * c
    return Chain(product.complex, chain.dim + 1, out, check=False)


# -- collapse sequences --------------------------------------------------


@dataclass
class CollapseSequence:
    """Ordered free-face removals ending at a single terminal vertex."""

    complex: SimplicialComplex
    steps: list[tuple[Simplex, Simplex]]  # (coface sigma, free face tau), removal order
    terminal: int


@dataclass
class StrongCollapseSequence:
    """Ordered dominated-vertex removals ending at a single terminal vertex."""

    complex: SimplicialComplex
    steps: list[tuple[int, int]]  # (dominated vertex, dominating vertex), removal order
    terminal: int


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
        self.count = {k: np.bincount(complex.coboundary_matrix(k).indices,
                                     minlength=len(d)).tolist()
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
    cofacets = [(m.indptr.tolist(), m.indices.tolist()) for m in complex._cofacet_csc.values()]
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


def _step_positions(seq: CollapseSequence) -> list[tuple[int, int, int]] | None:
    """Steps as ``(k, sigma, tau)`` positions; None unless each names a k+1- and a k-simplex."""
    cx, named = seq.complex, [simplex for step in seq.steps for simplex in step]  # sigma, tau, ...
    dims = np.fromiter(map(len, named), dtype=np.int64, count=len(named)) - 1
    at = np.full(len(named), -1)
    for d in range(cx.dim + 1):
        pick = np.flatnonzero(dims == d).tolist()
        at[pick] = cx.positions(d, [named[i] for i in pick])
    bad = ((dims[::2] != dims[1::2] + 1) | (at[::2] < 0) | (at[1::2] < 0)).any()
    return None if bad else list(zip(dims[1::2].tolist(), at[::2].tolist(), at[1::2].tolist()))


def _replay(seq: CollapseSequence):
    """Replay the sequence, checking that sigma is tau's only cofacet left: its
    ``(k, sigma, tau)`` positions and the facet table, or None if invalid."""
    steps, state = _step_positions(seq), _Subcomplex(seq.complex)
    if steps is None:
        return None
    for k, sigma, tau in steps:
        if (state.dead[k][tau] or state.dead[k + 1][sigma] or state.count[k][tau] != 1
                or tau not in state.facets[k + 1][sigma]):
            return None
        state.remove(k + 1, sigma)
        state.remove(k, tau)
    ok = (sum(dead.count(False) for dead in state.dead.values()) == 1
          and state.dead[0].index(False) == int(seq.complex.positions(0, [seq.terminal])[0]))
    return (steps, state.facets) if ok else None


def validate_collapse_sequence(seq: CollapseSequence) -> bool:
    """Replay the sequence, checking that sigma is tau's only cofacet left."""
    return _replay(seq) is not None


# -- strong collapse -----------------------------------------------------


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


def find_strong_collapse_sequence(complex: SimplicialComplex,
                                  terminal: int | None = None
                                  ) -> StrongCollapseSequence | None:
    """``greedy_strong_collapse`` down to one vertex, or None where it gets
    stuck, and at once when the Euler characteristic is not 1 (a strong
    collapse keeps the homotopy type)."""
    if terminal is not None and terminal not in complex._rows[0]:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    if complex.euler_characteristic() != 1:
        return None
    steps, core = greedy_strong_collapse(complex, terminal)
    return StrongCollapseSequence(complex, steps, min(core)) if len(core) == 1 else None


def validate_strong_collapse_sequence(seq: StrongCollapseSequence) -> bool:
    cx, state = seq.complex, _Subcomplex(seq.complex)
    for v, w in cx.positions(0, np.reshape(seq.steps, (-1, 1))).reshape(-1, 2).tolist():
        if min(v, w) < 0 or state.dead[0][v] or state.dead[0][w] or w not in state.dominators(v):
            return False
        state.remove_star(v)
    alive = [u for u, dead in zip(cx._rows[0][:, 0].tolist(), state.dead[0]) if not dead]
    return alive == [seq.terminal]


def contraction_from_strong_collapse(seq: StrongCollapseSequence,
                                     product: ProductComplex) -> Callable[[int], int]:
    """Contraction induced by the sequence, as a function on product vertex ids.

    Level ``m`` (time 1) maps by the identity, level ``m - j`` composes the
    first ``j`` vertex retractions, and level 0 is constant at the terminal
    vertex.  The product complex must have exactly one slab per removal step
    (one slab total when the sequence is empty).  The function carries the
    sequence's ``steps``, the (dominated, dominating) columns of a (2, m)
    int64 array, from which ``contraction_cone`` reads its cone without
    calling it.
    """
    base = seq.complex
    if product.base is not base:
        raise ValueError("product complex must be built over the sequence's complex")
    m = len(seq.steps)
    top = product.n_slabs
    if top != max(m, 1):
        raise ValueError(f"sequence has {m} steps but product complex has {top} slabs")

    preimages = {u: [u] for u in base._rows[0][:, 0].tolist()}  # image -> vertices mapped there
    moves = [list(preimages), [top] * len(preimages), list(preimages)]  # the top level
    for j, (v, w) in enumerate(seq.steps, start=1):
        # composing with the retraction v -> w moves exactly the vertices
        # whose current image is v, to w from level m - j down
        moved = preimages.pop(v, [])
        moves[0] += moved
        moves[1] += [m - j] * len(moved)
        moves[2] += [w] * len(moved)
        preimages.setdefault(w, []).extend(moved)
    # u's listed levels are the top one and each where its image differs
    # from the one a level up; it maps to w there and below, down to the next
    u, level, w = np.array(moves, dtype=np.int64)
    keys = u * (top + 1) + level
    order = np.argsort(keys)
    keys, images = keys[order], w[order]

    def psi(product_vertex: int) -> int:
        v, level = product.vertex_level(product_vertex)
        return int(images[np.searchsorted(keys, v * (top + 1) + level)])

    psi.steps = np.array(seq.steps, dtype=np.int64).reshape(-1, 2).T
    return psi


# -- sequence files ------------------------------------------------------


def sequence_to_json(seq) -> dict:
    if isinstance(seq, CollapseSequence):
        return {
            "kind": "collapse",
            "terminal": seq.terminal,
            "steps": [{"sigma": list(s), "tau": list(t)} for s, t in seq.steps],
        }
    if isinstance(seq, StrongCollapseSequence):
        return {
            "kind": "strong-collapse",
            "terminal": seq.terminal,
            "steps": [{"dominated": v, "dominating": w} for v, w in seq.steps],
        }
    raise TypeError(f"not a collapse sequence: {seq!r}")


def sequence_from_json(complex: SimplicialComplex, data: dict):
    kind = data.get("kind")
    if kind == "collapse":
        steps = [
            (canonical_simplex(st["sigma"])[0], canonical_simplex(st["tau"])[0])
            for st in data["steps"]
        ]
        return CollapseSequence(complex, steps, int(data["terminal"]))
    if kind == "strong-collapse":
        steps = [(int(st["dominated"]), int(st["dominating"])) for st in data["steps"]]
        return StrongCollapseSequence(complex, steps, int(data["terminal"]))
    raise ValueError(f"unknown sequence kind {kind!r}")


def save_sequence(seq, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_json(seq), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sequence(complex: SimplicialComplex, path):
    with open(path) as fh:
        return sequence_from_json(complex, json.load(fh))
