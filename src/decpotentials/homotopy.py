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
pops free faces from a heap, largest dimension first, over a state that
keeps each simplex's number of current cofacets; validation replays a
sequence on the same state.  Greedy is exact in dimension <= 2: it gets
stuck only on complexes that are not collapsible; in dimension >= 3 it can
get stuck on a collapsible one.  Strong collapse sequences
(dominated-vertex removals) are searched greedily, which suffices
(Barmak-Minian, DCG 2012), and found and validated with one local test on
the full subcomplex of the vertices still alive.  Failed searches return
``None``.

A strong collapse sequence induces a discrete contraction: a vertex
function on the product vertices that is the identity at the top level and
constant at the bottom, and that is simplicial when the sequence is valid.
It is stored as its moves, the levels where a vertex's image changes and
the new images (``vertex_images``), which ``cones.contraction_cone`` reads
in place of calling the function.
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
    facets_of,
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


class _CollapseState:
    """A closed simplex set under collapse, with each simplex's number of
    current cofacets.

    A face is free when its count is 1.  Removing a free pair changes only
    the counts of the pair's facets.
    """

    def __init__(self, complex: SimplicialComplex):
        self.current = {s for sims in complex.simplices_by_dim.values() for s in sims}
        self.count = {s: len(complex.cofacets(s)) for s in self.current}

    def remove(self, sigma: Simplex, tau: Simplex) -> list[Simplex]:
        """Remove the free pair (sigma, tau); return the faces it freed."""
        self.current -= {sigma, tau}
        freed = []
        for f in facets_of(sigma) + (facets_of(tau) if len(tau) > 1 else []):
            n = self.count[f] = self.count[f] - 1
            if n == 1:
                freed.append(f)
        return freed


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
    if terminal is not None and (terminal,) not in complex:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    if complex.euler_characteristic() != 1:
        return None
    state = _CollapseState(complex)
    heap = [(-len(f), f) for f, n in state.count.items() if n == 1]
    heapq.heapify(heap)
    steps: list[tuple[Simplex, Simplex]] = []
    while heap:
        _, tau = heapq.heappop(heap)
        if state.count[tau] != 1 or tau == (terminal,):  # removed or no longer free
            continue
        sigma = next(s for s in complex.cofacets(tau) if s in state.current)
        steps.append((sigma, tau))
        for f in state.remove(sigma, tau):
            heapq.heappush(heap, (-len(f), f))
    if len(state.current) > 1:
        return None
    ((last,),) = state.current
    return CollapseSequence(complex, steps, last)


def validate_collapse_sequence(seq: CollapseSequence) -> bool:
    """Replay the sequence, checking that sigma is tau's only cofacet left."""
    state = _CollapseState(seq.complex)
    for sigma, tau in seq.steps:
        if not (tau in state.current and sigma in state.current and state.count[tau] == 1
                and len(sigma) == len(tau) + 1 and set(tau) < set(sigma)):
            return False
        state.remove(sigma, tau)
    return state.current == {(seq.terminal,)}


# -- strong collapse -----------------------------------------------------


class _AliveVertices:
    """A strong-collapse state: the full subcomplex on the vertices still alive.

    Removing a dominated vertex deletes its star, so every state of a strong
    collapse is of this form, and a vertex's maximal simplices there are the
    maximal simplices of its alive star.
    """

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex
        self.star: dict[int, list[Simplex]] = {}
        for sims in complex.simplices_by_dim.values():
            for s in sims:
                for v in s:
                    self.star.setdefault(v, []).append(s)
        self.alive = set(self.star)

    def dominators(self, v: int) -> set[int]:
        """Vertices other than v in every maximal simplex containing v."""
        alive, cofacets = self.alive, self.complex.cofacets
        common = None
        for s in self.star[v]:
            if alive.issuperset(s) and not any(alive.issuperset(c) for c in cofacets(s)):
                common = set(s) if common is None else common.intersection(s)
        common.discard(v)
        return common

    def remove(self, v: int) -> set[int]:
        """Delete v's star; return v's alive neighbours, the only vertices
        whose dominators change."""
        self.alive.discard(v)
        return {u for s in self.star[v] if len(s) == 2 for u in s if u in self.alive}


def greedy_strong_collapse(complex: SimplicialComplex, terminal: int | None = None):
    """Greedily remove dominated vertices (lowest id first, never ``terminal``)
    until one remains or none is dominated; return the steps and the core left.

    A vertex is dominated when some other vertex belongs to every maximal
    simplex containing it; removal deletes its entire star, and it is
    recorded with its lowest dominator."""
    state = _AliveVertices(complex)
    dominated: dict[int, int] = {}  # vertex -> its lowest dominator

    def update(u: int) -> None:
        found = state.dominators(u) if u != terminal else None
        if found:
            dominated[u] = min(found)
        else:
            dominated.pop(u, None)

    for v in state.alive:
        update(v)
    steps: list[tuple[int, int]] = []
    while len(state.alive) > 1 and dominated:
        v = min(dominated)
        steps.append((v, dominated.pop(v)))
        for u in state.remove(v):
            update(u)
    return steps, state.alive


def find_strong_collapse_sequence(complex: SimplicialComplex,
                                  terminal: int | None = None
                                  ) -> StrongCollapseSequence | None:
    """``greedy_strong_collapse`` down to one vertex, or None where it gets
    stuck, and at once when the Euler characteristic is not 1 (a strong
    collapse keeps the homotopy type)."""
    if terminal is not None and (terminal,) not in complex:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    if complex.euler_characteristic() != 1:
        return None
    steps, core = greedy_strong_collapse(complex, terminal)
    return StrongCollapseSequence(complex, steps, min(core)) if len(core) == 1 else None


def validate_strong_collapse_sequence(seq: StrongCollapseSequence) -> bool:
    state = _AliveVertices(seq.complex)
    for v, w in seq.steps:
        if v not in state.alive or w not in state.alive or w not in state.dominators(v):
            return False
        state.remove(v)
    return state.alive == {seq.terminal}


def vertex_images(moves: np.ndarray, levels: int) -> Callable:
    """Images of (vertex, level) arrays under a contraction given by its moves,
    the (v, l, w) columns of a (3, M) array: v maps to w at level l, listed at
    the top level and where its image differs from the one a level up."""
    keys = moves[0] * levels + moves[1]
    order = np.argsort(keys)
    keys, images = keys[order], moves[2][order]
    return lambda vertices, level: images[np.searchsorted(keys, vertices * levels + level)]


def contraction_from_strong_collapse(seq: StrongCollapseSequence,
                                     product: ProductComplex) -> Callable[[int], int]:
    """Contraction induced by the sequence, as a function on product vertex ids.

    Level ``m`` (time 1) maps by the identity, level ``m - j`` composes the
    first ``j`` vertex retractions, and level 0 is constant at the terminal
    vertex.  The product complex must have exactly one slab per removal step
    (one slab total when the sequence is empty).  The function carries its
    ``moves`` (``vertex_images``), which ``contraction_cone`` reads instead
    of calling it, checking that the function is simplicial.
    """
    base = seq.complex
    if product.base is not base:
        raise ValueError("product complex must be built over the sequence's complex")
    m = len(seq.steps)
    top = product.n_slabs
    if top != max(m, 1):
        raise ValueError(f"sequence has {m} steps but product complex has {top} slabs")

    preimages = {u: [u] for (u,) in base.simplices(0)}  # current image -> vertices mapped there
    moves = [list(preimages), [top] * len(preimages), list(preimages)]  # the top level
    for j, (v, w) in enumerate(seq.steps, start=1):
        # composing with the retraction v -> w moves exactly the vertices
        # whose current image is v, to w from level m - j down
        moved = preimages.pop(v, [])
        moves[0] += moved
        moves[1] += [m - j] * len(moved)
        moves[2] += [w] * len(moved)
        preimages.setdefault(w, []).extend(moved)
    moves = np.array(moves, dtype=np.int64)
    image = vertex_images(moves, top + 1)

    def psi(product_vertex: int) -> int:
        return int(image(*product.vertex_level(product_vertex)))

    psi.moves = moves
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
