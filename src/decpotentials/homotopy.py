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
pops free faces from a heap, largest dimension first, on flat per-simplex
lists read once from the coboundary matrices: facets, the count of live
cofacets and their positions' sum, which is a free face's one cofacet.
Validation maps a sequence's tuples to positions, one array of rows per
dimension and role, and tests what a replay would, with no replay: from the
step that first removes each simplex, whole-array passes over the steps and
their faces' cofacets find every step that fails (``_collapse_steps``).
Greedy is exact in dimension <= 2: it gets stuck only on complexes that are
not collapsible; in dimension >= 3 it can get stuck on a collapsible one.
Strong collapse sequences (dominated-vertex removals) are searched greedily,
lowest dominated vertex first, which suffices (Barmak-Minian, DCG 2012), on
flat lists over all simplices (``_strong_state``); a sequence is valid when
``cones.strong_collapse_cone`` accepts it.
Failed searches return ``None``.  In a terminal or a step, a vertex id that
is not an integer names no vertex (``_vertex_ids``).

A strong collapse sequence induces a discrete contraction: a vertex
function on the product vertices that is the identity at the top level and
constant at the bottom, and that is simplicial when the sequence is valid.
It finds a vertex's image at level ``m - j`` by walking the first j steps,
keeping no table, and it carries the steps, which are all the cone needs:
``cones.strong_collapse_cone`` builds it from the sequence alone, and
``cones.contraction_cone`` reads the function's steps without calling it.
"""

from __future__ import annotations

import heapq
import itertools
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
    _offsets,
)

# _collapse_steps' reason code of a step that passes every test
_PASS = 6


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


_BOOLS = frozenset((bool, np.bool_))


def _vertex_ids(values: list) -> np.ndarray:
    """Vertex ids as int64, -1 for a value that is not an integer (a bool is
    none, alone or beside integers): it names no vertex, like an id no int64
    holds."""
    ids = np.array(values)
    # numpy turns a bool beside integers into 0 or 1, so the types are read
    if ids.size and (ids.dtype.kind not in "iu" or not _BOOLS.isdisjoint(map(type, values))):
        ids = np.array([v if np.ndim(v) == 0 and np.asarray(v).dtype.kind in "iu" else -1
                        for v in values])
    return ids.astype(np.int64)


def _terminal_position(complex: SimplicialComplex, terminal) -> int | None:
    """The position of a search's terminal vertex, None for none; a
    ``ValueError`` unless ``_vertex_ids`` maps it to a vertex of the complex."""
    at = None if terminal is None else int(complex.positions(0, _vertex_ids([terminal]))[0])
    if at is not None and at < 0:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    return at


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
    at = _terminal_position(complex, terminal)
    if complex.euler_characteristic() != 1:
        return None
    # per dimension k, each k-simplex's facets, its live cofacets' count and
    # the sum of their positions: a free face's sum is its one live cofacet
    rows, dim, facets, count, total = complex._rows, complex.dim, [None], [], []
    for k in range(dim):
        cols = complex._cofacet_csc(k)
        count.append(np.diff(cols.indptr).tolist())
        total.append(np.diff(np.concatenate([[0], np.cumsum(cols.indices)])[cols.indptr]).tolist())
        facets.append(complex.coboundary_matrix(k).indices.reshape(-1, k + 2).tolist())
    # (-k, position) pops in the order of (-len, tuple), since rows are
    # lexicographic; listed in that order, the free faces are already a heap
    heap = [(-k, f) for k in reversed(range(dim)) for f, n in enumerate(count[k]) if n == 1]
    stop, push, pop = None if at is None else (0, at), heapq.heappush, heapq.heappop
    sigmas, taus = [[] for _ in range(dim)], [[] for _ in range(dim)]  # the steps, per k
    while heap:
        entry = pop(heap)
        k, tau = -entry[0], entry[1]
        n, s = count[k], total[k]
        if n[tau] != 1 or entry == stop:  # removed or no longer free
            continue
        sigma = s[tau]
        sigmas[k].append(sigma)
        taus[k].append(tau)
        for f in facets[k + 1][sigma]:  # each loses sigma; tau's count drops to 0
            n[f] -= 1
            s[f] -= sigma
            if n[f] == 1:
                push(heap, (-k, f))
        if k:
            n, s = count[k - 1], total[k - 1]
            for f in facets[k][tau]:
                n[f] -= 1
                s[f] -= tau
                if n[f] == 1:
                    push(heap, (1 - k, f))
    if sum(map(len, rows.values())) - 2 * sum(map(len, taus)) > 1:
        return None
    # a step at k frees only k- and (k - 1)-faces, so the steps come by descending k
    pairs = []
    for k in reversed(range(dim)):
        pairs += zip(map(tuple, rows[k + 1].take(sigmas[k], axis=0).tolist()),
                     map(tuple, rows[k].take(taus[k], axis=0).tolist()))
    return CollapseSequence(complex, pairs, np.delete(rows[0], taus[0] if dim else []).item())


def _collapse_steps(seq: CollapseSequence) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per dimension k, the ``(sigma, tau)`` positions of the steps that free
    a k-simplex, in step order; a ``ValueError`` that names the first bad step,
    or the survivors, when the sequence is invalid.

    Let r(s) be the first step that removes simplex s, and m for one never
    removed.  While no earlier step has failed, the replay's live simplices
    before step j are exactly {s : r(s) >= j}.  So step j passes the replay
    when it names a (k+1)- and a k-simplex of the complex, removes neither a
    second time, tau is a facet of sigma, and every other cofacet c of tau
    has r(c) < j; and the sequence is valid when every step passes and the
    survivors, r = m, are the terminal vertex alone.  Each test is one numpy
    pass over the steps, or over the cofacets of their taus.
    """
    cx, m = seq.complex, len(seq.steps)
    named = list(itertools.chain.from_iterable(seq.steps))  # sigma, tau, sigma, tau, ...
    size = np.fromiter(map(len, named), dtype=np.int64, count=len(named)).reshape(-1, 2)
    flat = _vertex_ids(list(itertools.chain.from_iterable(named)))
    start = (np.cumsum(size) - size.ravel()).reshape(-1, 2)  # where each simplex's ids begin
    dim = np.where((size[:, 0] == size[:, 1] + 1) & (size[:, 1] <= cx.dim), size[:, 1] - 1, -1)
    # why each step fails: the first test it fails, by _why's code; _PASS where none fails
    reason = np.where(dim < 0, 0, _PASS).astype(np.int8)
    at = np.full((m, 2), -1)  # sigma's and tau's positions
    live = np.full(m, -1)  # the first cofacet of tau still live at tau's step
    removal = {d: np.full(len(rows), m) for d, rows in cx._rows.items()}
    mapped = {}
    for k in range(cx.dim):
        j = np.flatnonzero(dim == k)
        sigma, tau = (cx.positions(d, flat[start[j, i, None] + np.arange(d + 1)])
                      for i, d in ((0, k + 1), (1, k)))
        at[j, 0], at[j, 1] = sigma, tau
        ok = (sigma >= 0) & (tau >= 0)
        reason[j[~ok]] = 1
        mapped[k] = j[ok], sigma[ok], tau[ok]
        np.minimum.at(removal[k + 1], sigma[ok], j[ok])
        np.minimum.at(removal[k], tau[ok], j[ok])
    steps = {}
    for k, (j, sigma, tau) in mapped.items():
        facets = cx.coboundary_matrix(k).indices.reshape(-1, k + 2)
        for code, fails in ((2, removal[k][tau] < j), (3, removal[k + 1][sigma] < j),
                            (4, (facets[sigma] != tau[:, None]).all(axis=1))):
            reason[j[fails]] = np.minimum(reason[j[fails]], code)
        # every cofacet c of each tau, against the step that frees tau
        cols = cx._cofacet_csc(k)
        n = np.diff(cols.indptr)[tau]
        owner = np.repeat(np.arange(len(tau)), n)
        c = cols.indices[np.repeat(cols.indptr[tau], n) + _offsets(n)]
        held = (c != sigma[owner]) & (removal[k + 1][c] >= j[owner])
        if held.any():
            fails, first = np.unique(j[owner[held]], return_index=True)
            reason[fails] = np.minimum(reason[fails], 5)
            live[fails] = c[held][first]
        steps[k] = sigma, tau
    if (reason < _PASS).any():
        b = int((reason < _PASS).argmax())
        sigma, tau = seq.steps[b]
        raise ValueError(f"invalid collapse sequence: step {b} ({sigma}, {tau}) "
                         + _why(cx, sigma, tau, int(reason[b]), at[b], int(live[b]), removal))
    left = [(d, s) for d, r in removal.items() for s in np.flatnonzero(r == m).tolist()]
    if left != [(0, int(cx.positions(0, [seq.terminal])[0]))]:
        names = [tuple(cx._rows[d][s].tolist()) for d, s in left[:4]]
        raise ValueError(f"invalid collapse sequence: the steps leave {names}"
                         f"{'...' if len(left) > 4 else ''}, not vertex {seq.terminal} alone")
    return steps


def _why(cx: SimplicialComplex, sigma, tau, reason: int, at: np.ndarray, live: int,
         removal: dict) -> str:
    """Why a step fails, by the code of the first test it fails in
    ``_collapse_steps``: 0 dimensions, 1 an absent simplex, 2 and 3 tau and
    sigma removed again, 4 not a facet, 5 a cofacet ``live`` of tau left."""
    k, (s, t) = len(tau) - 1, at.tolist()
    if reason == 0:
        return (f"names simplices of dimensions {len(sigma) - 1} and {k}, not k + 1 and k "
                f"for some k < {cx.dim}")
    if reason == 1:
        return f"names {sigma if s < 0 else tau}, which is not a simplex of the complex"
    if reason in (2, 3):
        named, d, pos = (tau, k, t) if reason == 2 else (sigma, k + 1, s)
        return f"removes {named} again, after step {removal[d][pos]}"
    if reason == 4:
        return f"{tau} is not a facet of {sigma}"
    return f"{tau} is not free: it is still a face of {tuple(cx._rows[k + 1][live].tolist())}"


def validate_collapse_sequence(seq: CollapseSequence) -> bool:
    """Whether replaying the sequence finds sigma to be tau's only cofacet
    left at every step, and leaves the terminal vertex alone: the tests of
    ``_collapse_steps``, which ``cones.collapse_cone`` shares."""
    try:
        _collapse_steps(seq)
    except ValueError:
        return False
    return True


# -- strong collapse -----------------------------------------------------


def _grouped(n: int, owner: np.ndarray, items: np.ndarray) -> list[list[int]]:
    """The items of each of the n owners, as one list per owner."""
    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n))]).tolist()
    flat = items[np.argsort(owner, kind="stable")].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _strong_state(complex: SimplicialComplex):
    """``(count, dominators, remove_star, neighbours)`` of strong collapses on
    flat lists over one index of all simplices, vertices first: per simplex its
    facets, vertex positions and live cofacets' count, -1 once removed; per
    vertex its star and neighbours.  The states are the full subcomplexes on
    the live vertices, where a live vertex's maximal simplices are those of its
    star counting 0; ``dominators(v)`` is the set of the other vertices in all
    of them, and ``remove_star(v)`` removes v's star."""
    ids, dim = complex._rows[0][:, 0], complex.dim
    rows = [np.searchsorted(ids, complex._rows[k]) for k in range(dim + 1)]
    start = np.cumsum([0] + [len(r) for r in rows])
    count = np.concatenate([np.diff(complex._cofacet_csc(k).indptr) for k in range(dim)]
                           + [np.zeros(len(rows[dim]), dtype=np.int64)]).tolist()
    facets, verts = [()] * len(ids), []
    for k in range(dim + 1):
        facets += (complex.coboundary_matrix(k - 1).indices.reshape(-1, k + 1)
                   + start[k - 1]).tolist() if k else []
        verts += rows[k].tolist()
    size = np.repeat(np.arange(1, dim + 2), np.diff(start))  # each simplex's vertex count
    star = _grouped(len(ids), np.concatenate([r.ravel() for r in rows]),
                    np.repeat(np.arange(start[-1]), size))
    # a vertex's neighbours, the other vertices of its star, are its edges' other ends
    ends = rows[1] if dim else np.empty((0, 2), dtype=np.int64)
    neighbours = _grouped(len(ids), ends.T.ravel(), ends[:, ::-1].T.ravel())

    def dominators(v: int) -> set[int]:
        maximal = [verts[g] for g in star[v] if not count[g]]
        found = set(maximal[0]).intersection(*maximal[1:])
        found.discard(v)
        return found

    def remove_star(v: int) -> None:
        for g in star[v]:
            if count[g] >= 0:
                count[g] = -1
                for f in facets[g]:
                    count[f] -= 1

    return count, dominators, remove_star, neighbours


def greedy_strong_collapse(complex: SimplicialComplex, terminal: int | None = None):
    """Greedily remove dominated vertices (lowest id first, never ``terminal``)
    until one remains or none is dominated; return the steps and the core left.

    A vertex is dominated when some other vertex belongs to every maximal
    simplex containing it; removal deletes its entire star, and it is
    recorded with its lowest dominator.  Candidates wait in a heap: every
    vertex, then the neighbours of each one removed, the only vertices whose
    dominators change; one not dominated is dropped."""
    stop, ids = _terminal_position(complex, terminal), complex._rows[0][:, 0].tolist()
    count, dominators, remove_star, neighbours = _strong_state(complex)
    heap, push, pop, steps = list(range(len(ids))), heapq.heappush, heapq.heappop, []
    left = len(ids)
    while left > 1 and heap:
        v = pop(heap)
        if count[v] < 0 or v == stop or not (found := dominators(v)):
            continue
        steps.append((ids[v], ids[min(found)]))
        remove_star(v)
        left -= 1
        for u in neighbours[v]:
            if count[u] >= 0:
                push(heap, u)
    return steps, {u for u, n in zip(ids, count) if n >= 0}


def find_strong_collapse_sequence(complex: SimplicialComplex,
                                  terminal: int | None = None
                                  ) -> StrongCollapseSequence | None:
    """``greedy_strong_collapse`` down to one vertex, or None where it gets
    stuck, and at once when the Euler characteristic is not 1 (a strong
    collapse keeps the homotopy type)."""
    return _strong_search(complex, terminal)[0]


def _strong_search(complex: SimplicialComplex, terminal):
    """``find_strong_collapse_sequence``'s answer and the core the greedy
    collapse left, None where the Euler characteristic stops the search."""
    _terminal_position(complex, terminal)
    if complex.euler_characteristic() != 1:
        return None, None
    steps, core = greedy_strong_collapse(complex, terminal)
    return (StrongCollapseSequence(complex, steps, min(core)) if len(core) == 1 else None), core


def _strong_steps(steps) -> np.ndarray:
    """A strong collapse's (dominated, dominating) vertex ids, the columns of a
    (2, m) int64 array: -1, which names no vertex, for an id that is not an
    integer and for both ids of a step that is not a pair."""
    pairs = [step if len(step) == 2 else (-1, -1) for step in steps]
    return _vertex_ids(list(itertools.chain.from_iterable(pairs))).reshape(-1, 2).T


def validate_strong_collapse_sequence(seq: StrongCollapseSequence) -> bool:
    """Whether each step's dominating vertex dominates its dominated one, both
    still live, and the steps leave the terminal vertex alone: the checks of
    ``cones.strong_collapse_cone``, which this asks."""
    from .cones import strong_collapse_cone  # cones imports this module

    try:
        strong_collapse_cone(seq)
    except ValueError:
        return False
    return True


def contraction_from_strong_collapse(seq: StrongCollapseSequence,
                                     product: ProductComplex) -> Callable[[int], int]:
    """Contraction induced by the sequence, as a function on product vertex ids.

    Level ``m`` (time 1) maps by the identity, level ``m - j`` composes the
    first ``j`` vertex retractions, and level 0 is constant at the terminal
    vertex.  The product complex must have exactly one slab per removal step
    (one slab total when the sequence is empty).  The function carries the
    sequence's ``steps``, the (dominated, dominating) columns of a (2, m)
    int64 array, from which ``contraction_cone`` reads its cone without
    calling it; a call walks the first ``m - level`` steps.
    """
    base = seq.complex
    if product.base is not base:
        raise ValueError("product complex must be built over the sequence's complex")
    m = len(seq.steps)
    top = product.n_slabs
    if top != max(m, 1):
        raise ValueError(f"sequence has {m} steps but product complex has {top} slabs")

    steps = _strong_steps(seq.steps)

    def psi(product_vertex: int) -> int:
        v, level = product.vertex_level(product_vertex)
        for u, w in zip(*steps[:, :m - level].tolist()):
            if v == u:
                v = w
        return v

    psi.steps = steps
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


def _file_id(value, field: str) -> int:
    """A vertex id of a sequence file: a JSON integer >= 0 (a bool is no id)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"sequence file field {field} is {value!r}, not a vertex id")
    return value


def _file_simplex(value, field: str) -> Simplex:
    if type(value) is not list:
        raise ValueError(f"sequence file field {field} is {value!r}, not a list of vertex ids")
    return canonical_simplex([_file_id(v, field) for v in value])[0]


def sequence_from_json(complex: SimplicialComplex, data: dict):
    """The sequence a sequence file holds; a malformed value raises a
    ValueError that names its field."""
    if type(data) is not dict:
        raise ValueError(f"sequence file must hold an object, not a {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("collapse", "strong-collapse"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    steps = data.get("steps")
    if type(steps) is not list:
        raise ValueError(f"sequence file field 'steps' is {steps!r}, not a list")
    terminal = _file_id(data.get("terminal"), "'terminal'")
    names, read = ((("sigma", "tau"), _file_simplex) if kind == "collapse"
                   else (("dominated", "dominating"), _file_id))
    pairs = []
    for i, st in enumerate(steps):
        if type(st) is not dict:
            raise ValueError(f"sequence file step {i} is {st!r}, not an object")
        pairs.append(tuple(read(st.get(name), f"'{name}' of step {i}") for name in names))
    if kind == "collapse":
        return CollapseSequence(complex, pairs, terminal)
    return StrongCollapseSequence(complex, pairs, terminal)


def save_sequence(seq, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_json(seq), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sequence(complex: SimplicialComplex, path):
    with open(path) as fh:
        return sequence_from_json(complex, json.load(fh))
