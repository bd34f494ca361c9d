"""Product complexes, prism extrusion, and combinatorial contractions.

The product of a base complex with a subdivided interval is the *staircase*
triangulation: product vertices ``(v, level)`` are ordered by the global id
``level * stride + v`` (a linear extension of the componentwise partial
order), and the simplices within one slab are exactly the chains of that
partial order.  The extrusion operator sends a base k-simplex to the signed
sum of the (k+1)-dimensional prisms over all slabs; together with the two
end inclusions it satisfies the prism identity

    boundary(E(c)) + E(boundary(c)) = j1(c) - j0(c)

exactly, in integer arithmetic.  ``ProductComplex.prisms`` yields the prisms
of one base simplex; the product complex itself is built only on request.

Collapse sequences (free-face removals) and strong collapse sequences
(dominated-vertex removals) are searched greedily, with optional
backtracking for the former; failures are returned as ``None``.  A strong
collapse sequence induces a discrete contraction: a vertex function on the
product vertices that is the identity at the top level and constant at the
bottom, and that is simplicial when the sequence is valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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

    Stores only the base, breakpoints and vertex stride; ``complex``, ``j0``
    and ``j1`` are built from ``prisms`` on first access and cached.
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

    def prisms(self, simplex: Simplex):
        """Yield ``(sign, prism)`` for the staircase prisms over every slab.

        In slab ``r`` the i-th prism of ``(v_0, ..., v_k)`` is
        ``(v_0@r, ..., v_i@r, v_i@r+1, ..., v_k@r+1)`` with sign ``(-1)^i``.
        """
        stride = self.stride
        for r in range(self.n_slabs):
            lo = [r * stride + v for v in simplex]
            hi = [(r + 1) * stride + v for v in simplex]
            for i in range(len(simplex)):
                yield (-1) ** i, tuple(lo[: i + 1] + hi[i:])

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex(
            prism
            for simplices in self.base.simplices_by_dim.values()
            for s in simplices
            for _, prism in self.prisms(s)
        )

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


def _free_faces(current: set[Simplex], pinned: int | None):
    """Map free face -> unique coface within the current simplex set."""
    counts: dict[Simplex, int] = {}
    witness: dict[Simplex, Simplex] = {}
    for s in current:
        if len(s) < 2:
            continue
        for f in facets_of(s):
            counts[f] = counts.get(f, 0) + 1
            witness[f] = s
    skip = (pinned,) if pinned is not None else None
    return {
        f: witness[f]
        for f, n in counts.items()
        if n == 1 and f in current and f != skip
    }


def _candidate_order(free: dict) -> list[Simplex]:
    return sorted(free, key=lambda f: (-len(f), f))


def find_collapse_sequence(complex: SimplicialComplex, terminal: int | None = None,
                           budget: int = 100_000) -> CollapseSequence | None:
    """Search for a full collapse to a vertex.

    Greedy strategy: always remove the free face of largest dimension,
    breaking ties lexicographically.  If the greedy run gets stuck, a
    depth-first search over removal orders (same preference, memoized on the
    surviving simplex set, at most ``budget`` states) takes over.  Returns
    None when no sequence is found.
    """
    if terminal is not None and (terminal,) not in complex:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    initial = {s for sims in complex.simplices_by_dim.values() for s in sims}

    def finished(current):
        if len(current) != 1:
            return None
        (only,) = current
        if len(only) != 1:
            return None
        if terminal is not None and only[0] != terminal:
            return None
        return only[0]

    # greedy pass
    current = set(initial)
    steps: list[tuple[Simplex, Simplex]] = []
    while True:
        v = finished(current)
        if v is not None:
            return CollapseSequence(complex, steps, v)
        free = _free_faces(current, terminal)
        if not free:
            break
        tau = _candidate_order(free)[0]
        sigma = free[tau]
        current.discard(tau)
        current.discard(sigma)
        steps.append((sigma, tau))

    # backtracking pass
    visited: set[frozenset] = set()
    nodes = 0

    def search(current: frozenset, steps):
        nonlocal nodes
        v = finished(current)
        if v is not None:
            return steps, v
        if current in visited:
            return None
        visited.add(current)
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        free = _free_faces(set(current), terminal)
        for tau in _candidate_order(free):
            sigma = free[tau]
            result = search(current - {tau, sigma}, steps + [(sigma, tau)])
            if result is not None:
                return result
        return None

    try:
        result = search(frozenset(initial), [])
    except _BudgetExhausted:
        return None
    if result is None:
        return None
    steps, v = result
    return CollapseSequence(complex, steps, v)


class _BudgetExhausted(Exception):
    pass


def validate_collapse_sequence(seq: CollapseSequence) -> bool:
    """Replay the sequence, re-deriving the free-face property at each step."""
    current = {s for sims in seq.complex.simplices_by_dim.values() for s in sims}
    for sigma, tau in seq.steps:
        if tau not in current or sigma not in current:
            return False
        if len(sigma) != len(tau) + 1 or not set(tau) < set(sigma):
            return False
        cofaces = [
            s for s in current if len(s) > len(tau) and set(tau) < set(s)
        ]
        if cofaces != [sigma]:
            return False
        current.discard(tau)
        current.discard(sigma)
    return current == {(seq.terminal,)}


# -- strong collapse -----------------------------------------------------


def _maximal_simplices(current: set[Simplex]) -> list[Simplex]:
    """Simplices of the set that are a facet of none of its members."""
    facets = {f for s in current if len(s) >= 2 for f in facets_of(s)}
    return [s for s in current if s not in facets]


def find_strong_collapse_sequence(complex: SimplicialComplex,
                                  terminal: int | None = None
                                  ) -> StrongCollapseSequence | None:
    """Greedily remove dominated vertices (lowest id first) until one remains.

    A vertex is dominated when some other vertex belongs to every maximal
    simplex containing it; removal deletes its entire star.  Returns None
    when the complex gets stuck before reaching a single vertex.
    """
    if terminal is not None and (terminal,) not in complex:
        raise ValueError(f"terminal vertex {terminal} not in complex")
    current = {s for sims in complex.simplices_by_dim.values() for s in sims}
    steps: list[tuple[int, int]] = []
    while True:
        vertices = sorted(s[0] for s in current if len(s) == 1)
        if len(vertices) == 1:
            last = vertices[0]
            if terminal is not None and last != terminal:
                return None
            return StrongCollapseSequence(complex, steps, last)
        by_vertex: dict[int, list[Simplex]] = {}
        for s in _maximal_simplices(current):
            for v in s:
                by_vertex.setdefault(v, []).append(s)
        found = None
        for v in vertices:
            if v == terminal:
                continue
            stars = by_vertex.get(v, [])
            if not stars:
                continue
            dominators = set(stars[0]) - {v}
            for s in stars[1:]:
                dominators &= set(s)
                if not dominators:
                    break
            if dominators:
                found = (v, min(dominators))
                break
        if found is None:
            return None
        v, _ = found
        current = {s for s in current if v not in s}
        steps.append(found)


def validate_strong_collapse_sequence(seq: StrongCollapseSequence) -> bool:
    current = {s for sims in seq.complex.simplices_by_dim.values() for s in sims}
    for v, w in seq.steps:
        if (v,) not in current or (w,) not in current or v == w:
            return False
        stars = [s for s in _maximal_simplices(current) if v in s]
        if not stars or any(w not in s for s in stars):
            return False
        current = {s for s in current if v not in s}
    return current == {(seq.terminal,)}


def contraction_from_strong_collapse(seq: StrongCollapseSequence,
                                     product: ProductComplex) -> Callable[[int], int]:
    """Contraction induced by the sequence, as a function on product vertex ids.

    Level ``m`` (time 1) maps by the identity, level ``m - j`` composes the
    first ``j`` vertex retractions, and level 0 is constant at the terminal
    vertex.  The product complex must have exactly one slab per removal step
    (one slab total when the sequence is empty).  ``contraction_cone``
    checks that the function is simplicial.
    """
    base = seq.complex
    if product.base is not base:
        raise ValueError("product complex must be built over the sequence's complex")
    m = len(seq.steps)
    top = product.n_slabs
    if top != max(m, 1):
        raise ValueError(f"sequence has {m} steps but product complex has {top} slabs")

    retractions = [{v: v for (v,) in base.simplices(0)}]
    for v, w in seq.steps:
        prev = retractions[-1]
        # w survives the first steps, so retracting the image through v -> w
        # composes correctly at the vertex level
        retractions.append({u: (w if img == v else img) for u, img in prev.items()})
    # retractions[j] maps through the first j removals

    def psi(product_vertex: int) -> int:
        v, level = product.vertex_level(product_vertex)
        return retractions[min(top - level, m)][v]

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
