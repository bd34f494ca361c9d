"""Step-by-step references for collapse sequences: the sequential replay and
the per-simplex dict recurrence of the cone, one Python step at a time.

``homotopy._collapse_steps`` and ``cones.collapse_cone`` do the same work in
whole-array numpy passes; the tests compare them with these.
"""

from __future__ import annotations

import numpy as np

from decpotentials.homotopy import CollapseSequence


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
