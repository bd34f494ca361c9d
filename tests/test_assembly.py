"""Batched Whitney assembly against per-row loops, off the axis-aligned grids.

The reference below is the row-by-row integration that the batched kernels
replaced: a scalar Sutherland-Hodgman clip against every mesh triangle whose
bounding box meets the image, and segments split at every mesh-edge crossing
with a brute-force point location per piece.  It shares no code with the
kernels.  The kernels differ from it in summation order and in which
near-duplicate crossings split a segment, so rows agree to round-off; the
tolerance is the 1e-12 allowed between the assembled matrices of two
versions.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decpotentials import (
    BasePointOnFacetError,
    BogovskiiOperator,
    Cochain,
    DiscretePoincareOperator,
    MeshGeometry,
    NotStarShapedError,
    SlabAffineContraction,
    generate_square_mesh,
    generate_ushape_mesh,
    lipschitz_cone,
    star_cone,
)
from decpotentials import singular
from decpotentials.singular import chain_functional

from conftest import jitter_interior, matrix_digest, unchecked_bogovskii, unchecked_star

GAUSS = ((0.5 - 0.5 * np.sqrt(0.6), 5 / 18), (0.5, 8 / 18), (0.5 + 0.5 * np.sqrt(0.6), 5 / 18))
SRC = Path(__file__).resolve().parent.parent / "src"


def ref_clip(subject, clipper):
    out = [tuple(p) for p in subject]
    c1 = clipper[-1]
    for c2 in clipper:
        if not out:
            return []
        ex, ey = c2[0] - c1[0], c2[1] - c1[1]
        dist = [ex * (p[1] - c1[1]) - ey * (p[0] - c1[0]) for p in out]
        src, out = out, []
        s, ds = src[-1], dist[-1]
        for e, de in zip(src, dist):
            if (de >= 0.0) != (ds >= 0.0):
                t = ds / (ds - de)
                out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
            if de >= 0.0:
                out.append(e)
            s, ds = e, de
        c1 = c2
    return out


def ref_area(poly):
    # summed term by term in point order, the closing edge first
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(poly[-1:] + poly[:-1], poly):
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def clip_batch():
    """(subjects padded with nan, sizes, CCW clippers) of 2,100 polygons."""
    rng = np.random.default_rng(23)
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    subjects, clippers = [], []

    def ccw(tri):
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        return tri if e1[0] * e2[1] - e1[1] * e2[0] > 0 else tri[::-1]

    # random triangles of either orientation against random CCW triangles
    for _ in range(800):
        subjects.append(rng.uniform(-0.5, 1.5, (3, 2)))
        clippers.append(ccw(rng.uniform(-0.5, 1.5, (3, 2))))
    # dyadic points on a 1/4 lattice: subjects that touch, run along or pass
    # through the clipper's edges and corners
    while len(subjects) < 1400:
        tri = rng.integers(-2, 7, (3, 2)) / 4.0
        clip = rng.integers(0, 5, (3, 2)) / 4.0
        e1, e2 = clip[1] - clip[0], clip[2] - clip[0]
        if e1[0] * e2[1] - e1[1] * e2[0] != 0.0:
            subjects.append(tri)
            clippers.append(ccw(clip))
    # against the unit triangle, whose half-planes are x >= 0, y >= 0 and
    # x + y <= 1 in clip order: emptied by the first, second and third, and
    # wholly inside, each moved by a random similarity shared with the clipper
    for base in ([[-2.0, 0.2], [-1.0, 0.2], [-1.5, 0.7]], [[0.2, -2.0], [0.6, -2.0], [0.4, -1.0]],
                 [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]], [[0.1, 0.1], [0.5, 0.1], [0.1, 0.5]]):
        for _ in range(100):
            a = rng.uniform(0, 2 * np.pi)
            m = rng.uniform(0.1, 10.0) * np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            move = rng.uniform(-5, 5, 2)
            subjects.append(np.array(base) @ m.T + move)
            clippers.append(unit @ m.T + move)
    # the mesh bounding box as shadow_pieces passes it, against random triangles
    box = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for _ in range(300):
        subjects.append(box)
        clippers.append(ccw(rng.uniform(-1.0, 2.0, (3, 2))))
    n = np.array([len(s) for s in subjects])
    xy = np.full((len(subjects), 4, 2), np.nan)
    for i, s in enumerate(subjects):
        xy[i, :len(s)] = s
    return xy, n, np.array(clippers)


def test_batched_clip_is_the_scalar_clip_bit_for_bit():
    xy, n, clippers = clip_batch()
    sides = singular._sides(clippers)
    out, row = singular._clip(xy, n, sides)
    areas = singular._areas(out, row, len(xy))
    assert len(xy) >= 2000 and (np.diff(row) >= 0).all()
    for i in range(len(xy)):
        ref = ref_clip([tuple(p) for p in xy[i, :n[i]]], [tuple(p) for p in clippers[i]])
        mine = out[row == i]
        assert np.array(ref, dtype=float).reshape(-1, 2).tobytes() == mine.tobytes(), i
        assert np.float64(ref_area(ref)).tobytes() == areas[i].tobytes(), i
        one, one_row = singular._clip(xy[i:i + 1], n[i:i + 1], sides[i:i + 1])
        assert one.tobytes() == mine.tobytes() and (one_row == 0).all()
    # polygons emptied by each half-plane in turn, and some left whole
    alive = [np.isin(np.arange(len(xy)), singular._clip(xy, n, sides[:, :j])[1])
             for j in range(4)]
    assert all((alive[j - 1] & ~alive[j]).sum() >= 100 for j in (1, 2, 3))
    assert (areas != 0.0).sum() >= 1000


def ref_bary(geom, t, p):
    d = p - geom.corners[t, 0]
    l1 = np.einsum("...j,...j->...", geom.gradients[t, 1], d)
    l2 = np.einsum("...j,...j->...", geom.gradients[t, 2], d)
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def ref_locate(geom, p):
    """Lowest-index triangle holding p, scanning every triangle."""
    hits = np.nonzero((ref_bary(geom, np.arange(len(geom.corners)), p) >= -1e-12).all(axis=1))[0]
    return int(hits[0]) if hits.size else None


def ref_segment_row(geom, a, b, row, c):
    d = b - a
    p = geom.edge_coords[:, 0]
    s = geom.edge_coords[:, 1] - p
    with np.errstate(divide="ignore", invalid="ignore"):
        den = d[0] * s[:, 1] - d[1] * s[:, 0]
        t = ((p - a)[:, 0] * s[:, 1] - (p - a)[:, 1] * s[:, 0]) / den
        u = ((p - a)[:, 0] * d[1] - (p - a)[:, 1] * d[0]) / den
    cut = (np.abs(den) > 1e-12 * np.linalg.norm(d) * np.linalg.norm(s, axis=1)) & \
        (u >= -1e-9) & (u <= 1 + 1e-9) & (t > 1e-12) & (t < 1 - 1e-12)
    ts = [0.0, *sorted(t[cut]), 1.0]
    for t0, t1 in zip(ts, ts[1:]):
        tri = ref_locate(geom, a + 0.5 * (t0 + t1) * d)
        if tri is None or t1 - t0 <= 1e-12:
            continue
        G = geom.gradients[tri]
        for node, w in GAUSS:
            lam = ref_bary(geom, tri, a + (t0 + node * (t1 - t0)) * d)
            for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                e = geom.triangle_edges[tri, local]
                row[e] += c * w * (t1 - t0) * ((lam[i] * G[j] - lam[j] * G[i]) @ d)


def ref_triangle_row(geom, pts, row, c):
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    sign = 1.0 if e1[0] * e2[1] - e1[1] * e2[0] > 0 else -1.0
    meets = ((geom.corners.min(axis=1) <= pts.max(axis=0))
             & (geom.corners.max(axis=1) >= pts.min(axis=0))).all(axis=1)
    for t in np.nonzero(meets)[0]:
        corners = geom.corners[t]
        ccw = corners if geom.signed_area[t] > 0 else corners[::-1]
        overlap = abs(ref_area(ref_clip(pts, ccw)))
        row[t] += c * sign * overlap / geom.signed_area[t]


def ref_row(geom, terms, size):
    """Row of a list of (coefficient, points) terms, one term at a time."""
    row = np.zeros(size)
    for c, pts in terms:
        pts = np.asarray(pts, dtype=float)
        if len(pts) == 2:
            ref_segment_row(geom, pts[0], pts[1], row, c)
        else:
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            scale = max(np.sum((p - q) ** 2) for p in pts for q in pts)
            if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-12 * scale:
                ref_triangle_row(geom, pts, row, c)
    return row


@pytest.fixture(scope="module")
def ops(jittered):
    """(Poincare operator, Bogovskii operator) that the jittered domain admits."""
    name, cx = jittered
    return operators(name, cx)


def operators(name, cx):
    geom = MeshGeometry(cx)
    if name == "square8":
        poincare = DiscretePoincareOperator(star_cone((0.5, 0.5), cx), geom, label="star")
    else:
        phi = SlabAffineContraction.ushape((0.2, 0.2))
        poincare = DiscretePoincareOperator(lipschitz_cone(phi, cx, geometry=geom), geom,
                                            label="lipschitz")
    if name == "square8":
        return poincare, BogovskiiOperator((0.52, 0.51), cx, geom)
    return poincare, unchecked_bogovskii((0.152, 0.151), cx, geom)


def terms_of(op, s):
    """(coefficient, points) of the singular terms of simplex s's row."""
    return [(c, t.points) for c, t in op.cone.table[s].terms]


def test_rows_match_the_loop_reference(ops):
    cx = ops[0].complex
    for op in ops:
        for k in (1, 2):
            m = op.matrix(k).toarray()
            worst = 0.0
            for i, s in enumerate(cx.simplices(k - 1)):
                ref = ref_row(op.geometry, terms_of(op, s), cx.num_simplices(k))
                worst = max(worst, float(np.max(np.abs(m[i] - ref))))
            assert worst <= 1e-12, (op.label, k, worst)


def test_rows_match_the_batch_of_one_functionals(ops):
    cx = ops[0].complex
    for op in ops:
        for k in (1, 2):
            m = op.matrix(k).toarray()
            for i, s in enumerate(cx.simplices(k - 1)):
                row = np.zeros(cx.num_simplices(k))
                for j, w in chain_functional(op.geometry, op.cone.table[s],
                                             allow_exterior=op.kind == "bogovskii").items():
                    row[j] += w
                assert np.max(np.abs(m[i] - row)) <= 1e-13, (op.label, k, s)


def residual_matrices(op):
    """R_k = D P + P D - I (with the constant term at k = 0) on admissible inputs."""
    cx = op.complex
    n = cx.dim
    D = [cx.coboundary_matrix(k).toarray() for k in range(n)]
    P = {k: op.matrix(k).toarray() for k in range(1, n + 1)}
    out = []
    for k in range(n + 1):
        size = cx.num_simplices(k)
        R = -np.eye(size)
        if k >= 1:
            R += D[k - 1] @ P[k]
        if k < n:
            R += P[k + 1] @ D[k]
        if k == 0:
            R += np.array([[op.constant_component(Cochain(cx, 0, e)) for e in np.eye(size)]])
        if op.kind == "bogovskii":
            R = R @ np.column_stack([op.project_admissible(Cochain(cx, k, e)).values
                                     for e in np.eye(size)])
        out.append(R)
    return out


def worst_row_sums(op):
    return [float(np.abs(R).sum(axis=1).max()) for R in residual_matrices(op)]


def test_residual_row_sums_stay_within_contract(ops):
    poincare, _ = ops
    assert max(worst_row_sums(poincare)) <= 1e-10


def test_bogovskii_residual_row_sums_stay_within_contract(ops):
    assert max(worst_row_sums(ops[1])) <= 1e-10


# base points just above a horizontal mesh edge of square:8 and ushape:10
NEAR_EDGE = {"square8": (0.5123, 0.5), "ushape10": (0.1623, 0.2)}


@pytest.mark.parametrize("j", range(4, 12))
@pytest.mark.parametrize("name", sorted(NEAR_EDGE))
def test_bogovskii_contract_holds_near_an_edge(name, j, request):
    x, y = NEAR_EDGE[name]
    build = BogovskiiOperator if name == "square8" else unchecked_bogovskii
    op = build((x, y + 10.0 ** -j), request.getfixturevalue(name))
    assert max(worst_row_sums(op)) <= 1e-12


@pytest.mark.parametrize("name", sorted(NEAR_EDGE))
def test_base_point_within_the_gate_names_the_edge(name, request):
    cx = request.getfixturevalue(name)
    x, y = NEAR_EDGE[name]
    ends = {s: cx.coordinates[list(s)] for s in cx.simplices(1)}
    (edge,) = [s for s, e in ends.items()
               if e[0, 1] == e[1, 1] == y and min(e[:, 0]) < x < max(e[:, 0])]
    with pytest.raises(BasePointOnFacetError, match=re.escape(f"lies on edge {edge}")):
        BogovskiiOperator((x, y + 1e-12), cx)


HASH_SCRIPT = """
import hashlib, sys
sys.path[:0] = [{src!r}, {tests!r}]
from conftest import jitter_interior
from decpotentials import generate_ushape_mesh, generate_square_mesh
from test_assembly import operators
h = hashlib.sha256()
for name, cx in (("square8", jitter_interior(generate_square_mesh(8))),
                 ("ushape10", jitter_interior(generate_ushape_mesh(10)))):
    for op in operators(name, cx):
        for k in (1, 2):
            m = op.matrix(k)
            for part in (m.data, m.indices, m.indptr):
                h.update(part.tobytes())
print(h.hexdigest())
"""


def test_matrix_bytes_do_not_depend_on_the_hash_seed():
    script = HASH_SCRIPT.format(src=str(SRC), tests=str(Path(__file__).resolve().parent))
    digests = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(res.stdout.strip())
    assert len(digests) == 1


# sha256 of the data, indices and indptr of matrix(1) and matrix(2) of the
# star operator at (0.5, 0.5) and the Lipschitz operator of the builtin
# U-shape contraction at (0.2, 0.2), recorded before the assembly gathered
# by ``take``: rewriting how the kernels gather values changes no bit
POINCARE_MATRIX_DIGESTS = {
    "star square:8": "b4dea363e6160a79b237327c328ef0c968d8707699430f5e5a7f5d7929de2865",
    "star jittered square:8": "ea0a22a6b98f59cd66d228791e6218309044928a8e81e48ef25694d1ebb7cac7",
    "lipschitz ushape:10": "78e018b5a432a8d968ae41b04cf822989ca67b7dab75f0ec84ec6e3073656fa4",
}


def star_operator(cx, point=(0.5, 0.5)):
    return DiscretePoincareOperator(star_cone(point, cx), MeshGeometry(cx))


def lipschitz_operator(cx):
    geom = MeshGeometry(cx)
    phi = SlabAffineContraction.ushape((0.2, 0.2))
    return DiscretePoincareOperator(lipschitz_cone(phi, cx, geometry=geom), geom)


POINCARE_BUILDS = {
    "star square:8": lambda: star_operator(generate_square_mesh(8)),
    "star jittered square:8": lambda: star_operator(jitter_interior(generate_square_mesh(8))),
    "lipschitz ushape:10": lambda: lipschitz_operator(generate_ushape_mesh(10)),
}


@pytest.mark.parametrize("name", sorted(POINCARE_BUILDS))
def test_poincare_matrices_keep_their_bits(name):
    assert matrix_digest(POINCARE_BUILDS[name]()) == POINCARE_MATRIX_DIGESTS[name]


def row_candidates(op):
    """Most (image, triangle) grid candidates of one row of either degree."""
    geom, most = op.geometry, 0
    for rows, _, corners in op.cone.terms.values():
        pts = op.cone.points.take(corners, axis=0)
        if len(rows):
            counts = geom.candidate_counts(pts.min(axis=1), pts.max(axis=1))
            most = max(most, int(np.bincount(rows, counts).max()))
    return most


def digest_or_error(op):
    try:
        return matrix_digest(op)
    except singular.OutsideDomainError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["square8", "ushape10"])
def test_chunk_size_changes_no_bit(name, monkeypatch):
    cx = {"square8": lambda: generate_square_mesh(8),
          "ushape10": lambda: generate_ushape_mesh(10)}[name]()
    # ``operators`` gives star and Bogovskii on the square, Lipschitz and
    # Bogovskii on the U-shape; the U-shape is not star-shaped about a point
    # of its bar, so its star operator is rejected before any row, and every
    # chunk size must reject the same first row of its unchecked star
    if name == "ushape10":
        with pytest.raises(NotStarShapedError, match=r"outside boundary edge \(40, 48\)"):
            star_operator(cx, (0.2, 0.2))
    third = (lipschitz_operator if name == "square8"
             else lambda cx: unchecked_star((0.2, 0.2), cx, MeshGeometry(cx)))
    results = []
    for pairs in (singular.CHUNK_PAIRS, 64, 1):
        monkeypatch.setattr(singular, "CHUNK_PAIRS", pairs)
        ops = [*operators(name, cx), third(cx)]
        results.append([digest_or_error(op) for op in ops])
    assert results[1] == results[0] and results[2] == results[0]
    if name == "ushape10":
        assert "leaves the mesh" in results[0][2]
    # a row whose candidates overfill a chunk is a chunk of its own
    assert max(map(row_candidates, ops)) > 64


def test_square16_matrices_keep_their_bits_across_default_chunks(monkeypatch):
    # at the default size every matrix of square:8 and ushape:10 fits in one
    # chunk; the k = 2 matrices of star and Bogovskii on square:16 (about 61k
    # and 50k candidates) take several, whose rows must add up as one chunk's
    cx = generate_square_mesh(16)
    pairs, chunks = singular._pairs, []

    def counted(*args):
        chunks.append(0)
        for chunk in pairs(*args):
            chunks[-1] += 1
            yield chunk

    monkeypatch.setattr(singular, "_pairs", counted)
    results, fewest = [], []
    for size in (singular.CHUNK_PAIRS, 64, 1):
        monkeypatch.setattr(singular, "CHUNK_PAIRS", size)
        geom = MeshGeometry(cx)
        ops = [DiscretePoincareOperator(star_cone((0.5, 0.5), cx), geom),
               BogovskiiOperator((0.52, 0.51), cx, geom)]
        most = []  # the most chunks of one matrix(2) call, per operator
        for op in ops:
            chunks.clear()
            op.matrix(2)
            most.append(max(chunks))
        fewest.append(min(most))
        results.append([matrix_digest(op) for op in ops])
    assert results[1] == results[0] and results[2] == results[0]
    assert 1 < fewest[0] < fewest[1] < fewest[2]


# tracemalloc peaks (MB) of one matrix(k) of a fresh operator, measured at
# CHUNK_PAIRS = 8192 with numpy 2.4: a chunk's arrays set them
ASSEMBLY_PEAK_MB = {
    ("star square:16", 1): 1.88, ("star square:16", 2): 2.07,
    ("lipschitz ushape:20", 1): 3.49, ("lipschitz ushape:20", 2): 2.82,
}


def assembly_operator(name):
    if name == "star square:16":
        return DiscretePoincareOperator(star_cone((0.5, 0.5), generate_square_mesh(16)))
    cx = generate_ushape_mesh(20)
    geom = MeshGeometry(cx)
    return DiscretePoincareOperator(
        lipschitz_cone(SlabAffineContraction.ushape((0.2, 0.2)), cx, geometry=geom), geom)


@pytest.mark.parametrize("name, k", sorted(ASSEMBLY_PEAK_MB))
def test_assembly_peak_memory_stays_bounded(name, k):
    # a larger chunk, or a chunk that holds more at one time, raises the peak
    op = assembly_operator(name)
    tracemalloc.start()
    try:
        op.matrix(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6 * ASSEMBLY_PEAK_MB[name, k], peak / 1e6
