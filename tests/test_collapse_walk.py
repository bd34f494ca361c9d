"""The collapse cone's numpy walk and the sequence's numpy validation against
the step-by-step references in ``collapse_reference``."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import Delaunay

from decpotentials.cones import collapse_cone
from decpotentials.homotopy import (
    CollapseSequence,
    find_collapse_sequence,
    validate_collapse_sequence,
)
from decpotentials.meshes import generate_square_mesh, generate_ushape_mesh
from decpotentials.potentials import DiscretePoincareOperator
from decpotentials.simplicial import SimplicialComplex

from collapse_reference import cone_terms, replay
from conftest import random_collapsible


def _delaunay(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    return SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)


MESHES = {
    "square:4": lambda: generate_square_mesh(4),
    "ushape:10": lambda: generate_ushape_mesh(10),
    "delaunay:40": lambda: _delaunay(40, 3),
}


def _complexes():
    """(name, complex): random collapsible complexes up to dimension 3, then meshes."""
    rng = np.random.default_rng(39)
    out = [(f"random {i}", random_collapsible(rng, rounds=int(rng.integers(3, 13))))
           for i in range(120)]
    return out + [(name, build()) for name, build in MESHES.items()]


COMPLEXES = _complexes()


def _terms(cone):
    return {k: dict(zip(zip(rows.tolist(), cols.tolist()), coeffs.tolist()))
            for k, (rows, cols, coeffs) in cone.terms.items()}


def test_cone_terms_equal_the_dict_recurrence():
    dims = set()
    for name, cx in COMPLEXES:
        seq = find_collapse_sequence(cx)
        if seq is None:  # greedy can stick in dimension 3
            continue
        dims.add(cx.dim)
        cone = collapse_cone(seq)
        want = cone_terms(seq)
        assert _terms(cone) == want, name
        if not name.startswith("random"):
            # on a mesh no row meets a face twice: the terms keep the recurrence's order
            for k, (rows, cols, coeffs) in cone.terms.items():
                assert list(zip(zip(rows.tolist(), cols.tolist()), coeffs.tolist())) \
                    == list(want[k].items()), (name, k)
    assert dims == {1, 2, 3}


def _corrupted(seq, rng):
    """(what, steps, terminal) of sequences that replay differently or fail."""
    cx, steps, m = seq.complex, seq.steps, len(seq.steps)
    i, j = sorted(rng.choice(m, size=2, replace=False).tolist()) if m > 1 else (0, 0)
    sigma, tau = steps[i]
    k = len(tau) - 1
    others = [t for t in cx.simplices(k) if not set(t) <= set(sigma)]
    top = max(cx._rows[0][:, 0].tolist())
    out = [
        ("reversed", steps[::-1], seq.terminal),
        ("dropped", steps[:i] + steps[i + 1:], seq.terminal),
        ("swapped", steps[:i] + [steps[j]] + steps[i + 1:j] + [steps[i]] + steps[j + 1:],
         seq.terminal),
        ("adjacent swapped", steps[:i] + steps[i + 1:i + 2] + [steps[i]] + steps[i + 2:],
         seq.terminal),
        ("wrong terminal", steps, (seq.terminal + 1) % (top + 1)),
        ("absent terminal", steps, top + 1),
        ("removed twice", steps[:j] + [steps[i]] + steps[j:], seq.terminal),
        ("tau twice", steps[:j] + [(steps[j][0], tau)] + steps[j + 1:], seq.terminal),
        ("sigma twice", steps[:j] + [(sigma, steps[j][1])] + steps[j + 1:], seq.terminal),
        ("absent simplex", steps[:i] + [(sigma, (*tau[:-1], top + 1))] + steps[i + 1:],
         seq.terminal),
        ("huge vertex", steps[:i] + [(sigma, (*tau[:-1], 10 ** 30))] + steps[i + 1:],
         seq.terminal),
        ("sigma of tau's dimension", steps[:i] + [(tau, tau)] + steps[i + 1:], seq.terminal),
        ("empty tau", steps[:i] + [(sigma[:1], ())] + steps[i + 1:], seq.terminal),
    ]
    if others:
        other = others[int(rng.integers(len(others)))]
        out.append(("not a facet", steps[:i] + [(sigma, other)] + steps[i + 1:], seq.terminal))
    if k + 2 <= cx.dim:
        up = cx.simplices(k + 2)[0]
        out.append(("sigma two up", steps[:i] + [(up, tau)] + steps[i + 1:], seq.terminal))
    return out


def test_validation_and_its_errors_equal_the_replay():
    rng = np.random.default_rng(7)
    verdicts, reasons = {True: 0, False: 0}, set()
    for name, cx in COMPLEXES:
        seq = find_collapse_sequence(cx)
        if seq is None or not seq.steps:
            continue
        assert validate_collapse_sequence(seq) and replay(seq)[0] is None, name
        for what, steps, terminal in _corrupted(seq, rng):
            bad = CollapseSequence(cx, steps, terminal)
            want = replay(bad)[0]
            assert validate_collapse_sequence(bad) == (want is None), (name, what)
            verdicts[want is None] += 1
            if want is None:
                collapse_cone(bad)
                continue
            at, why = (None, "survivors") if want == "survivors" else want
            with pytest.raises(ValueError) as err:
                collapse_cone(bad)
            assert str(err.value).startswith(
                f"invalid collapse sequence: {_because(steps, at, why)}"), (name, what, str(err.value))
            reasons.add(why)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
    assert len(reasons) == 7, reasons


def _because(steps, at, why):
    """The start of the message for the replay's first failing step ``at``
    and the test ``why`` it fails."""
    if at is None:
        return "the steps leave"
    sigma, tau = steps[at]
    return f"step {at} ({sigma}, {tau}) " + {
        "dimensions": "names simplices of dimensions",
        "absent": "names ",
        "tau again": f"removes {tau} again",
        "sigma again": f"removes {sigma} again",
        "not a facet": f"{tau} is not a facet of {sigma}",
        "not free": f"{tau} is not free: it is still a face of (",
    }[why]


BAD_STEPS = {
    # square:2's first steps are ((0, 1, 4), (0, 1)), ((0, 3, 4), (0, 3)), ...
    "removed twice": (1, lambda steps: steps[0],
                      "removes (0, 1) again, after step 0"),
    "not a facet": (0, lambda steps: ((0, 3, 4), (0, 1)),
                    "(0, 1) is not a facet of (0, 3, 4)"),
    "not free": (0, lambda steps: ((0, 3, 4), (0, 4)),
                 "(0, 4) is not free: it is still a face of (0, 1, 4)"),
    "absent": (0, lambda steps: ((0, 1, 4), (0, 99)),
               "names (0, 99), which is not a simplex of the complex"),
    "dimensions": (0, lambda steps: ((0, 1, 4), (0,)),
                   "names simplices of dimensions 2 and 0, not k + 1 and k for some k < 2"),
    # numpy would read True beside integers as vertex 1
    "bool": (0, lambda steps: ((0, True, 4), (0, True)),
             "names (0, True, 4), which is not a simplex of the complex"),
}


@pytest.mark.parametrize("name", sorted(BAD_STEPS))
def test_an_invalid_sequence_names_its_first_bad_step(square2, name):
    seq = find_collapse_sequence(square2)
    assert seq.steps[:2] == [((0, 1, 4), (0, 1)), ((0, 3, 4), (0, 3))]
    at, step, why = BAD_STEPS[name]
    steps = list(seq.steps)
    steps[at] = step(steps)
    message = f"invalid collapse sequence: step {at} ({steps[at][0]}, {steps[at][1]}) {why}"
    with pytest.raises(ValueError) as err:
        collapse_cone(CollapseSequence(square2, steps, seq.terminal))
    assert str(err.value) == message


def test_an_invalid_sequence_names_its_survivors(square2):
    seq = find_collapse_sequence(square2)
    with pytest.raises(ValueError) as err:
        collapse_cone(CollapseSequence(square2, seq.steps[:-1], seq.terminal))
    assert str(err.value).startswith("invalid collapse sequence: the steps leave [(")
    with pytest.raises(ValueError) as err:
        collapse_cone(CollapseSequence(square2, seq.steps, 99))
    assert str(err.value) == (f"invalid collapse sequence: the steps leave [({seq.terminal},)], "
                              "not vertex 99 alone")


def _sha(m) -> str:
    h = hashlib.sha256()
    for a in (m.indptr, m.indices, m.data):
        h.update(a.dtype.str.encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 over indptr, indices and data of matrix(1) and matrix(2), recorded
# with the step-by-step recurrence: the walk keeps every bit
COLLAPSE_MATRIX_DIGESTS = {
    "square:8": ("94ea946f40f71d03be9bbdc5959025ad443c514d7bbee34a90a0df99082ef6e0",
                 "52edef31124516cd5f9f42ae1ce9691b46d4a65d2ef54eedb499234e24370f4b"),
    "square:12": ("7a45d35619eb68c015f7c3aecdefb5113a69226aef4394a1d1051f8118cc2a7c",
                  "3dd79eee307f330a0110985abd309ab3976013f1249e50fde93b31eddac1154a"),
    "square:16": ("fa331d08d45e224786c7fee517681b9464402722ce2246cfa53f4f2783e1c820",
                  "0dffa85f123bb1c7a6e23d4ffa56accb7df9d9e2db02f396a80d458bef28978f"),
    "ushape:20": ("93599297ea5056cf7a85ffefb272ca9009f5f3969b75298f0d2e4af630681bc9",
                  "e2063286c164a3e27e7559c00aa06567f994a3d2bef06569e4fbabd842e8ddd5"),
}


@pytest.mark.parametrize("mesh", sorted(COLLAPSE_MATRIX_DIGESTS))
def test_collapse_matrices_are_pinned(mesh):
    kind, n = mesh.split(":")
    cx = (generate_square_mesh if kind == "square" else generate_ushape_mesh)(int(n))
    op = DiscretePoincareOperator(collapse_cone(find_collapse_sequence(cx)))
    assert (_sha(op.matrix(1)), _sha(op.matrix(2))) == COLLAPSE_MATRIX_DIGESTS[mesh]


def test_collapse_cone_memory_stays_near_its_terms():
    # the terms are written into slots counted first: on square:32 the cone
    # peaked at 2.2 MB (the per-simplex dicts at 5.0 MB)
    cx = generate_square_mesh(32)
    seq = find_collapse_sequence(cx)
    tracemalloc.start()
    try:
        collapse_cone(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2.2e6, peak
