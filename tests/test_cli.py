"""End-to-end command-line behavior: exit codes, reports, file outputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

from decpotentials import (
    SimplicialComplex,
    de_rham,
    load_cochain_csv,
    save_cochain_csv,
    save_mesh_json,
)
from decpotentials import cli, cones, homotopy, potentials
from decpotentials.cli import main

from conftest import annulus_complex, holed_square_complex

REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(text):
    return json.loads(text)


def err_json(text):
    return json.loads(text)["error"]


def test_mesh_info_square(capsys):
    code, out, err = run_cli(capsys, ["mesh-info", "--mesh", "builtin:square:2"])
    assert code == 0 and err == ""
    info = out_json(out)
    assert info["command"] == "mesh-info"
    assert info["mesh"] == "builtin:square:2"
    assert (info["vertices"], info["edges"], info["triangles"]) == (9, 16, 8)
    assert info["euler_characteristic"] == 1
    assert info["boundary_edges"] == 8
    assert info["bbox"] == [[0.0, 0.0], [1.0, 1.0]]
    assert abs(info["total_area"] - 1.0) < 1e-15


def test_mesh_info_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "info.json"
    code, out, _ = run_cli(
        capsys, ["mesh-info", "--mesh", "builtin:ushape:10", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text() == out
    assert out_json(out)["triangles"] == 144


def test_mesh_info_file_source(capsys, tmp_path, square1):
    path = tmp_path / "mesh.json"
    save_mesh_json(square1, path)
    for spec in (f"file:{path}", str(path)):
        code, out, _ = run_cli(capsys, ["mesh-info", "--mesh", spec])
        assert code == 0
        assert out_json(out)["vertices"] == 4


def test_bad_mesh_specs(capsys, tmp_path):
    for spec in ("builtin:hexagon:3", "builtin:square", str(tmp_path / "missing.json")):
        code, out, err = run_cli(capsys, ["mesh-info", "--mesh", spec])
        assert code == 2
        assert out == ""
        assert err_json(err)["type"] in ("ValueError", "FileNotFoundError")


def test_verify_collapse_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "collapse", "--trials", "5"],
    )
    assert code == 0
    report = out_json(out)
    assert report["pass"] is True
    assert report["op"] == "collapse"
    assert report["tolerance"] == 1e-12
    assert report["trials"] == 5
    assert sorted(report["per_k"]) == ["0", "1", "2"]


def test_verify_tolerance_threshold(capsys):
    argv = [
        "verify", "--mesh", "builtin:square:2", "--op", "star",
        "--point", "0.52,0.51", "--trials", "3", "--tolerance", "1e-30",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 3
    report = out_json(out)
    assert report["pass"] is False
    assert report["tolerance"] == 1e-30
    assert report["max_residual"] > 0.0


def test_verify_report_is_deterministic(capsys, tmp_path):
    argv = ["verify", "--mesh", "builtin:square:2", "--op", "star",
            "--point", "0.52,0.51", "--trials", "4"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, argv + ["--report", str(a)])[0] == 0
    assert run_cli(capsys, argv + ["--report", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_truncation_factor_is_an_accepted_no_op(capsys, tmp_path):
    argv = ["verify", "--mesh", "builtin:square:4", "--op", "bogovskii",
            "--point", "0.52,0.51", "--trials", "4"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, argv + ["--report", str(a)])[0] == 0
    assert run_cli(capsys, argv + ["--truncation-factor", "50", "--report", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_strong_collapse(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "strong-collapse",
         "--trials", "5"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True


def test_verify_contraction_on_closed_star(capsys, tmp_path, triangle):
    path = tmp_path / "tri.json"
    save_mesh_json(triangle, path)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", str(path), "--op", "contraction",
         "--terminal-vertex", "0", "--trials", "5"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True


def test_verify_contraction_requires_closed_star(capsys):
    # square:2 is not the closed star of its center, so the vertex map
    # collapsing the bottom level is not simplicial
    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "contraction",
         "--terminal-vertex", "4", "--trials", "2"],
    )
    assert code == 2
    assert "simplicial" in err_json(err)["message"]


def test_verify_contraction_requires_terminal(capsys):
    code, _, err = run_cli(
        capsys, ["verify", "--mesh", "builtin:square:2", "--op", "contraction"]
    )
    assert code == 2
    assert "--terminal-vertex" in err_json(err)["message"]


def test_verify_lipschitz_straight_line(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "lipschitz",
         "--contraction", "straight-line", "--point", "0.52,0.51", "--trials", "3"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True


def test_verify_lipschitz_requires_point(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "lipschitz",
         "--contraction", "straight-line"],
    )
    assert code == 2
    assert "--point" in err_json(err)["message"]


def test_verify_bogovskii(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "bogovskii",
         "--point", "0.52,0.51", "--trials", "3"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True


def test_verify_bogovskii_rejects_facet_point(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "bogovskii",
         "--point", "0.5,0.5"],
    )
    assert code == 2
    assert err_json(err)["type"] == "BasePointOnFacetError"


@pytest.mark.parametrize("op, message", [
    (["star"], "base point (nan, 0.5) lies outside the mesh"),
    (["bogovskii"], "base point (nan, 0.5) lies outside the mesh"),
    (["lipschitz", "--contraction", "ushape"], "contraction point (nan, 0.5) is not two finite"),
    (["lipschitz", "--contraction", "straight-line"],
     "contraction point (nan, 0.5) is not two finite"),
], ids=["star", "bogovskii", "lipschitz", "straight-line"])
def test_verify_rejects_a_nan_base_point(capsys, op, message):
    # located nowhere, like an infinite one, rather than failing in the grid
    # probe; a contraction rejects it before any image check
    code, out, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:4", "--op", *op, "--point", "nan,0.5"],
    )
    assert code == 2
    assert out == ""
    assert message in err_json(err)["message"]


def test_verify_bogovskii_rejects_a_domain_not_star_shaped_about_the_point(capsys):
    # the U-shape's right arm wall x = 0.7 faces away from (0.152, 0.151)
    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:ushape:20", "--op", "bogovskii",
         "--point", "0.152,0.151"],
    )
    assert code == 2
    error = err_json(err)
    assert error["type"] == "NotStarShapedError"
    assert "boundary edge (140, 154), margin -0.548" in error["message"]


def test_complex_property_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "collapse",
         "--complex-property", "--trials", "3"],
    )
    assert code == 0
    assert out_json(out)["operator"].endswith("complex-property")

    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "bogovskii",
         "--point", "0.52,0.51", "--complex-property"],
    )
    assert code == 2
    assert "complex-property" in err_json(err)["message"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_needs_at_least_one_trial(capsys, tmp_path, trials):
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "collapse",
         "--trials", trials, "--report", str(report)],
    )
    assert code == 2
    assert out == ""
    assert "--trials" in err_json(err)["message"]
    assert not report.exists()


def test_verify_rejects_a_negative_seed_before_building(capsys, tmp_path, monkeypatch):
    def build_operator(*args):
        raise AssertionError("the operator was built")

    monkeypatch.setattr(cli, "build_operator", build_operator)
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "collapse",
         "--seed", "-1", "--report", str(report)],
    )
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative integer, got -1" in err_json(err)["message"]
    assert not report.exists()


# every operator on square:4, its report written to a directory; prints the
# sha256 of each report
REPORTS_SCRIPT = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
sys.path.insert(0, {src!r})
from decpotentials.cli import main
out = Path(sys.argv[1])
runs = {{
    "collapse": ["--op", "collapse"],
    "collapse-cp": ["--op", "collapse", "--complex-property"],
    "strong-collapse": ["--op", "strong-collapse"],
    "star": ["--op", "star", "--point", "0.52,0.51"],
    "star-cp": ["--op", "star", "--point", "0.52,0.51", "--complex-property"],
    "lipschitz": ["--op", "lipschitz", "--contraction", "straight-line",
                  "--point", "0.52,0.51"],
    "bogovskii": ["--op", "bogovskii", "--point", "0.52,0.51"],
}}
digests = {{}}
for name, args in runs.items():
    path = out / (name + ".json")
    with redirect_stdout(io.StringIO()):
        code = main(["verify", "--mesh", "builtin:square:4", *args, "--trials", "6",
                     "--report", str(path)])
    assert code == 0, name
    digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests, sort_keys=True))
"""


def test_verify_reports_do_not_depend_on_the_hash_seed(tmp_path):
    script = REPORTS_SCRIPT.format(src=str(REPO / "src"))
    digests = []
    for seed in ("0", "4242"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        res = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                             check=True, capture_output=True, text=True, timeout=300)
        digests.append(json.loads(res.stdout))
    assert len(digests[0]) == 7
    assert digests[0] == digests[1]


def test_potential_writes_all_outputs(capsys, tmp_path, square2):
    def run_into(d):
        d.mkdir(exist_ok=True)
        argv = [
            "potential", "--mesh", "builtin:square:2", "--op", "star",
            "--point", "0.52,0.51", "--field", "g1",
            "--out", str(d / "pot.csv"),
            "--samples", str(d / "samples.csv"),
            "--report", str(d / "report.json"),
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        return out

    out = run_into(tmp_path / "one")
    report = out_json(out)
    assert report["command"] == "potential"
    assert report["field"] == "g1"
    assert report["degree"] == 2
    assert report["pass"] is True

    pot = load_cochain_csv(square2, tmp_path / "one" / "pot.csv")
    assert pot.dim == 1
    lines = (tmp_path / "one" / "samples.csv").read_text().splitlines()
    assert lines[0] == "x,y,vx,vy"
    assert len(lines) == 1 + 8

    run_into(tmp_path / "two")
    for name in ("pot.csv", "samples.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_potential_scalar_samples(capsys, tmp_path):
    samples = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        ["potential", "--mesh", "builtin:square:2", "--op", "star",
         "--point", "0.52,0.51", "--field", "f", "--samples", str(samples)],
    )
    assert code == 0
    assert out_json(out)["degree"] == 1
    assert samples.read_text().splitlines()[0] == "x,y,value"


# sha256 of the --out and --samples files of `decpot potential`, recorded
# before the sample rows were written in one loop and the grids and
# contraction images were built in numpy; the 1-form potentials (field f)
# re-recorded since segment pieces are integrated by the midpoint rule; the
# lipschitz ones again since segments are cut at crossings both neighbours share
POTENTIAL_FILE_DIGESTS = {
    "star-g1": ("3311d121bbecd5dabe5160f084a2ffce830dafc7dcd5e2c5dde1b4b169e0e309",
               "1da1427788c74613b647fc8141c4d43c38331c8bd8c0722add0b05997134bd83"),
    "star-f": ("21416278130ba01ce20923fec90050936ed039dba3d3885b83855d044c83fc44",
              "eaeabff5b95e46b6816672aff0b225756ce0a26fcc2422a43b2d5c54c7f79e1f"),
    "lipschitz-g1": ("76056a935996936085f45a3c1da5b950e47d7bd63ab1b11405d0a1d354a260df",
                    "31b4ae400072e3dceea0a3ef3d19c9b9bb0304f9c5983c3ee3dbe3f3ecc897df"),
    "lipschitz-f": ("2a67eaae373fb07a0f2f52c8fd09cac0c26c5f0002516498d15786750228254f",
                   "d3891a7bd364a7165398e8d3059afd27fc3bcea120f4f4131e8bb0a42809d68e"),
}
POTENTIAL_ARGS = {
    "star": ["--mesh", "builtin:square:8", "--op", "star", "--point", "0.52,0.51"],
    "lipschitz": ["--mesh", "builtin:ushape:10", "--op", "lipschitz",
                  "--contraction", "ushape", "--point", "0.2,0.2"],
}


@pytest.mark.parametrize("run", sorted(POTENTIAL_FILE_DIGESTS))
def test_potential_file_bytes_are_pinned(run, capsys, tmp_path):
    op, field = run.split("-")
    out, samples = tmp_path / "pot.csv", tmp_path / "samples.csv"
    code, _, _ = run_cli(capsys, ["potential", *POTENTIAL_ARGS[op], "--field", field,
                                  "--out", str(out), "--samples", str(samples)])
    assert code == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, samples))
    assert digests == POTENTIAL_FILE_DIGESTS[run]


def test_potential_from_cochain_file(capsys, tmp_path, square2):
    field = tmp_path / "field.csv"
    save_cochain_csv(de_rham(square2, lambda p: np.array([p[1], -p[0]]), 1), field)
    code, out, _ = run_cli(
        capsys,
        ["potential", "--mesh", "builtin:square:2", "--op", "collapse",
         "--field", f"file:{field}"],
    )
    assert code == 0
    assert out_json(out)["degree"] == 1


def test_potential_rejects_degree_zero_field(capsys, tmp_path, square2):
    field = tmp_path / "values.csv"
    save_cochain_csv(de_rham(square2, lambda p: p[0], 0), field)
    code, _, err = run_cli(
        capsys,
        ["potential", "--mesh", "builtin:square:2", "--op", "collapse",
         "--field", str(field)],
    )
    assert code == 2
    assert "degree" in err_json(err)["message"]


def test_potential_that_fails_writes_no_file(capsys, tmp_path, monkeypatch):
    # from the left arm of the U, star cones over the right arm cross the
    # notch, so assembling the potential's P_1 leaves the mesh; the star
    # operator's domain check, which rejects the U before any row, is
    # skipped to reach that row after P_2 has been applied
    monkeypatch.setattr(potentials, "check_star_shaped", lambda geometry, point, closed: None)
    code, _, err = run_cli(
        capsys,
        ["potential", "--mesh", "builtin:ushape:10", "--op", "star", "--point", "0.15,0.8",
         "--field", "f", "--out", str(tmp_path / "pot.csv"),
         "--samples", str(tmp_path / "s.csv")],
    )
    assert code == 2
    assert err_json(err)["type"] == "OutsideDomainError"
    assert list(tmp_path.iterdir()) == []


def test_find_collapse_and_reuse(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    code, out, _ = run_cli(
        capsys,
        ["find-collapse", "--mesh", "builtin:square:2", "--out", str(seq)],
    )
    assert code == 0
    found = out_json(out)
    assert found["steps"] > 0
    assert isinstance(found["terminal"], int)

    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "collapse",
         "--sequence", str(seq), "--trials", "3"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True

    # the file holds a plain collapse, not a strong collapse
    code, _, err = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "strong-collapse",
         "--sequence", str(seq)],
    )
    assert code == 2
    assert "sequence file" in err_json(err)["message"]


def test_find_strong_collapse(capsys, tmp_path):
    seq = tmp_path / "seq.json"
    code, out, _ = run_cli(
        capsys,
        ["find-strong-collapse", "--mesh", "builtin:square:2", "--out", str(seq)],
    )
    assert code == 0
    assert out_json(out)["steps"] == 8

    code, out, _ = run_cli(
        capsys,
        ["verify", "--mesh", "builtin:square:2", "--op", "strong-collapse",
         "--sequence", str(seq), "--trials", "3"],
    )
    assert code == 0
    assert out_json(out)["pass"] is True


def test_find_collapse_fails_on_annulus(capsys, tmp_path):
    path = tmp_path / "annulus.json"
    save_mesh_json(annulus_complex(), path)
    code, _, err = run_cli(capsys, ["find-collapse", "--mesh", str(path)])
    assert code == 2
    assert "no collapse sequence" in err_json(err)["message"]


def test_find_collapse_on_holed_square_is_a_precondition_error(capsys, tmp_path):
    path = tmp_path / "holed.json"
    save_mesh_json(holed_square_complex(), path)
    code, out, err = run_cli(capsys, ["find-collapse", "--mesh", str(path)])
    assert code == 2 and out == ""
    error = err_json(err)
    assert error["type"] == "PreconditionError"
    assert "no collapse sequence" in error["message"]


def test_find_collapse_past_the_euler_check_says_the_mesh_is_not_collapsible(
        capsys, tmp_path):
    # a disjoint triangle lifts the holed square's Euler characteristic to 1;
    # the greedy collapse gets stuck on the cycle round the hole
    holed = holed_square_complex()
    n = holed.vertex_count
    coords = np.vstack([holed.coordinates[:n], [(2.0, 0.0), (3.0, 0.0), (2.0, 1.0)]])
    cx = SimplicialComplex(holed.simplices(2) + [(n, n + 1, n + 2)], coords)
    assert cx.euler_characteristic() == 1
    path = tmp_path / "holed-plus-triangle.json"
    save_mesh_json(cx, path)
    code, out, err = run_cli(capsys, ["find-collapse", "--mesh", str(path)])
    assert code == 2 and out == ""
    error = err_json(err)
    assert error["type"] == "PreconditionError"
    assert "not collapsible" in error["message"]


@pytest.mark.parametrize("command", ["find-collapse", "find-strong-collapse"])
def test_failed_search_states_the_euler_characteristic(capsys, tmp_path, command):
    path = tmp_path / "annulus.json"
    save_mesh_json(annulus_complex(), path)
    code, _, err = run_cli(capsys, [command, "--mesh", str(path)])
    assert code == 2
    message = err_json(err)["message"]
    assert "collapse sequence" in message and "Euler characteristic 0" in message


@pytest.mark.parametrize("command", ["find-collapse", "find-strong-collapse"])
def test_failed_search_with_euler_characteristic_one_names_no_euler_cause(
        capsys, tmp_path, command):
    # the annulus plus a disjoint triangle has Euler characteristic 1, so the
    # search runs and fails for another reason than the Euler characteristic
    annulus = annulus_complex()
    n = annulus.vertex_count
    coords = np.vstack([annulus.coordinates[:n], [(3.0, 0.0), (4.0, 0.0), (3.0, 1.0)]])
    cx = SimplicialComplex(annulus.simplices(2) + [(n, n + 1, n + 2)], coords)
    assert cx.euler_characteristic() == 1
    path = tmp_path / "two-parts.json"
    save_mesh_json(cx, path)
    code, _, err = run_cli(capsys, [command, "--mesh", str(path)])
    assert code == 2
    message = err_json(err)["message"]
    assert "sequence found for this mesh" in message and "Euler" not in message


def test_failed_strong_collapse_names_its_core_size(capsys, tmp_path):
    # collapsible (Euler characteristic 1), but no vertex of this Delaunay
    # mesh is dominated, so the greedy strong collapse removes none
    pts = np.vstack([np.random.default_rng(0).uniform(size=(30, 2)),
                     [[0, 0], [1, 0], [0, 1], [1, 1]]])
    cx = SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)
    assert cx.euler_characteristic() == 1
    path = tmp_path / "delaunay.json"
    save_mesh_json(cx, path)
    code, out, err = run_cli(capsys, ["find-strong-collapse", "--mesh", str(path)])
    assert code == 2 and out == ""
    message = err_json(err)["message"]
    assert "the strong-collapse core has 34 of 34 vertices" in message, message


def console_script_target(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def write_console_script(bin_dir, name, target):
    """Write the wrapper that installers generate for a console script.

    Returns the path of the executable written.
    """
    module, attr = target.split(":")
    bin_dir.mkdir()
    path = bin_dir / name
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    path.chmod(0o755)
    return path


def test_console_script_roundtrip(tmp_path):
    # run the `decpot` script that pyproject.toml declares, as its own
    # process, against this checkout's sources; no install is needed
    exe = write_console_script(
        tmp_path / "bin", "decpot", console_script_target("decpot")
    )
    pythonpath = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [str(exe), "mesh-info", "--mesh", "builtin:square:1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertices"] == 4


# -- runs that read only the complex's rows --------------------------------

LOAD_MESH = cli.load_mesh
SMALLEST_OPERATORS = {
    "collapse": ["--mesh", "builtin:square:2"],
    "strong-collapse": ["--mesh", "builtin:square:2"],
    "contraction": ["--mesh", "builtin:square:1", "--terminal-vertex", "0"],
    "star": ["--mesh", "builtin:square:2", "--point", "0.52,0.51"],
    "lipschitz": ["--mesh", "builtin:ushape:10", "--contraction", "ushape", "--point", "0.2,0.2"],
    "bogovskii": ["--mesh", "builtin:square:2", "--point", "0.52,0.51"],
}


def run_without_tuple_tables(capsys, monkeypatch, argv):
    """Run decpot, then check that the complex it loaded holds neither the
    canonical simplex tuples nor their index; returns run_cli's result and
    that complex."""
    loaded = []
    monkeypatch.setattr(cli, "load_mesh", lambda spec: loaded.append(LOAD_MESH(spec)) or loaded[0])
    result = run_cli(capsys, argv)
    (cx,) = loaded
    assert "simplices_by_dim" not in vars(cx) and "_index" not in vars(cx), argv
    return (*result, cx)


@pytest.mark.parametrize("op", sorted(SMALLEST_OPERATORS))
def test_verify_and_potential_build_no_simplex_tuples(op, capsys, monkeypatch, tmp_path):
    args = ["--op", op, *SMALLEST_OPERATORS[op]]
    code, *_ = run_without_tuple_tables(capsys, monkeypatch, ["verify", *args, "--trials", "3"])
    assert code == 0
    # g2 has zero mean, so every operator takes it; f is a 1-form, whose
    # nonzero boundary trace Bogovskii's identity does not cover (exit 3)
    for field in ("g2", "f"):
        out, samples = tmp_path / f"{field}.csv", tmp_path / f"{field}-samples.csv"
        code, _, err, cx = run_without_tuple_tables(
            capsys, monkeypatch, ["potential", *args, "--field", field, "--out", str(out),
                                  "--samples", str(samples)])
        assert code == (3 if (op, field) == ("bogovskii", "f") else 0) and err == ""
        assert out.read_text().startswith(f"dim,{1 if field == 'g2' else 0}\n")
        rows = samples.read_text().splitlines()
        assert rows[0] == ("x,y,vx,vy" if field == "g2" else "x,y,value")
        assert len(rows) == 1 + cx.num_simplices(2)


@pytest.mark.parametrize("op", sorted(SMALLEST_OPERATORS))
def test_verify_and_potential_build_no_product_complex(op, capsys, monkeypatch):
    # strong collapse and contraction read their cones off the steps: no
    # ProductComplex, contraction or prism sweep; lipschitz_cone reads its
    # prisms off a ProductComplex of the contraction's breakpoints, never
    # listing its simplices
    def refuse(*args):
        raise AssertionError("a contraction was built or swept")

    built, init = [], homotopy.ProductComplex.__init__
    monkeypatch.setattr(homotopy.ProductComplex, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    for module in (cli, cones, homotopy):
        for name in ("contraction_from_strong_collapse", "_swept_terms"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    args = ["--op", op, *SMALLEST_OPERATORS[op]]
    for argv in (["verify", *args, "--trials", "3"], ["potential", *args, "--field", "g2"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 0 and err == "", argv
    assert bool(built) == (op == "lipschitz")
    assert all("complex" not in vars(p) for p in built)


def test_invalid_strong_collapse_sequence_file_names_its_step(capsys, tmp_path):
    path = tmp_path / "seq.json"
    assert run_cli(capsys, ["find-strong-collapse", "--mesh", "builtin:square:2",
                            "--out", str(path)])[0] == 0
    data = json.loads(path.read_text())
    # the third step retracts its vertex onto the one the first step removed
    data["steps"][2]["dominating"] = data["steps"][0]["dominated"]
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["verify", "--mesh", "builtin:square:2",
                                      "--op", "strong-collapse", "--sequence", str(path)])
    assert code == 2 and out == ""
    v = data["steps"][2]["dominated"]
    assert err_json(err) == {
        "type": "ValueError",
        "message": f"not a strong collapse: step 2 ({v}, {data['steps'][0]['dominated']}) "
                   f"retracts {v} onto a removed vertex or itself"}


@pytest.mark.parametrize("argv", [
    ["mesh-info", "--mesh", "builtin:ushape:10"],
    ["find-collapse", "--mesh", "builtin:square:4"],
    ["find-strong-collapse", "--mesh", "builtin:square:4", "--terminal-vertex", "3"],
])
def test_mesh_commands_build_no_simplex_tuples(argv, capsys, monkeypatch, tmp_path):
    out = [] if argv[0] == "mesh-info" else ["--out", str(tmp_path / "seq.json")]
    code, *_ = run_without_tuple_tables(capsys, monkeypatch, [*argv, *out])
    assert code == 0


@pytest.mark.parametrize("argv, error", [
    (["--mesh", "builtin:ushape:10", "--op", "star", "--point", "0.15,0.8"],
     {"type": "NotStarShapedError",
      "message": "the domain is not star-shaped about base point (0.15, 0.8): it lies "
                 "outside boundary edge (40, 48), margin -0.55"}),
    (["--mesh", "builtin:square:4", "--op", "bogovskii", "--point", "0.5,0.5"],
     {"type": "BasePointOnFacetError",
      "message": "base point (0.5, 0.5) lies on edge (6, 12) within 1.4e-12"}),
    (["--mesh", "builtin:square:4", "--op", "contraction", "--terminal-vertex", "99"],
     {"type": "PreconditionError", "message": "terminal vertex 99 not in mesh"}),
])
def test_error_exits_build_no_simplex_tuples(argv, error, capsys, monkeypatch):
    code, _, err, _ = run_without_tuple_tables(capsys, monkeypatch, ["verify", *argv])
    assert code == 2 and err_json(err) == error


def test_strong_collapse_of_a_mesh_with_a_large_vertex_id(capsys, tmp_path):
    # one triangle on vertices 0, 1 and 60000 of a file's vertex list
    coords = np.zeros((60001, 2))
    coords[1], coords[60000] = (1.0, 0.0), (0.0, 1.0)
    path = tmp_path / "sparse.json"
    save_mesh_json(SimplicialComplex([(0, 1, 60000)], coords), path)
    code, out, err = run_cli(capsys, ["verify", "--mesh", f"file:{path}",
                                      "--op", "strong-collapse", "--trials", "3"])
    assert code == 0 and err == ""
    assert out_json(out)["pass"] is True
