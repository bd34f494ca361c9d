"""End-to-end command-line behavior: exit codes, reports, file outputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decpotentials import (
    SimplicialComplex,
    de_rham,
    load_cochain_csv,
    save_cochain_csv,
    save_mesh_json,
)
from decpotentials import cli
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
# contraction images were built in numpy
POTENTIAL_FILE_DIGESTS = {
    "star-g1": ("3311d121bbecd5dabe5160f084a2ffce830dafc7dcd5e2c5dde1b4b169e0e309",
               "1da1427788c74613b647fc8141c4d43c38331c8bd8c0722add0b05997134bd83"),
    "star-f": ("969ce880e58334443838a2ad0cc71c96bf72a50bf19ed549400bed2db8855126",
              "6b37c20f9b9bfe4a6b60ebc6b9cf3aac16305dc2ad1a524321051fd6e4e32cde"),
    "lipschitz-g1": ("76056a935996936085f45a3c1da5b950e47d7bd63ab1b11405d0a1d354a260df",
                    "31b4ae400072e3dceea0a3ef3d19c9b9bb0304f9c5983c3ee3dbe3f3ecc897df"),
    "lipschitz-f": ("66238b1989f28a5ef520241022fd21c22015a3c1049cbfbd15cdbf95abdacf83",
                   "50cac608c21fe6f5004f38b89097fb23d39875fb75905e1002cc94d99caed1da"),
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
