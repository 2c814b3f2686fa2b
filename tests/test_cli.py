"""End-to-end CLI runs: exit codes, CSV/manifest artifacts, reproducibility."""

import ast
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from pinpath import cli, diagnostics, jacobi, measures, paths
from pinpath.geom import CurvatureModel, NumericalError
from pinpath.jacobi import Partition

from tests.oracles import mp_development


def run_cli(args):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False)


def read_text(path):
    with open(path) as fh:
        return fh.read()


def test_cli_import_loads_numpy_random_and_no_scipy():
    """`import pinpath.cli` in a fresh interpreter loads no scipy module and
    no process pool (concurrent.futures, multiprocessing: only a pinned run
    at more than one worker imports them), and loads numpy.random up front
    rather than inside the first sampling call."""
    code = ("import json, sys, pinpath.cli; print(json.dumps("
            "[sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'multiprocessing')), "
            "'numpy.random' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    unwanted, numpy_random = json.loads(out)
    assert unwanted == []
    assert numpy_random


def _file_writes(path):
    """Line numbers in the module at path of calls that write a file: open()
    with a mode that is not read-only text or bytes, json.dump and any
    .write, .writelines, .write_text, .write_bytes, np.save, np.savez,
    np.savetxt or .tofile."""
    writers = {"write", "writelines", "write_text", "write_bytes", "save", "savez",
               "savetxt", "tofile"}
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name == "open":
            mode = node.args[1:2] or [k.value for k in node.keywords if k.arg == "mode"]
            if mode and not (isinstance(mode[0], ast.Constant)
                             and set(mode[0].value) <= set("rbt")):
                yield node.lineno
        elif name in writers or (owner, name) == ("json", "dump"):
            yield node.lineno


def test_only_the_cli_writes_files():
    """No module of the package but cli.py opens a file for writing or calls
    json.dump: a run's files (results CSVs, manifests, a numerical failure's
    dump) are the CLI's alone, and a Python caller of the library gets
    no file."""
    package = os.path.dirname(cli.__file__)
    writes = {name: list(_file_writes(os.path.join(package, name)))
              for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert writes.pop("cli.py")         # the detector sees the CLI's own writes
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_commands_load_no_module_after_import(tmp_path):
    """In a fresh interpreter, after `import pinpath.cli`, small pinned, ibp,
    props and converge runs load no further module: nothing in their timed
    work imports lazily (numpy's median and quantile import numpy.ma on
    their first call).  converge may exit 1, a failed gate."""
    runs = [["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "4",
             "--rho", "1.0", "--N", "64"],
            ["ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "4",
             "--N", "64"],
            ["props", "--paths", "12", "--n", "8", "--kappa", "1"],
            ["converge", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
             "--n", "4,8,16,32", "--samples", "20"]]
    code = ("import json, sys, pinpath.cli\n"
            "new = {}\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    before = set(sys.modules)\n"
            "    try:\n"
            "        pinpath.cli.main.main(args=args + ['--out', sys.argv[2]],\n"
            "                              standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        allowed = (0, 1, None) if args[0] == 'converge' else (0, None)\n"
            "        assert exc.code in allowed, (args, exc.code)\n"
            "    new[args[0]] = sorted(set(sys.modules) - before)\n"
            "print(json.dumps(new))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == {"pinned": [], "ibp": [], "props": [],
                                                        "converge": []}


def test_pinned_flat_gates_pass(tmp_path):
    """Flat pinned run: exit 0, one CSV row, 3-sigma gate against the kernel."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "flat", "--d", "2", "--n", "8",
                   "--x", "1,0", "--N", "4096", "--seed", "7", "--out", out])
    assert res.exit_code == 0, res.output
    lines = read_text(os.path.join(out, "pinned_results.csv")).strip().split("\n")
    assert lines[0] == "schema=1"
    assert lines[1].startswith("model,d,kappa,n,x_norm,observable,N,mean,stderr,")
    assert len(lines) == 3
    row = lines[2].split(",")
    mean, stderr, oracle = float(row[7]), float(row[8]), float(row[9])
    assert abs(mean - oracle) <= 3 * stderr
    assert oracle == pytest.approx((2 * np.pi) ** -1 * np.exp(-0.5), rel=1e-12)

    manifest = json.loads(read_text(os.path.join(out, "pinned_manifest.json")))
    assert manifest["schema"] == 1
    assert manifest["gates_passed"] is True
    assert manifest["config"]["seed"] == 7


def test_pinned_manifest_records_stages_and_versions(tmp_path):
    """Each pinned manifest row carries the seconds of every estimator stage,
    summed over chunks, the numpy and Python versions, and numpy's BLAS with
    its thread settings from the environment (null when unset)."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "2", "--n", "4,8",
                   "--rho", "0.5", "--N", "5000", "--seed", "2", "--out", out])
    assert res.exit_code == 0, res.output
    rows = json.loads(read_text(os.path.join(out, "pinned_manifest.json")))["rows"]
    assert len(rows) == 2
    for row in rows:
        assert set(row["stage_s"]) == {"draw", "body_pass", "tip_factors", "observable",
                                       "reduction"}
        assert all(v >= 0.0 for v in row["stage_s"].values())
        assert row["stage_s"]["body_pass"] > 0.0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        threads = {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert row["versions"] == {"numpy": np.__version__,
                                   "python": platform.python_version(),
                                   "blas": {"name": blas, **threads}}


@pytest.mark.parametrize("model, want", [
    (["--model", "hyperbolic", "--d", "2", "--rho", "0.5"], ["free", "bridge", "bridge"]),
    (["--model", "flat", "--d", "2", "--x", "0.5,0"], ["free", "free", "free"])],
    ids=["hyperbolic", "flat"])
def test_pinned_manifest_records_the_proposal(tmp_path, model, want):
    """Each pinned manifest row names the body's proposal: the bridge on the
    hyperboloid, the free draw in flat space and wherever n = 1 leaves no
    body."""
    res = run_cli(["pinned", *model, "--n", "1,2,4", "--N", "64", "--out", str(tmp_path)])
    assert res.exit_code in (0, 1), res.output
    rows = json.loads(read_text(os.path.join(tmp_path, "pinned_manifest.json")))["rows"]
    assert [row["proposal"] for row in rows] == want


def test_pinned_rerun_is_byte_identical(tmp_path):
    """Identical configs produce byte-identical result CSVs."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["pinned", "--model", "flat", "--d", "1", "--n", "4", "--x", "0.5",
            "--N", "2048", "--seed", "1", "--out"]
    assert run_cli(args + [a]).exit_code == 0
    assert run_cli(args + [b]).exit_code == 0
    assert (read_text(os.path.join(a, "pinned_results.csv"))
            == read_text(os.path.join(b, "pinned_results.csv")))


def test_pinned_hyperbolic_without_oracle(tmp_path):
    """d=2 hyperbolic has no closed kernel: runs clean, abs_err is nan, and
    the run is reported ungated (gates_passed null), never passed."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                   "--n", "4", "--rho", "1.0", "--N", "512", "--out", out])
    assert res.exit_code == 0, res.output
    row = read_text(os.path.join(out, "pinned_results.csv")).strip().split("\n")[2]
    assert row.split(",")[-1] == "nan"
    assert "ungated: no oracle for this config" in res.output
    assert "gates passed" not in res.output
    assert json.loads(read_text(os.path.join(out, "pinned_manifest.json")))["gates_passed"] is None


def test_pinned_observable_without_oracle_is_ungated(tmp_path):
    """midpoint_r has no oracle, even on the d=3 kernel cell: the run gates
    nothing, prints "ungated" and records gates_passed null."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "3", "--rho", "1",
                   "--observable", "midpoint_r", "--n", "4", "--N", "200", "--out", out])
    assert res.exit_code == 0, res.output
    assert "ungated: no oracle for this config" in res.output
    assert "gates passed" not in res.output
    assert json.loads(read_text(os.path.join(out, "pinned_manifest.json")))["gates_passed"] is None


@pytest.mark.parametrize("target", [["--x", "0.3,0.4"], ["--rho", "2.0"]])
def test_pinned_flat_gate_has_a_roundoff_floor(tmp_path, monkeypatch, target):
    """At n = 1 every flat weight is equal, so the stderr is 0 and the error
    is roundoff: the gate passes within FLAT_GATE_ROUNDOFF |p_1|.  An
    estimate off by 1e-6 relative still fails it."""
    args = ["pinned", "--model", "flat", "--d", "2", "--n", "1", *target,
            "--N", "1000", "--out", str(tmp_path)]
    res = run_cli(args)
    assert res.exit_code == 0, res.output
    row = json.loads(read_text(os.path.join(tmp_path, "pinned_manifest.json")))["rows"][0]
    assert row["stderr"] == 0.0 and row["abs_err"] <= cli.FLAT_GATE_ROUNDOFF * row["oracle"]

    estimate = measures.pinned_estimate

    def off(*a, **k):
        res = estimate(*a, **k)
        res.mean *= 1.0 + 1e-6
        return res
    monkeypatch.setattr(measures, "pinned_estimate", off)
    res = run_cli(args)
    assert res.exit_code == cli.EXIT_GATE, res.output
    assert "gates FAILED" in res.output


@pytest.mark.parametrize("observable, power", [("radial_r", 1), ("radial_r2", 2)])
@pytest.mark.parametrize("cell", [
    ["--model", "flat", "--d", "2", "--rho", "2.0", "--n", "4", "--N", "20000"],
    ["--model", "hyperbolic", "--d", "3", "--kappa", "1", "--rho", "1.5", "--n", "32",
     "--N", "40960"]], ids=["flat2", "hyp3"])
def test_pinned_radial_observables_are_gated(tmp_path, cell, observable, power):
    """radial_r and radial_r2 read the knot s = 1, which is x, so each
    sample's value is rho or rho^2: their oracle is rho^k p_1, under the
    mass gate, and the run passes."""
    res = run_cli(["pinned", *cell, "--observable", observable, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    manifest = json.loads(read_text(os.path.join(tmp_path, "pinned_manifest.json")))
    row = manifest["rows"][0]
    model = CurvatureModel(cell[1], int(cell[3]), 1.0 if cell[1] == "hyperbolic" else 0.0)
    p1 = measures.heat_kernel_exact(model, 1.0, rho=row["x_norm"])
    assert np.isfinite(row["oracle"])
    assert row["oracle"] == pytest.approx(row["x_norm"] ** power * p1, rel=1e-12)
    assert manifest["gates_passed"] is True


def test_pinned_hyperbolic_d3_kernel_oracle(tmp_path):
    """d=3, kappa=1 picks up the closed kernel: finite abs_err, gate passes."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
                   "--n", "32", "--rho", "1.0", "--N", "8192", "--seed", "0",
                   "--out", out])
    assert res.exit_code == 0, res.output
    row = read_text(os.path.join(out, "pinned_results.csv")).strip().split("\n")[2]
    cells = row.split(",")
    assert np.isfinite(float(cells[-1])) and np.isfinite(float(cells[-2]))
    manifest = json.loads(read_text(os.path.join(out, "pinned_manifest.json")))
    assert manifest["gates_passed"]


def test_pinned_nan_dump_goes_under_out(tmp_path, monkeypatch):
    """A non-finite log-weight raises NumericalError whose dump names the bad
    samples, with the increments the first of them used, and writes no file;
    the CLI writes that dump under --out and exits with code 3."""
    chunk = measures._pinned_chunk

    def poisoned(*args):
        log_w, *rest = chunk(*args)
        log_w[3] = np.nan
        return (log_w, *rest)

    monkeypatch.setattr(measures, "_pinned_chunk", poisoned)
    monkeypatch.chdir(tmp_path)
    model, part = CurvatureModel("flat", 2), Partition(4)
    with pytest.raises(NumericalError) as exc:
        measures.pinned_estimate(model, part, np.array([1.0, 0.0]), n_samples=64, seed=5)
    payload = exc.value.dump
    assert payload["bad_indices"] == [3]
    assert payload["seed"] == 5
    assert payload["x"] == [1.0, 0.0]
    want = paths.sample_increments(model, part, 1, 5, start=3)[0]
    assert payload["first_bad_increments"] == want.tolist()

    # on the hyperboloid the dump holds the bridged body the chunk used (its
    # sample 3 of 64), and the last row as drawn
    model = CurvatureModel("hyperbolic", 3, 1.0)
    x = measures._target_point(model, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NumericalError) as exc:
        measures.pinned_estimate(model, part, x, n_samples=64, seed=5)
    got = np.array(exc.value.dump["first_bad_increments"])
    inc = paths.sample_increments(model, part, 64, 5)
    drawn = inc[3].copy()
    measures._body_pass(model, inc.transpose(1, 2, 0)[:3], x)
    assert np.array_equal(got, inc[3]) and np.array_equal(got[3], drawn[3])
    assert not np.array_equal(got[:3], drawn[:3])
    assert os.listdir(tmp_path) == []

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    res = run_cli(["pinned", "--model", "flat", "--d", "2", "--n", "4", "--x", "1,0",
                   "--N", "64", "--seed", "5", "--out", str(out)])
    assert res.exit_code == 3
    assert json.loads(read_text(out / "pinned_nan_dump.json"))["bad_indices"] == [3]
    assert not (tmp_path / "pinned_nan_dump.json").exists()


def test_converge_f_slope_band(tmp_path):
    """Canonical f run through the CLI: fitted slope lands in [0.4, 1.1]."""
    out = str(tmp_path)
    res = run_cli(["converge", "--stat", "f", "--model", "hyperbolic", "--d", "2",
                   "--n", "8,16,32,64,128", "--samples", "200", "--seed", "0",
                   "--out", out])
    assert res.exit_code == 0, res.output
    lines = read_text(os.path.join(out, "converge_f.csv")).strip().split("\n")
    slope = float(lines[2].split(",")[5])
    assert 0.4 <= slope <= 1.1
    assert lines[2].split(",")[6] == "True"


def test_pinned_config_errors(tmp_path):
    """Bad sample count / missing target / double target exit with code 2."""
    out = str(tmp_path)
    base = ["pinned", "--model", "flat", "--d", "2", "--x", "1,0", "--out", out]
    assert run_cli(base + ["--N", "1"]).exit_code == 2
    assert run_cli(["pinned", "--model", "flat", "--d", "2", "--out", out]).exit_code == 2
    assert run_cli(base + ["--rho", "1.0"]).exit_code == 2
    assert run_cli(["pinned", "--model", "flat", "--d", "5", "--x", "1,0,0,0,0",
                    "--out", out]).exit_code == 2


def test_config_file_with_flag_override(tmp_path):
    """JSON config supplies defaults; explicit flags win over it."""
    out = str(tmp_path)
    cfg_path = os.path.join(out, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"model": "flat", "d": 1, "n": "4", "N": 256,
                   "x": [0.5], "seed": 3, "out": out}, fh)
    res = run_cli(["pinned", "--config", cfg_path, "--N", "512"])
    assert res.exit_code == 0, res.output
    manifest = json.loads(read_text(os.path.join(out, "pinned_manifest.json")))
    assert manifest["config"]["n_samples"] == 512      # flag beat the file
    assert manifest["config"]["seed"] == 3             # file beat the default


def test_converge_flat_zero_statistics(tmp_path):
    """Flat convergence: all four CSVs written, everything identically zero."""
    out = str(tmp_path)
    res = run_cli(["converge", "--model", "flat", "--d", "2", "--n", "4,8,16,32",
                   "--samples", "10", "--out", out])
    assert res.exit_code == 0, res.output
    for stat in ("f", "K", "J", "adjoint"):
        lines = read_text(os.path.join(out, f"converge_{stat}.csv")).strip().split("\n")
        assert lines[0] == "schema=1"
        assert len(lines) == 6
        assert all(float(line.split(",")[2]) <= 1e-13 for line in lines[2:])
    manifest = json.loads(read_text(os.path.join(out, "converge_manifest.json")))
    assert all(v["passed"] for v in manifest["reports"].values())


def test_converge_single_statistic(tmp_path):
    """--stat K writes only the K report."""
    out = str(tmp_path)
    res = run_cli(["converge", "--stat", "K", "--model", "flat", "--d", "1",
                   "--n", "4,8,16,32", "--samples", "5", "--out", out])
    assert res.exit_code == 0, res.output
    assert os.path.exists(os.path.join(out, "converge_K.csv"))
    assert not os.path.exists(os.path.join(out, "converge_f.csv"))


def test_converge_manifest_records_stages(tmp_path):
    """The converge manifest records the seconds of each of CONVERGE_STAGES
    (draw, lift, sups, report); together they take at most the command's
    wall time."""
    out = str(tmp_path)
    res = run_cli(["converge", "--model", "hyperbolic", "--d", "2", "--n", "4,8,16,32",
                   "--samples", "20", "--out", out])
    assert res.exit_code in (0, 1), res.output
    manifest = json.loads(read_text(os.path.join(out, "converge_manifest.json")))
    assert list(manifest["stage_s"]) == list(diagnostics.CONVERGE_STAGES)
    assert list(manifest["stage_s"]) == ["draw", "lift", "sups", "report"]
    assert all(v >= 0.0 for v in manifest["stage_s"].values())
    assert sum(manifest["stage_s"].values()) <= manifest["wall_time_s"]


def test_converge_refuses_overflowing_curvature(tmp_path):
    """At kappa = 1e8 the interval scalars overflow and the Gram sums are
    NaN; the guard of the lift's K(1) solve refuses the run: exit 3, a
    numerical failure on the mass matrix, not nan quantiles and a failed
    gate.  Besides the overflow, the damped profiles underflow to 0 and
    their ratios divide by zero before the guard fires."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = run_cli(["converge", "--model", "hyperbolic", "--d", "2", "--kappa", "1e8",
                       "--n", "4,8,16,32", "--samples", "20", "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "numerical failure: mass matrix K(1) lost positivity or finiteness" in res.output


def test_converge_refuses_levels_that_do_not_nest(tmp_path, monkeypatch):
    """Every n of a converge run must divide the largest, so each level
    coarse-grains the same drawn paths: --n 4,6,8 is a config error, exit 2,
    raised before any increment is drawn, and nothing is written."""
    monkeypatch.setattr(paths, "sample_increments", lambda *a, **k: pytest.fail("drew"))
    res = run_cli(["converge", "--model", "hyperbolic", "--d", "2", "--n", "4,6,8",
                   "--samples", "10", "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "config error: every n must divide the largest, 8" in res.output
    assert os.listdir(tmp_path) == []


def test_props_small_run(tmp_path):
    """Property sweep over a small budget: exit 0 and a clean manifest."""
    out = str(tmp_path)
    res = run_cli(["props", "--paths", "24", "--n", "8", "--d", "2",
                   "--kappa", "1.0", "--out", out])
    assert res.exit_code == 0, res.output
    manifest = json.loads(read_text(os.path.join(out, "props_manifest.json")))
    assert all(v == 0 for v in manifest["violations"].values())
    assert "violations=0" in res.output
    # the sweep's stage timings, one entry per stage
    assert list(manifest["stage_s"]) == list(diagnostics.PROPS_STAGES)
    assert all(v >= 0.0 for v in manifest["stage_s"].values())


def test_props_manifest_records_every_audited_model(tmp_path):
    """The props manifest lists every dimension and both model kinds swept."""
    out = str(tmp_path)
    res = run_cli(["props", "--paths", "8", "--n", "4", "--d", "1,2", "--kappa", "1.0",
                   "--out", out])
    assert res.exit_code == 0, res.output
    config = json.loads(read_text(os.path.join(out, "props_manifest.json")))["config"]
    assert config["d"] == [1, 2]
    assert config["model"] == ["hyperbolic", "flat"]


def test_props_paths_is_the_total_split_over_models(tmp_path):
    """--paths is the total: props splits it evenly over the audited models,
    rounding down, so 25 paths over the 6 models of --d 1,2,3 audit 24."""
    out = str(tmp_path)
    res = run_cli(["props", "--paths", "25", "--n", "4", "--d", "1,2,3", "--out", out])
    assert res.exit_code == 0, res.output
    assert json.loads(read_text(os.path.join(out, "props_manifest.json")))["n_paths"] == 24
    assert "paths=24" in res.output


def test_props_refuses_overflowing_curvature(tmp_path):
    """At kappa = 1e8 the interval scalars overflow; the Gram pass's guard in
    tip_log_factors refuses the sweep before any margin is read: exit 3, a
    numerical failure on the mass matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_cli(["props", "--paths", "12", "--n", "8", "--kappa", "1e8",
                       "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "numerical failure: mass matrix K(1) lost positivity or finiteness" in res.output


def _check_sample_csv(path, model, n, N, seed, frames_too=True):
    """The knot rows of a sample run's CSV hold the increments of the same
    seed, and finite knots and frames within 1e-12 of the 60-digit forward
    boost chain (mp_development), relative to each knot's largest entry;
    the knots alone without frames_too."""
    D, d = model.ambient_dim, model.dim
    with open(path) as fh:
        assert fh.readline() == "schema=1\n"
    table = np.loadtxt(path, delimiter=",", skiprows=2)
    assert table.shape == (N * (n + 1), 3 + D + D * d + d)
    points = table[:, 3:3 + D].reshape(N, n + 1, D)
    frames = table[:, 3 + D:3 + D + D * d].reshape(N, n + 1, D, d)
    assert np.all(np.isfinite(points)) and np.all(np.isfinite(frames))
    inc = paths.sample_increments(model, Partition(n), N, seed)
    assert np.array_equal(table[:, -d:].reshape(N, n + 1, d)[:, 1:], inc)
    for sid in range(N):
        want_points, want_frames = mp_development(model.kappa, inc[sid])
        assert np.all(np.max(np.abs(points[sid] - want_points), axis=-1)
                      <= 1e-12 * np.max(np.abs(want_points), axis=-1)), sid
        assert not frames_too or np.all(
            np.max(np.abs(frames[sid] - want_frames), axis=(-2, -1))
            <= 1e-12 * np.max(np.abs(want_frames), axis=(-2, -1))), sid


def test_sample_dump(tmp_path):
    """sample writes schema + header + N*(n+1) knot rows, whose knots and
    frames are the developed increments of the same seed, within 1e-12 of
    the 60-digit boost chain."""
    out = str(tmp_path)
    res = run_cli(["sample", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                   "--n", "4", "--N", "6", "--seed", "2", "--out", out])
    assert res.exit_code == 0, res.output
    _check_sample_csv(os.path.join(out, "paths.csv"), CurvatureModel("hyperbolic", 2, 1.0),
                      4, 6, 2)


def test_sample_is_finite_and_exact_at_high_curvature(tmp_path):
    """At kappa = 100 (hyperbolic d=3, n=8, N=64, seed 0, warnings as
    errors) sample exits 0 and every knot and frame entry is finite and
    within 1e-12 of the 60-digit boost chain, relative to its knot's
    largest entry; the frame roll it replaced wrote NaN into 48 of the 576
    knot rows here."""
    out = str(tmp_path)
    res = run_cli(["sample", "--model", "hyperbolic", "--d", "3", "--kappa", "100",
                   "--n", "8", "--N", "64", "--seed", "0", "--out", out])
    assert res.exit_code == 0, res.output
    _check_sample_csv(os.path.join(out, "paths.csv"), CurvatureModel("hyperbolic", 3, 100.0),
                      8, 64, 0)


@pytest.mark.parametrize("d, kappa", [(3, 100.0), (2, 400.0)], ids=["d3-kappa100", "d2-kappa400"])
def test_sample_knots_keep_their_digits_at_high_curvature(tmp_path, monkeypatch, d, kappa):
    """At high curvature (hyperbolic n=8, N=512, seed 1) every knot that
    sample writes is within 1e-12 of the 60-digit boost chain, relative to
    its largest entry: carried out of o, innermost boost first, with far
    points boosted away from o in light-cone form (paths._light_cone_boost,
    which sample, boosting only by +xi, reaches), its worst is 1.6e-14 at
    d=3, kappa=100 and 5.1e-13 at d=2, kappa=400, where the plain boost
    reached 5.6e-13 and 2.24e-10.  The frames are not held here."""
    calls, light_cone = [], paths._light_cone_boost
    monkeypatch.setattr(paths, "_light_cone_boost", lambda *a: calls.append(1) or light_cone(*a))
    out = str(tmp_path)
    res = run_cli(["sample", "--model", "hyperbolic", "--d", str(d), "--kappa", str(kappa),
                   "--n", "8", "--N", "512", "--seed", "1", "--out", out])
    assert res.exit_code == 0, res.output
    assert calls
    _check_sample_csv(os.path.join(out, "paths.csv"), CurvatureModel("hyperbolic", d, kappa),
                      8, 512, 1, frames_too=False)


def test_ibp_limits_and_run(tmp_path):
    """ibp rejects n > 8 and d > 2; a small flat run passes its gate."""
    out = str(tmp_path)
    assert run_cli(["ibp", "--model", "flat", "--d", "2", "--n", "16",
                    "--N", "100", "--out", out]).exit_code == 2
    assert run_cli(["ibp", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
                    "--n", "4", "--N", "100", "--out", out]).exit_code == 2
    res = run_cli(["ibp", "--model", "flat", "--d", "2", "--n", "4",
                   "--N", "400", "--seed", "0", "--out", out])
    assert res.exit_code == 0, res.output
    manifest = json.loads(read_text(os.path.join(out, "ibp_manifest.json")))
    assert {"result", "scalar_gap", "gradient_compare"} <= set(manifest)
    assert manifest["result"]["passed"] is True
    assert manifest["result"]["n_used"] + manifest["result"]["n_aborted"] == 400


def test_ibp_manifest_records_stages(tmp_path):
    """The ibp manifest records the seconds of each of IBP_STAGES, outside
    the result; together they take at most the command's wall time."""
    out = str(tmp_path)
    res = run_cli(["ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "4",
                   "--N", "300", "--seed", "0", "--out", out])
    assert res.exit_code in (0, 1), res.output
    manifest = json.loads(read_text(os.path.join(out, "ibp_manifest.json")))
    assert list(manifest["stage_s"]) == list(diagnostics.IBP_STAGES)
    assert all(v >= 0.0 for v in manifest["stage_s"].values())
    assert sum(manifest["stage_s"].values()) <= manifest["wall_time_s"]
    assert "stage_s" not in manifest["result"]


def test_manifest_gates_are_json_booleans(tmp_path):
    """Every command writes its manifest as plain JSON: the gate fields
    (gates_passed, each reports.*.passed, result.passed) are JSON booleans,
    or null for an ungated pinned run, and no value anywhere is the string
    "True" or "False".  The converge run has K and J decreasing, so their
    quarter rule compares numpy values."""
    runs = {"pinned": ["pinned", "--model", "flat", "--d", "2", "--n", "2,4", "--rho", "1.0",
                       "--N", "256"],
            "ungated": ["pinned", "--model", "hyperbolic", "--d", "2", "--n", "4",
                        "--rho", "1.0", "--N", "256"],
            "converge": ["converge", "--model", "hyperbolic", "--d", "2", "--n", "4,8,16,32",
                         "--samples", "20"],
            "props": ["props", "--paths", "12", "--n", "8"],
            "sample": ["sample", "--N", "4"],
            "ibp": ["ibp", "--n", "2", "--N", "64"]}

    def values(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from values(v)
        elif isinstance(node, list):
            for v in node:
                yield from values(v)
        else:
            yield node

    gates = {}
    for label, args in runs.items():
        out = str(tmp_path / label)
        res = run_cli(args + ["--out", out])
        assert res.exit_code in ((0, 1) if label == "converge" else (0,)), (label, res.output)
        manifest = json.loads(read_text(os.path.join(out, f"{args[0]}_manifest.json")))
        assert not {"True", "False"} & {v for v in values(manifest) if isinstance(v, str)}, label
        found = [manifest[k] for k in ("gates_passed",) if k in manifest]
        found += [rep["passed"] for rep in manifest.get("reports", {}).values()]
        found += [manifest["result"]["passed"]] if "result" in manifest else []
        gates[label] = found
    assert gates["ungated"] == [None]
    assert len(gates["converge"]) == 4 and gates["sample"] == gates["props"] == []
    assert all(type(v) is bool for label, found in gates.items() if label != "ungated"
               for v in found), gates
    assert all(len(gates[label]) == 1 for label in ("pinned", "ibp"))


def git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_git_revision_reads_the_repository_files(tmp_path, monkeypatch):
    """_git_revision agrees with `git rev-parse HEAD` on a branch with a
    loose ref, from a subdirectory, with the refs packed, on a detached HEAD
    and in a linked worktree (a .git file with gitdir: and commondir), and
    starts no process; outside a repository, below GIT_CEILING_DIRECTORIES,
    it is "unknown"."""
    repo, outside = tmp_path / "repo", tmp_path / "outside"
    (repo / "sub").mkdir(parents=True)
    outside.mkdir()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    git(repo, "init", "-q")
    for message in ("one", "two"):
        (repo / "sub" / "file").write_text(message)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", message)
    branch = git(repo, "symbolic-ref", "HEAD")
    git(tmp_path, "-C", str(repo), "worktree", "add", "-q", "-b", "side", str(tmp_path / "wt"),
        "HEAD~1")

    def revision(cwd):
        monkeypatch.chdir(cwd)
        with monkeypatch.context() as m:
            m.setattr(subprocess, "Popen", None)        # a spawned process would fail
            return cli._git_revision()

    assert (repo / ".git" / branch).is_file()
    for cwd in (repo, repo / "sub", tmp_path / "wt"):
        assert revision(cwd) == git(cwd, "rev-parse", "HEAD"), cwd
    assert revision(tmp_path / "wt") != revision(repo)
    git(repo, "pack-refs", "--all")
    assert not (repo / ".git" / branch).exists()
    assert revision(repo) == git(repo, "rev-parse", "HEAD")
    git(repo, "checkout", "-q", "--detach", "HEAD~1")
    assert revision(repo) == git(repo, "rev-parse", "HEAD")
    assert revision(outside) == "unknown"


def test_ibp_conditioning_guard_is_a_numerical_failure(tmp_path, monkeypatch):
    """With every chart matrix over CHART_COND_LIMIT, ibp_check refuses to
    estimate from no samples and the ibp command exits with code 3."""
    monkeypatch.setattr(diagnostics, "CHART_COND_LIMIT", 0.0)
    f = measures.CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                                    {"times": [1.0], "scales": [2.0]})
    with pytest.raises(NumericalError, match="all but 0 samples aborted on conditioning"):
        diagnostics.ibp_check(CurvatureModel("hyperbolic", 2, 1.0), Partition(2), f, f,
                              n_samples=16, seed=0)
    res = run_cli(["ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "2",
                   "--N", "16", "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "aborted on conditioning" in res.output


@pytest.mark.parametrize("args, also", [
    (["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "4",
      "--rho", "1.0", "--N", "64"], [(jacobi, "_positive_logdet")]),
    (["converge", "--stat", "J", "--model", "hyperbolic", "--d", "2", "--n", "4,8",
      "--samples", "4"], [(jacobi, "_positive_factor")]),
    (["props", "--paths", "8", "--n", "4", "--d", "2", "--kappa", "1.0"],
     [(np.linalg, "eigvalsh")]),
    (["ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "2",
      "--N", "16"], [(jacobi, "_positive_factor")]),
], ids=["pinned", "converge", "props", "ibp"])
def test_linalg_error_is_a_numerical_failure(tmp_path, monkeypatch, args, also):
    """numpy's LinAlgError (a ValueError subclass) from a solve, a
    determinant or an eigensolve is reported as a numerical failure with exit
    code 3, not as a config error.  The pinned route calls no numpy.linalg
    routine, so there the log-det kernel itself raises it; converge and ibp
    solve K(1) on that kernel's factors, so there the factorization
    (jacobi._positive_factor) raises it."""
    def singular(*a, **k):
        raise np.linalg.LinAlgError("Singular matrix")

    for module, name in [(np.linalg, "solve"), (np.linalg, "slogdet"), *also]:
        monkeypatch.setattr(module, name, singular)
    res = run_cli(args + ["--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "numerical failure: Singular matrix" in res.output
    assert "config error" not in res.output


def test_pinned_unrepresentable_target_is_a_config_error(tmp_path):
    """A target past the double range of the geometry (cosh 720 is not a
    double; at 700 the point is infinite) is refused before sampling: the run
    exits 2 naming the target, not 3 blaming the weights."""
    for rho in ("700", "720", "800"):
        with np.errstate(all="ignore"):
            res = run_cli(["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                           "--rho", rho, "--n", "2", "--N", "4096", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert f"config error: target [{rho}.0, 0.0]" in res.output
        assert "numerical failure" not in res.output


@pytest.mark.parametrize("args, code", [
    (["--d", "3", "--rho", "16", "--n", "8", "--seed", "0"], 1),
    (["--d", "2", "--rho", "40", "--n", "2"], 0),
], ids=["rho16-gate", "rho40-no-oracle"])
def test_pinned_far_tips_keep_finite_weights(tmp_path, args, code):
    """Far tips no longer cost K(1) its positivity: every log-weight is
    finite, so a target at distance 16 fails the gate on the noise of free
    proposals (exit 1) and one at distance 40, which has no oracle, passes."""
    res = run_cli(["pinned", "--model", "hyperbolic", "--kappa", "1", "--N", "4096",
                   *args, "--out", str(tmp_path)])
    assert res.exit_code == code, res.output
    row = json.loads(read_text(tmp_path / "pinned_manifest.json"))["rows"][0]
    assert np.isfinite(row["log_w_min"]) and np.isfinite(row["log_w_max"])


def test_pinned_manifest_records_weight_health(tmp_path):
    """Each manifest row carries tip_cond_hits, the log-weight summary, ESS/N
    and the largest weight's share, equal to the estimator's own; the CSV
    columns are unchanged."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
                   "--n", "4,8", "--rho", "1.0", "--N", "2048", "--seed", "3",
                   "--out", out])
    assert res.exit_code in (0, 1), res.output
    lines = read_text(os.path.join(out, "pinned_results.csv")).strip().split("\n")
    assert lines[1] == "model,d,kappa,n,x_norm,observable,N,mean,stderr,oracle,abs_err"
    rows = json.loads(read_text(os.path.join(out, "pinned_manifest.json")))["rows"]
    model = CurvatureModel("hyperbolic", 3, 1.0)
    for row, n in zip(rows, (4, 8)):
        est = measures.pinned_estimate(model, Partition(n), np.array([1.0, 0.0, 0.0]),
                                       n_samples=2048, seed=3)
        assert row["n"] == n
        assert row["tip_cond_hits"] == est.meta["tip_cond_hits"] == 0
        for key, value in est.meta["weights"].items():
            assert row[key] == pytest.approx(value, rel=1e-12), key
        assert 0.0 < row["ess_frac"] <= 1.0
        assert 1.0 / 2048 <= row["max_weight_share"] <= 1.0


@pytest.mark.parametrize("args", [
    ["converge", "--samples", "-1"],
    ["converge", "--samples", "0"],
    ["sample", "--N", "0"],
    ["sample", "--N", "-2"],
    ["props", "--seed", "-1"],
    ["pinned", "--x", "1,0", "--seed", "-1"],
    ["sample", "--n", "2,3"],
    ["pinned", "--d", "2,3", "--x", "1,0"],
], ids=" ".join)
def test_config_errors_exit_2(tmp_path, args):
    """Every command rejects a bad count, seed, --n list or --d list before
    running: exit 2, a config error, and nothing written."""
    res = run_cli(args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert os.listdir(tmp_path) == []


# Each command's options in help order, named after their config-file keys,
# with the defaults they had before the commands shared one option table.
SURFACE = {
    "pinned": {"model": "flat", "d": 2, "kappa": None, "n": 8, "x": None, "rho": None,
               "observable": "mass", "N": 10000, "seed": 0, "workers": 1, "out": ".",
               "config": None},
    "converge": {"stat": "all", "model": "hyperbolic", "d": 2, "kappa": None,
                 "n": "8,16,32,64,128", "samples": 200, "seed": 0, "out": ".",
                 "config": None},
    "props": {"paths": 1000, "n": 64, "kappa": 1.0, "d": "1,2,3", "seed": 0, "out": ".",
              "config": None},
    "sample": {"model": "flat", "d": 2, "kappa": None, "n": 8, "N": 16, "seed": 0,
               "out": ".", "config": None},
    "ibp": {"model": "hyperbolic", "d": 2, "kappa": None, "n": 4, "N": 20000, "seed": 0,
            "out": ".", "config": None},
}


def test_cli_surface_is_pinned(tmp_path):
    """Command names, option flags, config keys and defaults are unchanged;
    a run with no flags, and config-file keys set to null, records the
    defaults in its manifest."""
    assert sorted(cli.main.commands) == sorted(SURFACE)
    for name, options in SURFACE.items():
        params = cli.main.commands[name].params
        assert [p.opts for p in params] == [[f"--{key}"] for key in options], name
        assert {p.name: p.default for p in params} == options, name
    cfg_path = tmp_path / "nulls.json"
    cfg_path.write_text(json.dumps({"kappa": None, "N": None, "seed": None}))
    res = run_cli(["sample", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    config = json.loads(read_text(tmp_path / "sample_manifest.json"))["config"]
    assert config == {"command": "sample", "model": "flat", "d": 2, "kappa": 0.0,
                      "n_values": [8], "x": None, "rho": None, "observable": "mass",
                      "n_samples": 16, "seed": 0, "workers": 1, "out_dir": str(tmp_path),
                      "statistic": "all"}


# Manifest config field of each key whose field is named differently
FIELD = {"n": "n_values", "stat": "statistic", "N": "n_samples", "samples": "n_samples",
         "paths": "n_samples", "out": "out_dir"}


@pytest.mark.parametrize("command, values", [
    ("pinned", {"model": "hyperbolic", "d": 2, "kappa": 1.5, "n": [2, 4], "x": [0.5, 0.25],
                "observable": "radial_r", "N": 64, "seed": 3, "workers": 1}),
    ("pinned", {"model": "flat", "d": 1, "kappa": 0.0, "n": 2, "rho": 0.5,
                "observable": "mass", "N": 32, "seed": 2, "workers": 2}),
    ("converge", {"stat": "K", "model": "hyperbolic", "d": 2, "kappa": 2.0, "n": [4, 8],
                  "samples": 4, "seed": 1}),
    ("props", {"paths": 4, "n": 4, "kappa": 0.5, "d": [1, 2], "seed": 1}),
    ("sample", {"model": "hyperbolic", "d": 1, "kappa": 2.0, "n": 3, "N": 2, "seed": 4}),
    ("ibp", {"model": "flat", "d": 1, "kappa": 0.0, "n": 2, "N": 16, "seed": 1}),
], ids=["pinned-x", "pinned-rho", "converge", "props", "sample", "ibp"])
def test_config_file_matches_flags(tmp_path, command, values):
    """A --config file carrying every key the command takes records the same
    manifest config as the same values passed as flags."""
    values = {**values, "out": str(tmp_path)}
    flags = [command]
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flags += [f"--{key}", text]
    manifest = tmp_path / f"{command}_manifest.json"
    res = run_cli(flags)
    assert res.exit_code in (0, 1), res.output
    from_flags = json.loads(read_text(manifest))["config"]

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(values))
    res_file = run_cli([command, "--config", str(cfg_path)])
    assert res_file.exit_code == res.exit_code, res_file.output
    from_file = json.loads(read_text(manifest))["config"]
    assert from_file == from_flags
    for key, value in values.items():
        want = [value] if key == "n" and not isinstance(value, list) else value
        assert from_file[FIELD.get(key, key)] == want, key


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_section():
    return read_text(README).split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_parse():
    """Every `pinpath ...` example in the README's CLI block parses with its
    command's options (no run), and every command has one."""
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("pinpath ")]
    assert sorted(argv[1] for argv in lines) == sorted(cli.main.commands)
    for argv in lines:
        name, args = argv[1], argv[2:]
        ctx = cli.main.commands[name].make_context(name, args)
        given = {arg[2:] for arg in args if arg.startswith("--")}
        assert given <= set(ctx.params), argv


def test_readme_option_table_matches_the_cli():
    """The README's option table lists each command's options and defaults."""
    def cells(line):
        return [cell.strip() for cell in line.strip("|").split("|")]

    lines = readme_cli_section().splitlines()
    header = cells(next(line for line in lines if line.startswith("| option |")))[2:]
    assert sorted(header) == sorted(cli.main.commands)
    keys = []
    for row in (cells(line) for line in lines if line.startswith("| `--")):
        key = row[0].strip("`")[2:]
        keys.append(key)
        for name, cell in zip(header, row[2:]):
            params = {p.name: p.default for p in cli.main.commands[name].params}
            want = "" if key not in params else (
                "unset" if params[key] is None else str(params[key]))
            assert cell == want, (key, name)
    assert sorted(keys) == sorted({p.name for cmd in cli.main.commands.values()
                                   for p in cmd.params})


def test_readme_python_snippets_run():
    """The README's ```python blocks run, in order, in one namespace."""
    blocks = [block.split("```", 1)[0]
              for block in read_text(README).split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
