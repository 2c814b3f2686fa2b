"""End-to-end CLI runs: exit codes, CSV/manifest artifacts, reproducibility."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from pinpath import cli, measures, paths
from pinpath.geom import CurvatureModel, NumericalError
from pinpath.jacobi import Partition


def run_cli(args):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False)


def read_text(path):
    with open(path) as fh:
        return fh.read()


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
    """d=2 hyperbolic has no closed kernel: runs clean, abs_err is nan."""
    out = str(tmp_path)
    res = run_cli(["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                   "--n", "4", "--rho", "1.0", "--N", "512", "--out", out])
    assert res.exit_code == 0, res.output
    row = read_text(os.path.join(out, "pinned_results.csv")).strip().split("\n")[2]
    assert row.split(",")[-1] == "nan"


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
    """A non-finite log-weight raises NumericalError after dumping the bad
    samples; the CLI writes that dump under --out and exits with code 3."""
    chunk = measures._pinned_chunk

    def poisoned(*args):
        log_w, f_vals, hits = chunk(*args)
        log_w[3] = np.nan
        return log_w, f_vals, hits

    monkeypatch.setattr(measures, "_pinned_chunk", poisoned)
    model, part = CurvatureModel("flat", 2), Partition(4)
    dump = tmp_path / "dump.json"
    with pytest.raises(NumericalError):
        measures.pinned_estimate(model, part, np.array([1.0, 0.0]), n_samples=64,
                                 seed=5, nan_dump_path=str(dump))
    payload = json.loads(read_text(dump))
    assert payload["bad_indices"] == [3]
    assert payload["seed"] == 5
    assert payload["x"] == [1.0, 0.0]
    want = paths.sample_increments(model, part, 1, 5, start=3)[0]
    assert payload["first_bad_increments"] == want.tolist()

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


def test_props_small_run(tmp_path):
    """Property sweep over a small budget: exit 0 and a clean manifest."""
    out = str(tmp_path)
    res = run_cli(["props", "--paths", "24", "--n", "8", "--d", "2",
                   "--kappa", "1.0", "--out", out])
    assert res.exit_code == 0, res.output
    manifest = json.loads(read_text(os.path.join(out, "props_manifest.json")))
    assert all(v == 0 for v in manifest["violations"].values())
    assert "violations=0" in res.output


def test_props_manifest_records_every_audited_model(tmp_path):
    """The props manifest lists every dimension and both model kinds swept."""
    out = str(tmp_path)
    res = run_cli(["props", "--paths", "8", "--n", "4", "--d", "1,2", "--kappa", "1.0",
                   "--out", out])
    assert res.exit_code == 0, res.output
    config = json.loads(read_text(os.path.join(out, "props_manifest.json")))["config"]
    assert config["d"] == [1, 2]
    assert config["model"] == ["hyperbolic", "flat"]


def test_sample_dump(tmp_path):
    """sample writes schema + header + N*(n+1) knot rows."""
    out = str(tmp_path)
    res = run_cli(["sample", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                   "--n", "4", "--N", "6", "--seed", "2", "--out", out])
    assert res.exit_code == 0, res.output
    lines = read_text(os.path.join(out, "paths.csv")).strip().split("\n")
    assert lines[0] == "schema=1"
    assert len(lines) == 2 + 6 * 5


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
    assert manifest["result"]["passed"] is True
    assert manifest["result"]["n_used"] + manifest["result"]["n_aborted"] == 400


@pytest.mark.parametrize("args", [
    ["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "4",
     "--rho", "1.0", "--N", "64"],
    ["converge", "--stat", "J", "--model", "hyperbolic", "--d", "2", "--n", "4,8",
     "--samples", "4"],
    ["props", "--paths", "8", "--n", "4", "--d", "2", "--kappa", "1.0"],
    ["ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "2",
     "--N", "16"],
], ids=["pinned", "converge", "props", "ibp"])
def test_linalg_error_is_a_numerical_failure(tmp_path, monkeypatch, args):
    """numpy's LinAlgError (a ValueError subclass) from a solve is reported as
    a numerical failure with exit code 3, not as a config error."""
    def singular(*a, **k):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = run_cli(args + ["--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "numerical failure: Singular matrix" in res.output
    assert "config error" not in res.output


def test_pinned_far_target_is_a_numerical_failure(tmp_path):
    """A target at distance 40 overflows the geometry; the run exits 3."""
    with np.errstate(all="ignore"):
        res = run_cli(["pinned", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
                       "--rho", "40", "--n", "2", "--N", "4096", "--out", str(tmp_path)])
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output


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
        est = measures.pinned_estimate(model, Partition(n), (np.array([1.0, 0, 0]), 1.0),
                                       n_samples=2048, seed=3)
        assert row["n"] == n
        assert row["tip_cond_hits"] == est.meta["tip_cond_hits"] == 0
        for key, value in est.weight_summary().items():
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
