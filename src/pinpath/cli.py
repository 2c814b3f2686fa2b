"""Command-line entry points: pinned estimates, convergence reports, sweeps.

Exit codes: 0 all gates passed, 1 a statistical gate failed, 2 configuration
error, 3 numerical failure.  Every command writes a results CSV (schema=1
first line, repr() floats so reruns are byte-identical at a fixed worker
count) plus a JSON manifest carrying the verbatim config, seed, git revision,
and wall time.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import diagnostics, measures, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import Partition

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# numpy's LinAlgError subclasses ValueError: catch these before ValueError
NUMERICAL_FAILURES = (NumericalError, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    model: str = "flat"         # props: the list of kinds it audits
    d: int = 2                  # props: the list of dimensions it audits
    kappa: float = 0.0
    n_values: list = field(default_factory=lambda: [8])
    x: list = None              # tangent/ambient coordinates, or None
    rho: float = None           # radial target distance, exclusive with x
    observable: str = "mass"
    n_samples: int = 10000
    seed: int = 0
    workers: int = 1
    out_dir: str = "."
    statistic: str = "all"

    def validate(self):
        errors = []
        if self.model not in ("flat", "hyperbolic"):
            errors.append(f"unknown model {self.model!r}")
        if not (1 <= self.d <= 3):
            errors.append("d must be 1, 2 or 3")
        if self.model == "hyperbolic" and self.kappa <= 0:
            errors.append("hyperbolic model needs kappa > 0")
        if self.model == "flat" and self.kappa not in (0, 0.0, None):
            errors.append("flat model has kappa = 0")
        if not self.n_values or any(int(n) < 1 for n in self.n_values):
            errors.append("n values must be positive integers")
        if self.command in ("pinned", "ibp") and self.n_samples < 2:
            errors.append("need at least 2 samples (--N >= 2)")
        if self.workers < 1:
            errors.append("workers must be >= 1")
        if self.command == "pinned" and self.x is None and self.rho is None:
            errors.append("pinned needs a target: --x or --rho")
        if self.x is not None and self.rho is not None:
            errors.append("give only one of --x and --rho")
        if self.x is not None and len(self.x) not in (self.d, self.d + 1):
            errors.append(f"--x needs {self.d} (tangent) or {self.d + 1} (ambient) entries")
        if self.command == "ibp":
            if self.n_values[0] > 8:
                errors.append("ibp supports n <= 8")
            if self.d > 2:
                errors.append("ibp supports d <= 2")
        if self.statistic not in ("f", "K", "J", "adjoint", "all"):
            errors.append(f"unknown statistic {self.statistic!r}")
        return errors

    def build_model(self):
        kappa = self.kappa if self.model == "hyperbolic" else 0.0
        return CurvatureModel(self.model, self.d, kappa)

    def target(self):
        if self.rho is not None:
            e1 = np.zeros(self.d)
            e1[0] = 1.0
            return (e1, float(self.rho))
        return np.asarray(self.x, dtype=float)


def _merge(flag_value, config_data, key, default):
    if flag_value is not None:
        return flag_value
    if config_data and key in config_data:
        return config_data[key]
    return default


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _parse_float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(path, config, extra):
    payload = {"schema": 1, "config": asdict(config), "git_revision": _git_revision()}
    payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def _bail_config(errors):
    for e in errors:
        click.echo(f"config error: {e}", err=True)
    sys.exit(EXIT_CONFIG)


OBSERVABLES = {
    "mass": measures.MASS_OBSERVABLE,
    "radial_r": measures.radial_observable(1.0, "r"),
    "radial_r2": measures.radial_observable(1.0, "r2"),
    "midpoint_r": measures.radial_observable(0.5, "r"),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Pinned-path estimators on flat and hyperbolic spaces."""


@main.command("pinned")
@click.option("--model", type=click.Choice(["flat", "hyperbolic"]), default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--n", "n_text", type=str, default=None, help="partition size or comma list")
@click.option("--x", "x_text", type=str, default=None, help="target coordinates, comma separated")
@click.option("--rho", type=float, default=None, help="target distance along the first axis")
@click.option("--observable", type=click.Choice(sorted(OBSERVABLES)), default=None)
@click.option("--N", "n_samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--config", "config_path", type=str, default=None)
def cmd_pinned(model, dim, kappa, n_text, x_text, rho, observable, n_samples,
               seed, workers, out_dir, config_path):
    """Importance-weighted pinned estimate vs the exact kernel when known."""
    data = _load_config(config_path)
    model = _merge(model, data, "model", "flat")
    cfg = RunConfig(
        command="pinned",
        model=model,
        d=int(_merge(dim, data, "d", 2)),
        kappa=float(_merge(kappa, data, "kappa", 1.0 if model == "hyperbolic" else 0.0)),
        n_values=_parse_int_list(_merge(n_text, data, "n", "8")),
        x=_parse_float_list(x_text) if x_text is not None else data.get("x"),
        rho=_merge(rho, data, "rho", None),
        observable=_merge(observable, data, "observable", "mass"),
        n_samples=int(_merge(n_samples, data, "N", 10000)),
        seed=int(_merge(seed, data, "seed", 0)),
        workers=int(_merge(workers, data, "workers", 1)),
        out_dir=_merge(out_dir, data, "out", "."),
    )
    errors = cfg.validate()
    if errors:
        _bail_config(errors)
    mdl = cfg.build_model()
    obs = OBSERVABLES[cfg.observable]
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()

    rows = []
    gates = []
    try:
        x_amb = measures._target_point(mdl, cfg.target())
        x_norm = float(measures.geom.distance(mdl, measures.geom.base_point(mdl), x_amb))
        oracle = None
        if cfg.observable == "mass":
            try:
                oracle = float(measures.heat_kernel_exact(mdl, 1.0, rho=x_norm))
            except ValueError:
                oracle = None
        for n in cfg.n_values:
            res = measures.pinned_estimate(
                mdl, Partition(int(n)), x_amb, obs, cfg.n_samples, cfg.seed, cfg.workers,
                nan_dump_path=os.path.join(cfg.out_dir, "pinned_nan_dump.json"))
            err = abs(res.mean - oracle) if oracle is not None else float("nan")
            rows.append({"model": cfg.model, "d": cfg.d, "kappa": cfg.kappa,
                         "n": int(n), "x_norm": x_norm, "observable": cfg.observable,
                         "N": cfg.n_samples, "mean": res.mean, "stderr": res.stderr,
                         "oracle": oracle if oracle is not None else float("nan"),
                         "abs_err": err, "tip_cond_hits": res.meta["tip_cond_hits"],
                         **res.weight_summary()})
            if oracle is not None:
                if cfg.model == "flat":
                    gates.append(err <= 3 * res.stderr)
                else:
                    gates.append(err <= max(0.02 * abs(oracle), 3 * res.stderr))
    except NUMERICAL_FAILURES as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    if oracle is not None and len(rows) > 1:
        # refinement should not make the bias worse (up to noise)
        for a, b in zip(rows, rows[1:]):
            slack = 2.0 * (a["stderr"] + b["stderr"])
            gates.append(b["abs_err"] <= a["abs_err"] + slack)

    csv_path = os.path.join(cfg.out_dir, "pinned_results.csv")
    with open(csv_path, "w") as fh:
        fh.write("schema=1\n")
        fh.write("model,d,kappa,n,x_norm,observable,N,mean,stderr,oracle,abs_err\n")
        for r in rows:
            fh.write(",".join([r["model"], repr(r["d"]), repr(float(r["kappa"])),
                               repr(r["n"]), repr(r["x_norm"]), r["observable"],
                               repr(r["N"]), repr(r["mean"]), repr(r["stderr"]),
                               repr(r["oracle"]), repr(r["abs_err"])]) + "\n")
    passed = all(gates) if gates else True
    _write_manifest(os.path.join(cfg.out_dir, "pinned_manifest.json"), cfg,
                    {"rows": rows, "gates_passed": bool(passed),
                     "wall_time_s": time.perf_counter() - t0})
    for r in rows:
        click.echo("n=%-4d mean=%.6g stderr=%.3g oracle=%s abs_err=%.3g"
                   % (r["n"], r["mean"], r["stderr"], r["oracle"], r["abs_err"]))
    click.echo(f"gates {'passed' if passed else 'FAILED'}; results in {csv_path}")
    sys.exit(EXIT_OK if passed else EXIT_GATE)


@main.command("converge")
@click.option("--stat", type=click.Choice(["f", "K", "J", "adjoint", "all"]), default=None)
@click.option("--model", type=click.Choice(["flat", "hyperbolic"]), default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--n", "n_text", type=str, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--config", "config_path", type=str, default=None)
def cmd_converge(stat, model, dim, kappa, n_text, samples, seed, out_dir, config_path):
    """Convergence-rate reports against the damped closed forms."""
    data = _load_config(config_path)
    model = _merge(model, data, "model", "hyperbolic")
    cfg = RunConfig(
        command="converge",
        model=model,
        d=int(_merge(dim, data, "d", 2)),
        kappa=float(_merge(kappa, data, "kappa", 1.0 if model == "hyperbolic" else 0.0)),
        n_values=_parse_int_list(_merge(n_text, data, "n", "8,16,32,64,128")),
        n_samples=int(_merge(samples, data, "samples", 200)),
        seed=int(_merge(seed, data, "seed", 0)),
        out_dir=_merge(out_dir, data, "out", "."),
        statistic=_merge(stat, data, "stat", "all"),
    )
    errors = cfg.validate()
    if errors:
        _bail_config(errors)
    mdl = cfg.build_model()
    stats = ("f", "K", "J", "adjoint") if cfg.statistic == "all" else (cfg.statistic,)
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        reports = diagnostics.convergence_suite(mdl, cfg.n_values, cfg.n_samples,
                                                cfg.seed, stats)
    except NUMERICAL_FAILURES as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)

    all_pass = True
    summary = {}
    for name, rep in reports.items():
        path = os.path.join(cfg.out_dir, f"converge_{name}.csv")
        with open(path, "w") as fh:
            rep.to_csv(fh)
        click.echo(rep.table())
        click.echo("")
        all_pass = all_pass and rep.passed
        summary[name] = {"slope": rep.slope, "passed": rep.passed,
                         "medians": [float(v) for v in rep.q50]}
    _write_manifest(os.path.join(cfg.out_dir, "converge_manifest.json"), cfg,
                    {"reports": summary, "wall_time_s": time.perf_counter() - t0})
    sys.exit(EXIT_OK if all_pass else EXIT_GATE)


@main.command("props")
@click.option("--paths", "n_paths", type=int, default=None)
@click.option("--n", "n_text", type=str, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--d", "d_text", type=str, default=None, help="dimension or comma list")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--config", "config_path", type=str, default=None)
def cmd_props(n_paths, n_text, kappa, d_text, seed, out_dir, config_path):
    """Audit pathwise positivity and norm bounds over random paths."""
    data = _load_config(config_path)
    n_paths = int(_merge(n_paths, data, "paths", 1000))
    n = _parse_int_list(_merge(n_text, data, "n", "64"))[0]
    kappa = float(_merge(kappa, data, "kappa", 1.0))
    dims = _parse_int_list(_merge(d_text, data, "d", "1,2,3"))
    seed = int(_merge(seed, data, "seed", 0))
    out_dir = _merge(out_dir, data, "out", ".")
    if n_paths < 1 or n < 1 or kappa <= 0 or any(d < 1 or d > 3 for d in dims):
        _bail_config(["props needs paths >= 1, n >= 1, kappa > 0, d in 1..3"])
    cfg = RunConfig(command="props", model=["hyperbolic", "flat"], d=dims, kappa=kappa,
                    n_values=[n], n_samples=n_paths, seed=seed, out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    models = [CurvatureModel(kind, d, kappa) for kind in cfg.model for d in dims]
    try:
        report = diagnostics.property_sweep(models, n_paths, n, seed)
    except NUMERICAL_FAILURES as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(report.summary())
    _write_manifest(os.path.join(out_dir, "props_manifest.json"), cfg,
                    {"violations": report.violations,
                     "worst_margins": {k: float(v) for k, v in report.worst.items()},
                     "n_paths": report.n_paths,
                     "wall_time_s": time.perf_counter() - t0})
    sys.exit(EXIT_OK if report.total_violations == 0 else EXIT_GATE)


@main.command("sample")
@click.option("--model", type=click.Choice(["flat", "hyperbolic"]), default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--n", "n_text", type=str, default=None)
@click.option("--N", "n_samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--config", "config_path", type=str, default=None)
def cmd_sample(model, dim, kappa, n_text, n_samples, seed, out_dir, config_path):
    """Dump free broken-geodesic paths to CSV."""
    data = _load_config(config_path)
    model = _merge(model, data, "model", "flat")
    cfg = RunConfig(
        command="sample",
        model=model,
        d=int(_merge(dim, data, "d", 2)),
        kappa=float(_merge(kappa, data, "kappa", 1.0 if model == "hyperbolic" else 0.0)),
        n_values=_parse_int_list(_merge(n_text, data, "n", "8")),
        n_samples=int(_merge(n_samples, data, "N", 16)),
        seed=int(_merge(seed, data, "seed", 0)),
        out_dir=_merge(out_dir, data, "out", "."),
    )
    errors = cfg.validate()
    if errors:
        _bail_config(errors)
    mdl = cfg.build_model()
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    part = Partition(cfg.n_values[0])
    batch = measures.sample_nu1P(mdl, part, cfg.n_samples, cfg.seed)
    csv_path = os.path.join(cfg.out_dir, "paths.csv")
    with open(csv_path, "w") as fh:
        paths.dump_paths_csv([batch.path(i) for i in range(cfg.n_samples)], fh)
    _write_manifest(os.path.join(cfg.out_dir, "sample_manifest.json"), cfg,
                    {"wall_time_s": time.perf_counter() - t0, "csv": csv_path})
    click.echo(f"wrote {cfg.n_samples} paths to {csv_path}")
    sys.exit(EXIT_OK)


@main.command("ibp")
@click.option("--model", type=click.Choice(["flat", "hyperbolic"]), default=None)
@click.option("--d", "dim", type=int, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--n", "n_text", type=str, default=None)
@click.option("--N", "n_samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--config", "config_path", type=str, default=None)
def cmd_ibp(model, dim, kappa, n_text, n_samples, seed, out_dir, config_path):
    """Integration-by-parts check in the increment chart."""
    data = _load_config(config_path)
    model = _merge(model, data, "model", "hyperbolic")
    cfg = RunConfig(
        command="ibp",
        model=model,
        d=int(_merge(dim, data, "d", 2)),
        kappa=float(_merge(kappa, data, "kappa", 1.0 if model == "hyperbolic" else 0.0)),
        n_values=_parse_int_list(_merge(n_text, data, "n", "4")),
        n_samples=int(_merge(n_samples, data, "N", 20000)),
        seed=int(_merge(seed, data, "seed", 0)),
        out_dir=_merge(out_dir, data, "out", "."),
    )
    errors = cfg.validate()
    if errors:
        _bail_config(errors)
    mdl = cfg.build_model()
    part = Partition(cfg.n_values[0])
    f_obs = measures.CylinderObservable(
        "exp_r2_end", (1.0,), 1.0, "exp_radial2", {"times": [1.0], "scales": [2.0]})
    g_obs = measures.CylinderObservable(
        "exp_r2_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
        {"times": [0.5, 1.0], "scales": [4.0, 4.0]})
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        res = diagnostics.ibp_check(mdl, part, f_obs, g_obs, cfg.n_samples, cfg.seed)
        grad = diagnostics.gradient_compare(mdl, part, g_obs, n_samples=32,
                                            seed=cfg.seed)
    except NUMERICAL_FAILURES as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(res.summary())
    click.echo("scalar gap (ungated): %s" % json.dumps(res.scalar_gap))
    click.echo("gradient compare (ungated): %s" % json.dumps(grad))
    _write_manifest(os.path.join(cfg.out_dir, "ibp_manifest.json"), cfg,
                    {"result": {
                        "lhs_mean": res.lhs_mean, "lhs_stderr": res.lhs_stderr,
                        "rhs_mean": res.rhs_mean, "rhs_stderr": res.rhs_stderr,
                        "diff_mean": res.diff_mean, "diff_stderr": res.diff_stderr,
                        "n_used": res.n_used, "n_aborted": res.n_aborted,
                        "passed": res.passed},
                     "scalar_gap": res.scalar_gap,
                     "gradient_compare": grad,
                     "wall_time_s": time.perf_counter() - t0})
    sys.exit(EXIT_OK if res.passed else EXIT_GATE)


if __name__ == "__main__":
    main()
