"""Command-line entry points: pinned estimates, convergence reports, sweeps.

Exit codes: 0 all gates passed, 1 a statistical gate failed, 2 configuration
error, 3 numerical failure.  Every command writes a results CSV (schema=1
first line, repr() floats so reruns are byte-identical at a fixed worker
count) plus a JSON manifest carrying the verbatim config, seed, git revision,
and wall time.

Each command is a body registered with ``_command``: the body takes the
validated RunConfig and returns (passed, manifest extra).  The options, the
flag > config file > default merge, validation, the manifest and the exit
code are handled once, by the skeleton.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import click
import numpy as np
from click.core import ParameterSource

from . import diagnostics, measures, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import Partition

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# numpy's LinAlgError subclasses ValueError: catch these before ValueError
NUMERICAL_FAILURES = (NumericalError, np.linalg.LinAlgError)

MODELS = ("flat", "hyperbolic")
STATISTICS = ("f", "K", "J", "adjoint", "all")     # "all": every one before it

OBSERVABLES = {
    "mass": measures.MASS_OBSERVABLE,
    "radial_r": measures.radial_observable(1.0, "r"),
    "radial_r2": measures.radial_observable(1.0, "r2"),
    "midpoint_r": measures.radial_observable(0.5, "r"),
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class RunConfig:
    command: str
    model: str                  # props: the list of kinds it audits
    d: int                      # props: the list of dimensions it audits
    kappa: float
    n_values: list
    x: list = None              # tangent/ambient coordinates, or None
    rho: float = None           # radial target distance, exclusive with x
    observable: str = "mass"
    n_samples: int
    seed: int
    workers: int = 1
    out_dir: str
    statistic: str = "all"

    def __post_init__(self):
        # one dimension is recorded as a number; props records its list
        if self.command != "props" and isinstance(self.d, list) and len(self.d) == 1:
            self.d = self.d[0]

    def validate(self):
        errors = []
        kinds = self.model if isinstance(self.model, list) else [self.model]
        dims = self.d if isinstance(self.d, list) else [self.d]
        if any(kind not in MODELS for kind in kinds):
            errors.append(f"unknown model {self.model!r}")
        if self.command != "props" and isinstance(self.d, list):
            errors.append("--d takes one dimension")
        if not dims or any(not 1 <= d <= 3 for d in dims):
            errors.append("d must be 1, 2 or 3")
        if "hyperbolic" in kinds and self.kappa <= 0:
            errors.append("hyperbolic model needs kappa > 0")
        if self.model == "flat" and self.kappa != 0:
            errors.append("flat model has kappa = 0")
        if not self.n_values or any(n < 1 for n in self.n_values):
            errors.append("n values must be positive integers")
        if self.command in ("sample", "ibp", "props") and len(self.n_values) > 1:
            errors.append("--n takes one partition size")
        least = 2 if self.command in ("pinned", "ibp") else 1
        if self.n_samples < least:
            flag = {"converge": "--samples", "props": "--paths"}.get(self.command, "--N")
            errors.append(f"need {flag} >= {least}")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        if self.workers < 1:
            errors.append("workers must be >= 1")
        if self.command == "pinned" and self.x is None and self.rho is None:
            errors.append("pinned needs a target: --x or --rho")
        if self.x is not None and self.rho is not None:
            errors.append("give only one of --x and --rho")
        if (self.x is not None and len(dims) == 1
                and len(self.x) not in (dims[0], dims[0] + 1)):
            errors.append(f"--x needs {dims[0]} (tangent) or {dims[0] + 1} (ambient) entries")
        if self.command == "ibp":
            if any(n > 8 for n in self.n_values):
                errors.append("ibp supports n <= 8")
            if max(dims, default=0) > 2:
                errors.append("ibp supports d <= 2")
        if self.observable not in OBSERVABLES:
            errors.append(f"unknown observable {self.observable!r}")
        if self.statistic not in STATISTICS:
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


def _parse_list(kind):
    """Parser of a list key: a comma-separated flag, or a config-file number
    or list."""
    def parse(value):
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok.strip() != ""]
        elif not isinstance(value, list):
            value = [value]
        return [kind(v) for v in value]
    return parse


# Every option, keyed by its config-file key and named after it:
# key -> (click type, parser of the merged value, help).
OPTIONS = {
    "model": (click.Choice(MODELS), str, "flat or hyperbolic"),
    "d": (str, _parse_list(int), "dimension; props takes a comma list"),
    "kappa": (float, float, "curvature magnitude (sectional curvature -kappa); "
              "unset: 1.0 on hyperbolic, 0.0 on flat"),
    "n": (str, _parse_list(int), "partition size; pinned and converge take a comma list"),
    "x": (str, _parse_list(float), "target coordinates, comma separated"),
    "rho": (float, float, "target distance along the first axis"),
    "observable": (click.Choice(sorted(OBSERVABLES)), str, "pinned observable"),
    "stat": (click.Choice(STATISTICS), str, "convergence statistic"),
    "N": (int, int, "sample count"),
    "samples": (int, int, "sample paths per partition"),
    "paths": (int, int, "random paths per model"),
    "seed": (int, int, "sampler seed"),
    "workers": (int, int, "worker processes"),
    "out": (str, str, "output directory"),
}

# RunConfig field of each key whose field is named differently
FIELDS = {"n": "n_values", "stat": "statistic", "N": "n_samples",
          "samples": "n_samples", "paths": "n_samples", "out": "out_dir"}


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Pinned-path estimators on flat and hyperbolic spaces."""


def _command(name, defaults, **fixed):
    """Register `body` as the command `name`.

    defaults : the config keys the command takes, in help order, each with
               its default; a kappa of None is 1.0 on hyperbolic, 0.0 on flat
    fixed    : RunConfig fields the command sets itself
    A flag beats the --config file, which beats the default (a null in the
    file is the default).  The body takes
    the validated RunConfig and returns (passed, manifest extra); the
    manifest goes to <out>/<name>_manifest.json.
    """
    def register(body):
        def run(config, **flags):
            ctx = click.get_current_context()
            try:
                data = _load_config(config)
                values = {}
                for key, flag in flags.items():
                    from_default = ctx.get_parameter_source(key) is ParameterSource.DEFAULT
                    if from_default and data.get(key) is not None:
                        flag = data[key]
                    parse = OPTIONS[key][1]
                    values[FIELDS.get(key, key)] = None if flag is None else parse(flag)
                if values["kappa"] is None:
                    values["kappa"] = 1.0 if values["model"] == "hyperbolic" else 0.0
                cfg = RunConfig(command=name, **fixed, **values)
                errors = cfg.validate()
                if errors:
                    _bail_config(errors)
                os.makedirs(cfg.out_dir, exist_ok=True)
                t0 = time.perf_counter()
                passed, extra = body(cfg)
            except NUMERICAL_FAILURES as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(EXIT_NUMERICAL)
            except ValueError as exc:
                _bail_config([exc])
            _write_manifest(os.path.join(cfg.out_dir, f"{name}_manifest.json"), cfg,
                            {**extra, "wall_time_s": time.perf_counter() - t0})
            sys.exit(EXIT_OK if passed else EXIT_GATE)

        params = [click.Option([f"--{key}", key], type=OPTIONS[key][0], default=default,
                               show_default=True, help=OPTIONS[key][2])
                  for key, default in defaults.items()]
        params.append(click.Option(["--config", "config"], type=str, default=None,
                                   help="JSON file of config keys; flags override it"))
        main.add_command(click.Command(name, callback=run, params=params, help=body.__doc__))
        return body
    return register


@_command("pinned", {"model": "flat", "d": 2, "kappa": None, "n": 8, "x": None,
                     "rho": None, "observable": "mass", "N": 10000, "seed": 0,
                     "workers": 1, "out": "."})
def cmd_pinned(cfg):
    """Importance-weighted pinned estimate vs the exact kernel when known."""
    mdl = cfg.build_model()
    obs = OBSERVABLES[cfg.observable]
    rows = []
    gates = []
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
            mdl, Partition(n), x_amb, obs, cfg.n_samples, cfg.seed, cfg.workers,
            nan_dump_path=os.path.join(cfg.out_dir, "pinned_nan_dump.json"))
        err = abs(res.mean - oracle) if oracle is not None else float("nan")
        rows.append({"model": cfg.model, "d": cfg.d, "kappa": cfg.kappa,
                     "n": n, "x_norm": x_norm, "observable": cfg.observable,
                     "N": cfg.n_samples, "mean": res.mean, "stderr": res.stderr,
                     "oracle": oracle if oracle is not None else float("nan"),
                     "abs_err": err, "tip_cond_hits": res.meta["tip_cond_hits"],
                     **res.weight_summary()})
        if oracle is not None:
            if cfg.model == "flat":
                gates.append(err <= 3 * res.stderr)
            else:
                gates.append(err <= max(0.02 * abs(oracle), 3 * res.stderr))

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
    passed = all(gates)
    for r in rows:
        click.echo("n=%-4d mean=%.6g stderr=%.3g oracle=%s abs_err=%.3g"
                   % (r["n"], r["mean"], r["stderr"], r["oracle"], r["abs_err"]))
    click.echo(f"gates {'passed' if passed else 'FAILED'}; results in {csv_path}")
    return passed, {"rows": rows, "gates_passed": passed}


@_command("converge", {"stat": "all", "model": "hyperbolic", "d": 2, "kappa": None,
                       "n": "8,16,32,64,128", "samples": 200, "seed": 0, "out": "."})
def cmd_converge(cfg):
    """Convergence-rate reports against the damped closed forms."""
    stats = STATISTICS[:-1] if cfg.statistic == "all" else (cfg.statistic,)
    reports = diagnostics.convergence_suite(cfg.build_model(), cfg.n_values,
                                            cfg.n_samples, cfg.seed, stats)
    summary = {}
    for name, rep in reports.items():
        with open(os.path.join(cfg.out_dir, f"converge_{name}.csv"), "w") as fh:
            rep.to_csv(fh)
        click.echo(rep.table())
        click.echo("")
        summary[name] = {"slope": rep.slope, "passed": rep.passed,
                         "medians": [float(v) for v in rep.q50]}
    return all(rep.passed for rep in reports.values()), {"reports": summary}


@_command("props", {"paths": 1000, "n": 64, "kappa": 1.0, "d": "1,2,3", "seed": 0,
                    "out": "."}, model=["hyperbolic", "flat"])
def cmd_props(cfg):
    """Audit pathwise positivity and norm bounds over random paths."""
    models = [CurvatureModel(kind, d, cfg.kappa) for kind in cfg.model for d in cfg.d]
    report = diagnostics.property_sweep(models, cfg.n_samples, cfg.n_values[0], cfg.seed)
    click.echo(report.summary())
    return report.total_violations == 0, {
        "violations": report.violations,
        "worst_margins": {k: float(v) for k, v in report.worst.items()},
        "n_paths": report.n_paths}


@_command("sample", {"model": "flat", "d": 2, "kappa": None, "n": 8, "N": 16,
                     "seed": 0, "out": "."})
def cmd_sample(cfg):
    """Dump free broken-geodesic paths to CSV."""
    part = Partition(cfg.n_values[0])
    batch = measures.sample_nu1P(cfg.build_model(), part, cfg.n_samples, cfg.seed)
    csv_path = os.path.join(cfg.out_dir, "paths.csv")
    with open(csv_path, "w") as fh:
        paths.dump_paths_csv([batch.path(i) for i in range(cfg.n_samples)], fh)
    click.echo(f"wrote {cfg.n_samples} paths to {csv_path}")
    return True, {"csv": csv_path}


@_command("ibp", {"model": "hyperbolic", "d": 2, "kappa": None, "n": 4, "N": 20000,
                  "seed": 0, "out": "."})
def cmd_ibp(cfg):
    """Integration-by-parts check in the increment chart."""
    mdl = cfg.build_model()
    part = Partition(cfg.n_values[0])
    f_obs = measures.CylinderObservable(
        "exp_r2_end", (1.0,), 1.0, "exp_radial2", {"times": [1.0], "scales": [2.0]})
    g_obs = measures.CylinderObservable(
        "exp_r2_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
        {"times": [0.5, 1.0], "scales": [4.0, 4.0]})
    res = diagnostics.ibp_check(mdl, part, f_obs, g_obs, cfg.n_samples, cfg.seed)
    grad = diagnostics.gradient_compare(mdl, part, g_obs, n_samples=32, seed=cfg.seed)
    click.echo(res.summary())
    click.echo("scalar gap (ungated): %s" % json.dumps(res.scalar_gap))
    click.echo("gradient compare (ungated): %s" % json.dumps(grad))
    return res.passed, {
        "result": {
            "lhs_mean": res.lhs_mean, "lhs_stderr": res.lhs_stderr,
            "rhs_mean": res.rhs_mean, "rhs_stderr": res.rhs_stderr,
            "diff_mean": res.diff_mean, "diff_stderr": res.diff_stderr,
            "n_used": res.n_used, "n_aborted": res.n_aborted,
            "passed": res.passed},
        "scalar_gap": res.scalar_gap,
        "gradient_compare": grad}


if __name__ == "__main__":
    main()
