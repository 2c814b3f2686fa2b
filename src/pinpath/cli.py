"""Command-line entry points: pinned estimates, convergence reports, sweeps.

Exit codes: 0 all gates passed (or none applied: a pinned run with no oracle
is reported ungated), 1 a statistical gate failed, 2 configuration error, 3
numerical failure.  Only this module writes files: every command a JSON
manifest carrying the verbatim config, seed, git revision and wall time, and
pinned, converge and sample a results CSV (_write_csv: schema=1 first line,
repr() floats so reruns are byte-identical at a fixed worker count).

Each command is a body registered with ``_command``: the body takes the
validated RunConfig and returns (passed, manifest extra).  The options, the
flag > config file > default merge, validation, the manifest and the exit
code are handled once, by the skeleton.
"""

import json
import locale  # noqa: F401  else click's first parse imports it (gettext), in timed work
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass

import click
import numpy as np
from click.core import ParameterSource

from . import diagnostics, geom, measures, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import Intervals, Partition

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# numpy's LinAlgError subclasses ValueError: catch these before ValueError
NUMERICAL_FAILURES = (NumericalError, np.linalg.LinAlgError)

# recorded with each pinned row; from the modules and the environment, not package metadata
VERSIONS = {"numpy": np.__version__, "python": platform.python_version(), "blas": {
    "name": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    **{f"{k}_NUM_THREADS": os.getenv(f"{k}_NUM_THREADS") for k in ("OPENBLAS", "OMP", "MKL")}}}

MODELS = ("flat", "hyperbolic")
STATISTICS = ("f", "K", "J", "adjoint", "all")     # "all": every one before it

# the flat gate's roundoff floor, relative to p_1: at n = 1 every weight is
# equal, so the stderr is 0 and the error is roundoff alone
FLAT_GATE_ROUNDOFF = 1e-12
# the observables that read only the knot s = 1, which is x: each sample's
# value is rho^k, so rho^k p_1 is their oracle, gated as the mass
EXACT_POWERS = {"mass": 0, "radial_r": 1, "radial_r2": 2}

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
        if self.rho is not None:            # tangent coordinates at o along e1
            return float(self.rho) * np.eye(self.d)[0]
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
    "paths": (int, int, "random paths in all, split evenly over the models"),
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
    """The commit of HEAD in the repository around the working directory, read
    from its files as git finds them; "unknown" outside a repository.

    The search goes up from the working directory and never into a directory
    of GIT_CEILING_DIRECTORIES.  A .git file (a worktree) names the git
    directory (gitdir:), whose commondir file names the shared one; HEAD is
    a commit (detached) or names a ref, read loose or from packed-refs.
    """
    ceilings = {os.path.realpath(p) for p in
                os.environ.get("GIT_CEILING_DIRECTORIES", "").split(os.pathsep) if p}
    here = os.path.realpath(os.getcwd())
    while not os.path.exists(os.path.join(here, ".git")):
        if os.path.dirname(here) in ceilings | {here}:
            return "unknown"
        here = os.path.dirname(here)

    def read(*parts):
        with open(os.path.join(*parts)) as fh:
            return fh.read().strip()

    try:
        git_dir = os.path.join(here, ".git")
        if os.path.isfile(git_dir):
            git_dir = os.path.join(here, read(git_dir).removeprefix("gitdir:").strip())
        common = git_dir
        if os.path.isfile(os.path.join(git_dir, "commondir")):
            common = os.path.join(git_dir, read(git_dir, "commondir"))
        head = read(git_dir, "HEAD")
        if head.startswith("ref:"):
            ref = head.removeprefix("ref:").strip()
            if os.path.isfile(os.path.join(common, ref)):
                head = read(common, ref)
            else:
                packed = (line.split() for line in read(common, "packed-refs").splitlines())
                head = next((sha for sha, *name in packed if name == [ref]), "")
        int(head, 16)
        return head
    except (OSError, ValueError):
        return "unknown"


def _write_manifest(path, config, extra):
    payload = {"schema": 1, "config": asdict(config), "git_revision": _git_revision()}
    payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_csv(path, columns, rows):
    """The one results-file format: the schema=1 line, the header, one line
    per row; strings as they are, ints (numpy's too) and bools by str, every
    other number by repr(float(v)), which round-trips (reruns byte-identical)."""
    exact = (str, int, np.integer, np.bool_)
    with open(path, "w") as fh:
        fh.write("schema=1\n" + ",".join(columns) + "\n")
        for row in rows:
            cells = (str(v) if isinstance(v, exact) else repr(float(v)) for v in row)
            fh.write(",".join(cells) + "\n")


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
    manifest goes to <out>/<name>_manifest.json.  A numerical failure that
    carries a dump has it written to <out>/<name>_nan_dump.json.
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
                if getattr(exc, "dump", None) is not None:
                    path = os.path.join(cfg.out_dir, f"{name}_nan_dump.json")
                    with open(path, "w") as fh:
                        json.dump(exc.dump, fh, indent=2)
                    exc = f"{exc}; diagnostics in {path}"
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
    x_norm = float(geom.distance(mdl, geom.base_point(mdl), x_amb))
    oracle = None
    if cfg.observable in EXACT_POWERS:
        try:
            oracle = (float(measures.heat_kernel_exact(mdl, 1.0, rho=x_norm))
                      * x_norm ** EXACT_POWERS[cfg.observable])
        except ValueError:
            oracle = None
    for n in cfg.n_values:
        res = measures.pinned_estimate(mdl, Partition(n), x_amb, obs, cfg.n_samples,
                                       cfg.seed, cfg.workers)
        err = abs(res.mean - oracle) if oracle is not None else float("nan")
        rows.append({"model": cfg.model, "d": cfg.d, "kappa": cfg.kappa,
                     "n": n, "x_norm": x_norm, "observable": cfg.observable,
                     "N": cfg.n_samples, "mean": res.mean, "stderr": res.stderr,
                     "oracle": oracle if oracle is not None else float("nan"),
                     "abs_err": err, "proposal": res.meta["proposal"],
                     "tip_cond_hits": res.meta["tip_cond_hits"],
                     **res.meta["weights"], "stage_s": res.meta["stage_s"],
                     "versions": VERSIONS})
        if oracle is not None:
            if cfg.model == "flat":
                gates.append(err <= max(3 * res.stderr, FLAT_GATE_ROUNDOFF * abs(oracle)))
            else:
                gates.append(err <= max(0.02 * abs(oracle), 3 * res.stderr))

    if oracle is not None and len(rows) > 1:
        # refinement should not make the bias worse (up to noise)
        for a, b in zip(rows, rows[1:]):
            slack = 2.0 * (a["stderr"] + b["stderr"])
            gates.append(b["abs_err"] <= a["abs_err"] + slack)

    csv_path = os.path.join(cfg.out_dir, "pinned_results.csv")
    columns = "model,d,kappa,n,x_norm,observable,N,mean,stderr,oracle,abs_err".split(",")
    _write_csv(csv_path, columns, ([r[c] for c in columns] for r in rows))
    passed = all(gates) if gates else None     # None: no oracle, nothing gated
    for r in rows:
        click.echo("n=%-4d mean=%.6g stderr=%.3g oracle=%s abs_err=%.3g"
                   % (r["n"], r["mean"], r["stderr"], r["oracle"], r["abs_err"]))
    verdict = ("ungated: no oracle for this config" if passed is None
               else f"gates {'passed' if passed else 'FAILED'}")
    click.echo(f"{verdict}; results in {csv_path}")
    return passed is not False, {"rows": rows, "gates_passed": passed}


@_command("converge", {"stat": "all", "model": "hyperbolic", "d": 2, "kappa": None,
                       "n": "8,16,32,64,128", "samples": 200, "seed": 0, "out": "."})
def cmd_converge(cfg):
    """Convergence-rate reports against the damped closed forms."""
    stats = STATISTICS[:-1] if cfg.statistic == "all" else (cfg.statistic,)
    clock = measures._StageClock(diagnostics.CONVERGE_STAGES)
    reports = diagnostics.convergence_suite(cfg.build_model(), cfg.n_values,
                                            cfg.n_samples, cfg.seed, stats, clock=clock)
    summary = {}
    for name, rep in reports.items():
        _write_csv(os.path.join(cfg.out_dir, f"converge_{name}.csv"),
                   ["n", "q05", "q50", "q95", "mean", "slope", "pass"],
                   (row + (rep.slope, rep.passed) for row in
                    zip(rep.n_values, rep.q05, rep.q50, rep.q95, rep.mean)))
        click.echo(rep.table())
        click.echo("")
        summary[name] = {"slope": rep.slope, "passed": rep.passed,
                         "medians": [float(v) for v in rep.q50]}
    return all(rep.passed for rep in reports.values()), {"reports": summary,
                                                         "stage_s": clock.seconds}


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
        "n_paths": report.n_paths, "stage_s": report.stage_s}


@_command("sample", {"model": "flat", "d": 2, "kappa": None, "n": 8, "N": 16,
                     "seed": 0, "out": "."})
def cmd_sample(cfg):
    """Dump free broken-geodesic paths to CSV."""
    mdl, n, N = cfg.build_model(), cfg.n_values[0], cfg.n_samples
    d, D = mdl.dim, mdl.ambient_dim
    inc = paths.sample_increments(mdl, Partition(n), N, cfg.seed)
    at_o = np.broadcast_to(np.eye(d)[:, None, :, None], (d, n + 1, d, N))
    points, frames = paths.boost_to_knots(mdl, Intervals(mdl, inc.transpose(1, 2, 0)),
                                          range(n, -1, -1), at_o)
    # knot i of sample s: its point, o's frame carried there, the increment ending there
    points, frames = points.transpose(2, 1, 0)[:, ::-1], frames.transpose(3, 1, 0, 2)[:, ::-1]
    steps = np.concatenate([np.zeros((N, 1, d)), inc], axis=1)
    columns = (["sample_id", "i", "s_i"] + [f"p{a}" for a in range(D)]
               + [f"f{a}{b}" for a in range(D) for b in range(d)] + [f"inc{a}" for a in range(d)])
    csv_path = os.path.join(cfg.out_dir, "paths.csv")
    _write_csv(csv_path, columns, ([s, i, i / n, *points[s, i], *frames[s, i].ravel(),
                                    *steps[s, i]] for s in range(N) for i in range(n + 1)))
    click.echo(f"wrote {N} paths to {csv_path}")
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
    click.echo(res.summary())
    click.echo("scalar gap (ungated): %s" % json.dumps(res.scalar_gap))
    click.echo("gradient compare (ungated): %s" % json.dumps(res.gradient_gap))
    result = asdict(res)
    scalar, gradient, stages = (result.pop(k) for k in ("scalar_gap", "gradient_gap", "stage_s"))
    return res.passed, {"result": result, "scalar_gap": scalar, "gradient_compare": gradient,
                        "stage_s": stages}


if __name__ == "__main__":
    main()
