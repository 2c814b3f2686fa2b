"""The pinpath benchmark: one CLI command per workload, run closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one ``pinpath`` command in a fresh interpreter
(``child.py``), in-process through ``pinpath.cli.main``, with ``--workers 1``
where the command has that option and ``--seed N`` passed through.  One
command at a time; a new one starts when the previous one has ended.
Repetitions continue while ``--seconds`` have not passed (at least
``MIN_REPS``), and every repetition's output is checked, including that it
is byte-identical to the first output of the same code and seed.

``--trace 0`` prints the end-to-end metrics, medians over the repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians), plus the tracing overhead.
Times are scaled to a nominal host speed, measured by a fixed reference
computation around each command (see ``REF_NOMINAL_S``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Records of every
repetition, the run environment and the spans of one traced command go to
``.perfbench_out/<workload>/`` in the checkout.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Forced for this process and every child: one BLAS/OpenMP thread, matching
# --workers 1, so that the runs do not contend for the machine's cores.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MIN_REPS = 3
DEFAULT_SEED = 0         # the CLI's default --seed
EXIT_GATE = 1            # the CLI's exit code for a failed statistical gate
# A 3-stderr gate misses at some seeds with nothing wrong: pinned-hyp3 missed
# it on 1 of 71 random seeds (at +3.22 stderr), and the z-scores of those 71
# estimates have mean +0.30 and sd 1.19.  So the CLI's gates count only at the
# default seed; at other seeds a miss is recorded (gate_passed false, z) and
# the estimate must lie within this many standard errors of the oracle.
SANITY_STDERR = 5
# Seconds the child's reference computation (child.reference_s) takes in the
# fast phases of the 2-vCPU Xeon VM this benchmark was tuned on.  That host
# runs up to 1.7x slower for tens of seconds at a time, which moved the median
# wall of a run by 20-40% between runs.  So every time is reported at the
# nominal speed: multiplied by REF_NOMINAL_S / (the mean reference time
# measured just before and after the same command), which cut that spread to
# about 10%.  The raw times stay in the repetition records.
REF_NOMINAL_S = 0.11
RUN_LIMIT_S = 170        # a run ends by then, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "pinned", "ibp" or "props": the CLI command run
    args: tuple          # CLI arguments, without --seed/--workers/--out
    paths: int           # sample paths one command completes

    def command(self, seed, out_dir):
        """The CLI arguments of one command run with ``--seed seed``."""
        workers = ("--workers", "1") if self.kind == "pinned" else ()
        return [*self.args, "--seed", str(seed), *workers, "--out", str(out_dir)]


# Sizes are frozen: a later revision is compared at the same N.  Each command
# takes 2-5 s, so a run holds 5-10 of them; pinned-hyp3 keeps the larger N
# because its importance weights are heavy-tailed and s_to_1pct needs the
# stderr estimate of 40960 paths to repeat within about 10% across seeds.
WORKLOADS = {wl.name: wl for wl in (
    Workload("pinned-hyp3", "pinned",
             ("pinned", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
              "--rho", "1.0", "--n", "32", "--N", "40960"), 40960),
    Workload("pinned-flat2", "pinned",
             ("pinned", "--model", "flat", "--d", "2", "--x", "1,0", "--n", "8",
              "--N", "204800"), 204800),
    Workload("ibp-hyp2", "ibp",
             ("ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1",
              "--n", "4", "--N", "2000"), 2000),
    Workload("props-sweep", "props",
             ("props", "--paths", "180", "--n", "64", "--kappa", "1",
              "--d", "1,2,3"), 180),
)}

# The function whose first call ends set-up, per command.
HOT = {"pinned": "measures.pinned_estimate", "ibp": "diagnostics.ibp_check",
       "props": "diagnostics.property_sweep"}

END_TO_END = {"paths_per_s": "paths/s", "s_to_1pct": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "pass_frac": "frac"}

# Per-layer metrics: self seconds and call counts of single functions, the
# self seconds of each module, and counters taken from arguments/results.
SELF_S = [
    "geom.renormalize_frame", "geom.transport", "geom.exp_point",
    "geom.exp_frame", "geom.frame_coords", "geom.log_point",
    "paths.roll_batch", "paths.sample_increments",
    "jacobi._cs_closed", "jacobi.batch_endpoint_f",
    "jacobi.batch_log_normal_jacobian", "jacobi.build_family", "jacobi.rho_P",
    "jacobi.log_rho_P", "jacobi.volume_change_Vx", "jacobi.normal_jacobian",
    "measures._pinned_chunk", "measures._batch_log_volume_change",
    "measures.pinned_estimate",
    "diagnostics._chart_velocity", "diagnostics._knot_coords_relative",
    "diagnostics._slopes_from_knots_batch", "diagnostics._response_bound_margin",
    "diagnostics._volume_bound_margin", "diagnostics.property_sweep",
    "cli._git_revision", "cli._write_manifest",
]
CALLS = ["geom.exp_frame", "paths.roll_batch", "jacobi._cs_closed",
         "jacobi.batch_endpoint_f", "jacobi.build_family",
         "measures._pinned_chunk", "diagnostics._chart_velocity"]
MODULES = ["geom", "paths", "jacobi", "measures", "diagnostics", "cli"]
COUNTERS = {
    "paths.roll_batch.paths_per_call": "paths",
    "geom.frame_defect_max": "1",
    "measures.tip_cond_hits": "count",
    "measures.ess_frac": "frac",
    "measures.max_weight_share": "frac",
    "diagnostics.ibp_check.roll_calls": "count",
    "diagnostics.ibp_check.used_frac": "frac",
    "trace.self_sum_frac": "frac",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}


def per_layer_units():
    units = {f"{name}.self_s": "s" for name in SELF_S}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{mod}.self_s": "s" for mod in MODULES})
    units.update(COUNTERS)
    return units


# ---------------------------------------------------------------------------
# Output checks, one per command
# ---------------------------------------------------------------------------

def _canonical_sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_pinned(wl, out_dir, seed):
    """Exit gate re-derived from the CSV: |mean - p_1| within the CLI's bound
    (3 stderr flat, max(2% p_1, 3 stderr) hyperbolic) at the default seed, and
    within ``SANITY_STDERR`` stderr (same 2% floor) at other seeds.  The CLI's
    own verdict must agree with the re-derived one.

    Returns (errors, record, paths done, (estimate, stderr) or None).  A
    config without an oracle is refused: the CLI would pass it ungated.
    """
    raw = (out_dir / "pinned_results.csv").read_bytes()
    manifest = json.loads((out_dir / "pinned_manifest.json").read_text())
    lines = raw.decode().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    errors = [] if rows else ["CSV has no result rows"]
    gates = []
    for row in rows:
        mean, stderr = float(row["mean"]), float(row["stderr"])
        oracle = float(row["oracle"])
        if int(row["N"]) != wl.paths:
            errors.append(f"ran N={row['N']}, not {wl.paths}")
        if not math.isfinite(oracle):
            errors.append("no oracle for this config: the run is ungated")
            continue
        floor = 0.0 if row["model"] == "flat" else 0.02 * abs(oracle)
        err = abs(mean - oracle)
        gates.append(err <= max(floor, 3 * stderr))
        limit = max(floor, (3 if seed == DEFAULT_SEED else SANITY_STDERR) * stderr)
        if not err <= limit:
            errors.append(f"|mean - oracle| = {err:.3g} > {limit:.3g}")
    if manifest.get("gates_passed") is not all(gates):
        errors.append(f"manifest says gates_passed={manifest.get('gates_passed')}, "
                      f"the CSV says {all(gates)}")
    last = rows[-1] if rows else {"mean": "nan", "stderr": "nan", "oracle": "nan"}
    mean, stderr, oracle = (float(last[k]) for k in ("mean", "stderr", "oracle"))
    record = {"gate_passed": all(gates), "mean": mean, "stderr": stderr, "oracle": oracle,
              "z": (mean - oracle) / stderr if stderr > 0 else None,
              "output_sha256": hashlib.sha256(raw).hexdigest()}
    return errors, record, wl.paths, (mean, stderr)


def check_ibp(wl, out_dir, seed):
    """No sample dropped on conditioning, and the IBP gate passed if ``seed``
    is the default seed.

    At other seeds a failed gate is recorded (``gate_passed``) but not counted:
    the paired difference is heavy-tailed (at N=3000, seed 11 of seeds 0-39
    gives -3.3 stderr), so a 3-stderr gate fails at some seeds without any
    regression.
    """
    manifest = json.loads((out_dir / "ibp_manifest.json").read_text())
    res = manifest["result"]
    errors = []
    if not res["passed"] and seed == DEFAULT_SEED:
        errors.append("IBP gate failed at the default seed")
    if res["n_aborted"] != 0:
        errors.append(f"{res['n_aborted']} samples aborted on conditioning")
    if res["n_used"] + res["n_aborted"] != wl.paths:
        errors.append(f"ran N={res['n_used'] + res['n_aborted']}, not {wl.paths}")
    kept = {k: manifest[k] for k in ("result", "scalar_gap", "gradient_compare")}
    record = {"gate_passed": res["passed"],
              "lhs_mean": res["lhs_mean"], "lhs_stderr": res["lhs_stderr"],
              "diff_mean": res["diff_mean"], "diff_stderr": res["diff_stderr"],
              "output_sha256": _canonical_sha(kept)}
    return errors, record, wl.paths, (res["lhs_mean"], res["lhs_stderr"])


def check_props(wl, out_dir, seed):
    """No pathwise inequality violated, over the requested number of paths."""
    manifest = json.loads((out_dir / "props_manifest.json").read_text())
    errors = [f"{key}: {count} violations"
              for key, count in sorted(manifest["violations"].items()) if count]
    if manifest["n_paths"] != wl.paths:
        errors.append(f"audited {manifest['n_paths']} paths, not {wl.paths}")
    kept = {k: manifest[k] for k in ("violations", "worst_margins", "n_paths")}
    record = {"worst_margins": manifest["worst_margins"],
              "output_sha256": _canonical_sha(kept)}
    return errors, record, manifest["n_paths"], None


CHECKS = {"pinned": check_pinned, "ibp": check_ibp, "props": check_props}


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def run_rep(wl, seed, traced, work_dir, timeout):
    """Run one command in a fresh interpreter, check it, and time it."""
    cli_dir = work_dir / "cli"
    shutil.rmtree(cli_dir, ignore_errors=True)
    cli_dir.mkdir(parents=True)
    result_path = work_dir / "child.json"
    result_path.unlink(missing_ok=True)
    spec = {"root": str(ROOT), "args": wl.command(seed, cli_dir), "hot": HOT[wl.kind],
            "trace": traced, "result": str(result_path),
            "spans": str(work_dir / "spans.json"), "label": wl.name}
    rep = {"traced": traced, "errors": []}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["errors"].append(f"timed out after {timeout:.0f} s")
        return rep
    if not result_path.exists():
        rep["errors"].append("no report: " + proc.stderr.strip()[-500:])
        return rep
    child = json.loads(result_path.read_text())
    rep["exit_code"] = child["exit_code"]
    if child["t_hot"] is None:
        rep["errors"].append(f"exit code {child['exit_code']}: " + proc.stderr.strip()[-300:])
        rep["errors"].append(f"{HOT[wl.kind]} was never called")
        return rep
    ref_s = (child["ref_before_s"] + child["ref_after_s"]) / 2
    scale = REF_NOMINAL_S / ref_s        # below 1 while the host runs slow
    wall = child["t_end"] - child["t_hot"]
    rep.update(wall_s=wall, setup_s=child["t_hot"] - t_spawn - child["ref_before_s"],
               main_s=child["t_end"] - child["t_main"], ref_s=ref_s, scale=scale,
               rss_mb=child["rss_mb"])
    try:
        errors, record, done, estimate = CHECKS[wl.kind](wl, cli_dir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors, record = [f"unreadable output: {exc!r}"], None
    gate_only = child["exit_code"] == EXIT_GATE and record and record.get("gate_passed") is False
    if child["exit_code"] != 0 and not (gate_only and not errors):
        errors.insert(0, f"exit code {child['exit_code']}: " + proc.stderr.strip()[-300:])
    rep["errors"] += errors
    if record is None:
        return rep
    rep.update(record)
    rep["paths_per_s"] = done / (wall * scale)
    if estimate is None:
        # props estimates nothing: its result is exact once the sweep ends
        rep["s_to_1pct"] = wall * scale
    else:
        mean, stderr = estimate
        rep["s_to_1pct"] = wall * scale * (stderr / (0.01 * abs(mean))) ** 2
    if traced:
        rep["layers"] = layer_metrics(child, scale)
        rep["missing"] = child["missing"]
    return rep


def layer_metrics(child, scale):
    spans, counters = child["spans"], child["counters"]
    out = {f"{name}.self_s": spans.get(name, {}).get("self_s", 0.0) * scale
           for name in SELF_S}
    out.update({f"{name}.calls": spans.get(name, {}).get("calls", 0) for name in CALLS})
    for mod in MODULES:
        out[f"{mod}.self_s"] = scale * sum(
            (row["self_s"] for name, row in spans.items()
             if name == mod or name.startswith(mod + ".")), 0.0)
    rolls = spans.get("paths.roll_batch", {}).get("calls", 0)
    main_s = child["t_end"] - child["t_main"]
    out.update({
        "paths.roll_batch.paths_per_call": counters["roll_paths"] / rolls if rolls else 0.0,
        "geom.frame_defect_max": counters["frame_defect_max"],
        "measures.tip_cond_hits": counters["tip_cond_hits"],
        "measures.ess_frac": counters["ess_frac"],
        "measures.max_weight_share": counters["max_weight_share"],
        "diagnostics.ibp_check.roll_calls": counters["ibp_roll_calls"],
        "diagnostics.ibp_check.used_frac": counters["ibp_used_frac"],
        "trace.self_sum_frac": sum(row["self_s"] for row in spans.values()) / main_s,
        "trace.wall_s": main_s * scale,
    })
    return out


def code_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pinpath").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_reproducible(reps, key, registry_path):
    """Every output must equal the first one seen for this code and command.

    The first output is the first repetition's, or the one a previous run in
    this checkout recorded in ``registry_path`` under ``key`` (the hash of
    ``src/pinpath`` and the full command, seed included).
    """
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    for rep in reps:
        sha = rep.get("output_sha256")
        if sha is None:
            continue
        first = registry.setdefault(key, sha)
        if sha != first:
            rep["errors"].append(f"output differs from the first run ({first[:12]})")
    registry_path.parent.mkdir(parents=True, exist_ok=True)
    registry_path.write_text(json.dumps(registry, indent=1, sort_keys=True))


def run_workload(wl, seed, seconds, trace, work_dir):
    """Repeat the command (alternately untraced and traced when tracing)
    until the next repetition would end after ``seconds``, and at least
    ``MIN_REPS`` times."""
    reps = []
    start = time.monotonic()
    last = 0.0
    min_reps = MIN_REPS + trace          # tracing: at least two of each kind
    while True:
        elapsed = time.monotonic() - start
        if (len(reps) >= min_reps and elapsed + last > seconds) or (
                reps and elapsed + last > RUN_LIMIT_S):
            break
        reps.append(run_rep(wl, seed, trace and len(reps) % 2 == 1, work_dir,
                            RUN_LIMIT_S - elapsed))
        last = time.monotonic() - start - elapsed
    return reps


def end_to_end(reps, failed):
    timed = [r for r in reps if "s_to_1pct" in r]
    if not timed:
        return None
    values = {
        "paths_per_s": statistics.median(r["paths_per_s"] for r in timed),
        "s_to_1pct": statistics.median(r["s_to_1pct"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in timed),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in timed),
        "pass_frac": (len(reps) - failed) / len(reps),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(reps):
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if not r["traced"] and "scale" in r]
    if not traced or not plain:
        return None
    units = per_layer_units()
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in units if k != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        statistics.median(r["main_s"] * r["scale"] for r in traced)
        / statistics.median(r["main_s"] * r["scale"] for r in plain) - 1.0)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(wl, seed, seconds, trace):
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "command": ["pinpath", *wl.command(seed, "<out>")], "workers": 1,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_env": BLAS_ENV, "git_revision": git_revision(),
        "code_sha256": code_sha256(),
    }


def build():
    """Byte-compile the package; False when there is no program to run."""
    pkg = ROOT / "src" / "pinpath"
    if not (pkg / "cli.py").is_file():
        print(f"perfbench: no pinpath sources under {pkg}", file=sys.stderr)
        return False
    return bool(compileall.compile_dir(str(pkg), quiet=1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    # the CLI asks git for the revision: keep git from searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if not build():
        return 2
    wl = WORKLOADS[args.workload]
    work_dir = OUT / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment(wl, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env), flush=True)

    reps = run_workload(wl, args.seed, args.seconds, bool(args.trace), work_dir)
    check_reproducible(reps, f"{env['code_sha256']} {' '.join(env['command'])}",
                       OUT / "outputs.json")
    failed = sum(1 for r in reps if r["errors"])
    for i, rep in enumerate(reps):
        shown = {k: v for k, v in rep.items() if k != "layers"}
        print(f"rep {i} " + json.dumps(shown), flush=True)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, failed)
    (work_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "reps": reps, "metrics": metrics}, indent=1))
    if metrics is None:
        print("perfbench: no repetition produced timings", file=sys.stderr)
        return 1
    print(f"failed_frac {failed / len(reps):.6g} ({failed} of {len(reps)} commands)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
