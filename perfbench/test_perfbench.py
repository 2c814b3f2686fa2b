"""Tests of the benchmark itself: tracer transparency, self time, failure
accounting and the metric names it prints.

Run from the root of the repository: python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

import pinpath.cli  # noqa: E402
from pinpath import diagnostics, geom, jacobi, measures, paths  # noqa: E402
from pinpath.geom import CurvatureModel  # noqa: E402
from pinpath.jacobi import Partition  # noqa: E402

MODULES = {"geom": geom, "paths": paths, "jacobi": jacobi, "measures": measures,
           "diagnostics": diagnostics, "cli": pinpath.cli}


def _estimate_and_sweep():
    model = CurvatureModel("hyperbolic", 3, 1.0)
    est = measures.pinned_estimate(model, Partition(8), (np.eye(3)[0], 1.0),
                                   n_samples=600, seed=3)
    sweep = diagnostics.property_sweep([model, CurvatureModel("flat", 2, 0.0)], 4, 8, 3)
    return est, sweep


def test_traced_results_are_bit_identical():
    plain_est, plain_sweep = _estimate_and_sweep()
    originals = {(m, a): getattr(MODULES[m], a) for m, attrs in TARGETS.items()
                 for a in attrs if hasattr(MODULES[m], a)}
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        traced_est, traced_sweep = _estimate_and_sweep()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert traced_est.log_weights.tobytes() == plain_est.log_weights.tobytes()
    assert traced_est.f_values.tobytes() == plain_est.f_values.tobytes()
    assert (traced_est.mean, traced_est.stderr) == (plain_est.mean, plain_est.stderr)
    assert traced_sweep.worst == plain_sweep.worst
    assert traced_sweep.violations == plain_sweep.violations
    names = {s[0] for s in tracer.spans}
    assert {"measures._pinned_chunk", "paths.roll_batch", "jacobi.build_family"} <= names
    for (m, a), fn in originals.items():
        assert getattr(MODULES[m], a) is fn


def test_self_time_subtracts_children():
    fake = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def middle(x):
        return fake.leaf(x) + fake.leaf(x)

    fake.leaf, fake.middle = leaf, middle
    tracer = Tracer()
    tracer.install({"fake": fake}, {"fake": ["leaf", "middle", "absent"]})
    assert tracer.call("root", lambda: fake.middle(1) + fake.leaf(0)) == 5
    tracer.uninstall()
    assert tracer.missing == ["fake.absent"]
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "fake.middle", "fake.leaf", "fake.leaf", "fake.leaf"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1, 0]
    summary = tracer.summary()
    dur = [end - start for _, start, end, _ in tracer.spans]
    assert summary["fake.leaf"]["calls"] == 3
    assert summary["fake.middle"]["self_s"] == pytest.approx(dur[1] - dur[2] - dur[3])
    assert summary["root"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[4])
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(dur[0])
    assert tracer.count_within("fake.leaf", "fake.middle") == 2


def _counted(monkeypatch, tmp_path, workload, seed=0):
    monkeypatch.setattr(run, "MIN_REPS", 2)
    reps = run.run_workload(workload, seed, 0, False, tmp_path)
    failed = sum(1 for r in reps if r["errors"])
    return reps, failed, run.end_to_end(reps, failed)


@pytest.mark.parametrize("seed", [0, 1])
def test_forced_gate_failure_is_counted(monkeypatch, tmp_path, seed):
    # one interval: every sample is the same geodesic, so the estimate has no
    # spread and a fixed bias the 2% gate rejects at any seed
    biased = run.Workload("biased", "pinned",
                          ("pinned", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
                           "--rho", "1.0", "--n", "1", "--N", "64"), 64)
    reps, failed, metrics = _counted(monkeypatch, tmp_path, biased, seed)
    assert failed == len(reps) == 2
    assert all(r["exit_code"] == 1 for r in reps)
    assert any("|mean - oracle|" in e for e in reps[0]["errors"])
    assert metrics["pass_frac"]["value"] == 0.0


def _pinned_output(out_dir, model, mean, stderr, oracle, gates_passed):
    out_dir.mkdir()
    fields = [model, "3", "1.0", "32", "1.0", "mass", "40960", repr(mean), repr(stderr),
              repr(oracle), repr(abs(mean - oracle))]
    (out_dir / "pinned_results.csv").write_text(
        "schema=1\nmodel,d,kappa,n,x_norm,observable,N,mean,stderr,oracle,abs_err\n"
        + ",".join(fields) + "\n")
    (out_dir / "pinned_manifest.json").write_text(json.dumps({"gates_passed": gates_passed}))
    return out_dir


@pytest.mark.parametrize("model", ["flat", "hyperbolic"])
def test_gate_miss_counts_at_default_seed_only(tmp_path, model):
    wl = run.WORKLOADS["pinned-hyp3"]
    # 3.5 stderr off, stderr 8% of the oracle: the CLI's gate fails
    miss = _pinned_output(tmp_path / "miss", model, 1.28, 0.08, 1.0, False)
    errors, record, _, _ = run.check_pinned(wl, miss, run.DEFAULT_SEED)
    assert errors and record["gate_passed"] is False
    errors, record, _, _ = run.check_pinned(wl, miss, 7)
    assert errors == [] and record["gate_passed"] is False
    assert record["z"] == pytest.approx(3.5)
    # beyond the sanity bound, a miss counts at every seed
    far = _pinned_output(tmp_path / "far", model, 1.48, 0.08, 1.0, False)
    assert run.check_pinned(wl, far, 7)[0]
    # the CLI's verdict must match the one re-derived from the CSV
    lying = _pinned_output(tmp_path / "lying", model, 1.28, 0.08, 1.0, True)
    assert any("gates_passed" in e for e in run.check_pinned(wl, lying, 7)[0])
    good = _pinned_output(tmp_path / "good", model, 1.1, 0.08, 1.0, True)
    assert run.check_pinned(wl, good, run.DEFAULT_SEED)[0] == []


def test_ungated_run_is_counted(monkeypatch, tmp_path):
    # no oracle for this observable, so the CLI passes it without a gate
    ungated = run.Workload("ungated", "pinned",
                           ("pinned", "--model", "flat", "--d", "2", "--x", "1,0",
                            "--n", "4", "--observable", "radial_r", "--N", "64"), 64)
    reps, failed, _ = _counted(monkeypatch, tmp_path, ungated)
    assert all(r["exit_code"] == 0 for r in reps)
    assert failed == len(reps)
    assert "ungated" in reps[0]["errors"][0]


def test_changed_output_is_counted(tmp_path):
    reps = [{"output_sha256": "a", "errors": []}, {"output_sha256": "b", "errors": []}]
    registry = tmp_path / "outputs.json"
    run.check_reproducible(reps, "code pinpath props --seed 0", registry)
    assert reps[0]["errors"] == [] and reps[1]["errors"]
    again = [{"output_sha256": "b", "errors": []}]
    run.check_reproducible(again, "code pinpath props --seed 0", registry)
    assert again[0]["errors"]


SMALL = {
    "pinned-hyp3": ("pinned", "--model", "hyperbolic", "--d", "3", "--kappa", "1",
                    "--rho", "1.0", "--n", "8", "--N", "2048"),
    "pinned-flat2": ("pinned", "--model", "flat", "--d", "2", "--x", "1,0", "--n", "4",
                     "--N", "2048"),
    "ibp-hyp2": ("ibp", "--model", "hyperbolic", "--d", "2", "--kappa", "1", "--n", "2",
                 "--N", "64"),
    "props-sweep": ("props", "--paths", "6", "--n", "8", "--kappa", "1", "--d", "1,2,3"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_benchmark_metric_is_printed(monkeypatch, tmp_path, capsys, name, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(SMALL)
    wl = run.WORKLOADS[name]
    args = SMALL[name]
    paths_done = int(args[args.index("--N") + 1]) if "--N" in args else 6
    monkeypatch.setitem(run.WORKLOADS, name, run.Workload(name, wl.kind, args, paths_done))
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.self_sum_frac"]["value"] > 0.9


def test_no_program_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(["--workload", "props-sweep", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
