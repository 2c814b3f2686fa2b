"""Run one pinpath CLI command in this (fresh) interpreter and report on it.

Usage: python child.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout), ``args`` (the CLI arguments),
``hot`` (``module.function`` whose first entry ends set-up), ``trace``,
``result`` (where to write this process's report) and, when tracing,
``spans`` (where the tracer writes its spans) and ``label``.

The report holds monotonic-clock stamps that the parent compares with the
time it started this process, the command's exit code, peak RSS, the time of
a fixed reference computation run just before and just after the command
and, when tracing, the per-function span summary and the counters the
benchmark's per-layer metrics need.  Only the process's own clocks are read.
"""

import json
import os
import resource
import sys
import time


def _import_pinpath(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pinpath.cli
    where = os.path.realpath(pinpath.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"pinpath imported from {where}, not from {src}")
    return {name: getattr(pinpath, name) for name in
            ("geom", "paths", "jacobi", "measures", "diagnostics", "cli")}


_REF_SOURCE = "\n".join(
    f"def f{i}(a, b={i}):\n    d = {{'k{i}': [a, b], 'x': (a, {i})}}\n    return d['x'][0] + b\n"
    for i in range(600))


def reference_s():
    """Seconds for a fixed mix of interpreter, batched numpy and compiler work.

    The shared host this benchmark runs on changes speed by up to 1.7x, for
    moments and for tens of seconds at a time.  This computation, identical on
    every revision, measures that speed next to each command.  It stays under
    the RSS of an imported pinpath, so it does not set the peak RSS.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i % 7
    a = np.linspace(0.0, 1.0, 4096 * 9).reshape(4096, 3, 3)
    acc = np.zeros_like(a)
    for _ in range(40):
        acc = np.einsum("nab,nbc->nac", acc * 1e-3 + a, a) + np.cosh(a)
    compile(_REF_SOURCE, "<reference>", "exec")
    return time.perf_counter() - start


class _Counters:
    """Counters taken from call arguments and results while tracing."""

    def __init__(self):
        self.roll_paths = 0
        self.first_roll = None
        self.estimate = None
        self.ibp = None

    def roll_batch(self, args, kwargs, result):
        shape = getattr(args[1], "shape", None)
        batch = 1
        for size in (shape or (1, 1))[:-2]:
            batch *= size
        self.roll_paths += batch
        if self.first_roll is None:
            self.first_roll = (args[0], result)

    def pinned_estimate(self, args, kwargs, result):
        self.estimate = result

    def ibp_check(self, args, kwargs, result):
        n_samples = args[4] if len(args) > 4 else kwargs["n_samples"]
        self.ibp = (result, n_samples)

    def hooks(self):
        return {"paths.roll_batch": self.roll_batch,
                "measures.pinned_estimate": self.pinned_estimate,
                "diagnostics.ibp_check": self.ibp_check}

    def report(self, modules, tracer):
        import numpy as np
        out = {"roll_paths": self.roll_paths, "frame_defect_max": 0.0,
               "tip_cond_hits": 0, "ess_frac": 0.0, "max_weight_share": 0.0,
               "ibp_roll_calls": tracer.count_within("paths.roll_batch",
                                                     "diagnostics.ibp_check"),
               "ibp_used_frac": 0.0}
        if self.first_roll is not None:
            model, (points, frames) = self.first_roll
            out["frame_defect_max"] = float(modules["geom"].frame_defect(
                model, points[..., -1, :], frames[..., -1, :, :]))
        if self.estimate is not None:
            log_w = np.asarray(self.estimate.log_weights)
            w = np.exp(log_w - log_w.max())
            out["tip_cond_hits"] = int(self.estimate.meta.get("tip_cond_hits", 0))
            out["ess_frac"] = float(w.sum() ** 2 / (w.size * np.sum(w * w)))
            out["max_weight_share"] = float(w.max() / w.sum())
        if self.ibp is not None:
            result, n_samples = self.ibp
            out["ibp_used_frac"] = result.n_used / n_samples
        return out


def main():
    spec = json.loads(sys.argv[1])
    ref_before = reference_s()
    modules = _import_pinpath(spec["root"])
    cli = modules["cli"]
    tracer = counters = None
    if spec["trace"]:
        from tracer import Tracer
        counters = _Counters()
        tracer = Tracer(counters.hooks())
        tracer.install(modules)

    hot_mod, hot_attr = spec["hot"].split(".")
    hot_fn = getattr(modules[hot_mod], hot_attr)
    stamps = {}

    def hot(*args, **kwargs):
        stamps.setdefault("t_hot", time.monotonic())
        return hot_fn(*args, **kwargs)

    setattr(modules[hot_mod], hot_attr, hot)

    def command():
        try:
            cli.main.main(args=spec["args"], prog_name="pinpath", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return 0

    t_main = time.monotonic()
    code = tracer.call("cli", command) if tracer else command()
    t_end = time.monotonic()
    setattr(modules[hot_mod], hot_attr, hot_fn)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"exit_code": code, "t_main": t_main, "t_end": t_end,
              "t_hot": stamps.get("t_hot"), "ref_before_s": ref_before,
              "ref_after_s": reference_s(), "rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.summary()
        report["counters"] = counters.report(modules, tracer)
        report["missing"] = tracer.missing
        tracer.dump(spec["spans"], spec["label"])
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
