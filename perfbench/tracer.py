"""Span tracer that wraps pinpath functions from outside the package.

Every cross-module call in ``pinpath`` (and every call between functions of
one module) looks the callee up as a module attribute, so replacing the
attribute with a wrapper puts a span around each call without touching the
package.  A span is (name, start, end, parent); spans stay in memory and are
written once, by ``dump``, when the traced command has ended.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded here (``--workers 1``), so
children of one span never overlap and that difference is exactly the part
of the span not covered by a child.
"""

import functools
import json
import time

# The functions wrapped, per pinpath module.  A fixed list, so that the same
# spans are recorded on every revision the benchmark compares; a name that a
# later revision deletes is skipped and listed in ``Tracer.missing``.
# ``geom.minkowski_inner`` and ``geom.sinhc`` are left out on purpose: they
# are one-line numpy helpers called several times per rolled step, and a span
# around each would cost more than the work it times.
TARGETS = {
    "geom": [
        "base_point", "base_frame", "base_frame_point", "distance", "exp_point",
        "log_point", "transport", "project_tangent", "_renormalize_point",
        "renormalize_frame", "frame_defect", "frame_coords", "frame_vector",
        "exp_frame", "exp_map", "log_map", "curvature_apply",
        "curvature_quadratic", "curvature_matrix", "ricci_apply",
    ],
    "paths": [
        "sample_increments", "_chunk_normals", "roll_batch", "roll", "anti_roll",
        "energy", "g1p_inner", "frame_field_slopes", "dump_paths_csv",
    ],
    "jacobi": [
        "_cs_closed", "_cs_closed_derivative", "_cs_rk4", "solve_cs_interval",
        "build_family", "jacobi_from_slopes", "slopes_from_knots",
        "_guarded_solve", "normal_jacobian", "log_normal_jacobian", "rho_P",
        "log_rho_P", "volume_change_Vx", "batch_cs", "batch_endpoint_f",
        "batch_mass_matrix", "batch_log_normal_jacobian", "det_identity_check",
    ],
    "measures": [
        "_radial_g", "_knot_index", "radial_observable", "sample_nu1P",
        "_target_point", "_pinned_chunk", "_batch_log_volume_change",
        "_estimate_task", "pinned_estimate", "pinned_samples",
        "heat_kernel_exact", "_cn_evolve", "radial_pde_kernel", "_pair_density",
        "pinned_fdd_oracle",
    ],
    "diagnostics": [
        "projected_constant_field", "zero_field", "lift_build",
        "endpoint_map_matrix", "lift_orthogonality", "lift_competitor_deficit",
        "_fit_slope", "_decreasing", "_report", "convergence_suite",
        "converge_f_vs_damped", "converge_K_and_J",
        "converge_adjoint_martingale", "_batched_lift_slopes",
        "_knot_coords_relative", "_slopes_from_knots_batch", "_chart_velocity",
        "_directional_derivative", "ibp_check", "_scalar_gap",
        "gradient_compare", "_knot_time_index", "property_sweep",
        "_response_bound_margin", "_volume_bound_margin",
    ],
    "cli": [
        "_merge", "_load_config", "_parse_int_list", "_parse_float_list",
        "_git_revision", "_write_manifest", "_bail_config",
    ],
}


class Tracer:
    """Wraps module attributes, records spans, and undoes the wrapping.

    ``on_return`` maps a span name to a callback ``(args, kwargs, result)``
    run after the span has closed; the benchmark uses it to keep counters
    (such as the batch size of each roll) without timing them.
    """

    def __init__(self, on_return=None):
        self.spans = []           # (name, start, end, parent index or -1)
        self.missing = []
        self._stack = []
        self._saved = []
        self._on_return = dict(on_return or {})

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._on_return.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, modules, targets=TARGETS):
        """Replace every listed attribute of ``modules`` (name -> module)."""
        for mod_name, attrs in targets.items():
            module = modules[mod_name]
            for attr in attrs:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root of a traced command)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def count_within(self, name, ancestor):
        """Number of ``name`` spans that ran inside an ``ancestor`` span."""
        inside = [False] * len(self.spans)
        count = 0
        for i, (span_name, _, _, parent) in enumerate(self.spans):
            inside[i] = span_name == ancestor or (parent >= 0 and inside[parent])
            if span_name == name and parent >= 0 and inside[parent]:
                count += 1
        return count

    def dump(self, path, label):
        """Write the spans once, under ``label`` (the workload name)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"workload": label, "names": names,
                   "columns": ["name", "start", "end", "parent"],
                   "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
        with open(path, "w") as fh:
            json.dump(payload, fh)
