"""Per-layer metrics from a trace report, and the zero-call predictions.

Layer names are the dimer_nm modules. The end-to-end metric each layer
metric should move, and the workload where it is heavy or bypassed, are
tabled in README.md; PREDICTED_ZERO is the checked part of that table.
Work counters (steps, flops, grid points, superoperator dimension) are
computed from call arguments and results, not measured.
"""

PREDICTED_ZERO = {
    "memory_sweep": ("kernels.", "dynamics.steady_state",
                     "entanglement.reduce_to_dimer", "entanglement.log_negativity"),
    "traces": ("nonmarkov.", "kernels."),
    "full_model": ("nonmarkov.",),
}


def _matches(name, pattern):
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


def zero_calls(report, workload):
    """Wrapped functions with no calls, and how each prediction fared."""
    stats = report["stats"]
    zero = sorted(n for n, st in stats.items() if st["calls"] == 0)
    checks = {}
    for pattern in PREDICTED_ZERO[workload]:
        names = [n for n in stats if _matches(n, pattern)]
        called = [n for n in names if stats[n]["calls"]]
        checks[pattern] = ("missing" if not names
                           else "holds" if not called else "called: " + ",".join(called))
    return zero, checks


def layer_metrics(report, traced_wall, untraced_wall):
    """Return (metrics, names of spans the metrics need but nothing wrapped)."""
    stats, counts = report["stats"], report["counts"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "busy_s": 0.0}
    m, missing = {}, []

    def span(name, *keys):
        if name not in stats:
            missing.append(name)
        st = stats.get(name, zero)
        for key in keys:
            m[f"{name}.{key}"] = st[key]
        return st

    def ratio(a, b):
        return a / b if b else 0.0

    nm = span("nonmarkov.nm_measure", "calls", "s", "self_s")
    points = counts.get("nonmarkov.grid_points", 0)
    m["nonmarkov.nm_measure.grid_points"] = points
    m["nonmarkov.nm_measure.skipped_frac"] = ratio(
        counts.get("nonmarkov.skipped_points", 0), points)
    m["nonmarkov.nm_measure.us_per_point"] = 1e6 * ratio(nm["s"], points)
    span("nonmarkov.map_tomography", "calls", "s", "self_s")
    for fn in ("condition_number", "solve_linear", "trace_norm"):
        span(f"opalg.{fn}", "calls", "s")

    run = span("harness.run_experiment", "s", "self_s")
    span("harness.write_outputs", "s")
    m["harness.csv_bytes"] = counts.get("harness.csv_bytes", 0)
    span("harness.model_for", "calls")
    m["harness.concurrency"] = ratio(run["busy_s"], run["s"])

    span("dynamics.steady_state", "calls", "s", "self_s")
    span("dynamics.liouvillian_matrix", "calls", "s")
    m["dynamics.liouvillian_matrix.superop_dim_max"] = counts.get(
        "dynamics.superop_dim_max", 0)

    rk4 = span("kernels.rk4_lindblad_steps", "calls", "s")
    steps = counts.get("kernels.steps", 0)
    gflop = counts.get("kernels.flop", 0) / 1e9
    m["kernels.rk4_lindblad_steps.steps"] = steps
    m["kernels.rk4_lindblad_steps.steps_per_s"] = ratio(steps, rk4["s"])
    m["kernels.rk4_lindblad_steps.gflop_computed"] = gflop
    m["kernels.rk4_lindblad_steps.gflop_per_s"] = ratio(gflop, rk4["s"])

    span("dynamics.integrate", "calls", "s", "self_s")
    for key in ("steps", "stored_states", "direct_calls"):
        m[f"dynamics.integrate.{key}"] = counts.get(f"dynamics.{key}", 0)
    span("dynamics.rk4_transfer_matrix", "s")

    for fn in ("reduce_to_dimer", "log_negativity"):
        span(f"entanglement.{fn}", "calls", "s")

    builds = [st for name, st in stats.items() if name.startswith("model.build_")]
    if not builds:
        missing.append("model.build_*")
    m["model.build.calls"] = sum(st["calls"] for st in builds)
    m["model.build.s"] = sum(st["s"] for st in builds)

    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.coverage"] = ratio(report["top_s"], traced_wall)
    return m, missing
