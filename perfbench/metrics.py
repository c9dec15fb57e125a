"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; selftest.py
checks that the two agree.
"""

# End-to-end metrics of an untraced run: (name, unit, better).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("op_max_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Correctness metrics, printed on every run but kept out of BENCHMARK.json:
# both read exactly 0 on a correct program, so a relative bound on them is
# undefined. A nonzero value sets "correct" to false and the exit code to 2.
CORRECTNESS = (
    ("fail_frac", "1", "lower"),
    ("bound_deficit_bits", "bits", "lower"),
)

_POLISH = (
    ("simplex.polish.s", "s", "lower"),
    ("simplex.polish.calls", "count", "lower"),
    ("simplex.polish.evals", "count", "lower"),
    ("simplex.polish.gain_bits", "bits", "higher"),
    ("simplex.polish.useful_frac", "1", "higher"),
    ("simplex.scan.s", "s", "lower"),
    ("simplex.scan.evals", "count", "lower"),
    ("simplex.candidates.points", "count", "lower"),
)

_BOUNDS = tuple(
    ("bounds.%s.s" % fam, "s", "lower")
    for fam in ("best_bounds", "prelim", "intermediate", "improved", "switched",
                "conditional", "cmss")
) + (
    ("bounds.switched.self_s", "s", "lower"),
    ("bounds.conditional.self_s", "s", "lower"),
)

_KERNELS = (
    ("bounds.kernel.pair.calls", "count", "lower"),
    ("bounds.kernel.pair.cells", "count", "lower"),
    ("bounds.kernel.pair.cells_per_call", "count", "higher"),
    ("bounds.kernel.pair.bytes_computed", "B", "lower"),
    ("bounds.kernel.pair.s", "s", "lower"),
    ("bounds.kernel.joint.calls", "count", "lower"),
    ("bounds.kernel.joint.rows", "count", "lower"),
    ("bounds.kernel.joint.s", "s", "lower"),
    ("bounds.kernel.cone.calls", "count", "lower"),
    ("bounds.kernel.cone.rows", "count", "lower"),
    ("bounds.kernel.cone.s", "s", "lower"),
)

_PROTOCOLS = (
    ("protocols.run_exact.s", "s", "lower"),
    ("protocols.run_exact.branches", "count", "lower"),
    ("protocols.joint.cells", "count", "lower"),
    ("protocols.joint.support", "count", "lower"),
    ("protocols.joint.support_frac", "1", "higher"),
    ("protocols.verify.s", "s", "lower"),
    ("protocols.expected_lengths.s", "s", "lower"),
    ("protocols.spec_to_json.s", "s", "lower"),
    ("protocols.spec_from_json.s", "s", "lower"),
)

_OTHER = (
    ("dists.marginal.calls", "count", "lower"),
    ("dists.marginal.cells_read", "count", "lower"),
    ("dists.marginal.s", "s", "lower"),
    ("normal_form.s", "s", "lower"),
    ("normal_form.calls", "count", "lower"),
    ("common_info.residual_info.s", "s", "lower"),
    ("common_info.residual_info.calls", "count", "lower"),
    ("cmss.separation_report.s", "s", "lower"),
    ("cmss.cmss_joint.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)

# Per-layer metrics of a traced run.
PER_LAYER = _POLISH + _BOUNDS + _KERNELS + _PROTOCOLS + _OTHER

UNITS = {name: unit for name, unit, _ in END_TO_END + CORRECTNESS + PER_LAYER}
