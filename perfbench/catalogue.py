"""Every metric the benchmark reports: name, unit, and what it should move.

End-to-end metrics are measured with tracing off. Per-layer metrics come from
traced passes and are totals over one pass unless the note says otherwise;
`moves` names the end-to-end metric, and the workload, that a change in the
layer metric should move. BENCHMARK.json lists the same names and units and
adds the regression bound of each end-to-end metric.
"""

END_TO_END = [
    ("setup_s", "s", "import of leolift plus one warm-up solve of the bundled "
                     "campaign, median of fresh interpreters started before "
                     "and after the passes"),
    ("wall_s", "s", "one full pass over the workload, the fastest pass"),
    ("instance_s.p50", "s", "time to a proven optimum per instance (its "
                            "fastest solve), median over instances (the "
                            "lower middle one)"),
    ("instance_s.tail", "s", "highest percentile with 10 instances beyond it; "
                             "the maximum below 11 instances"),
    ("gap_median_pct", "%", "median oracle gap (nn-study: the study's own, "
                            "after its R^2 exclusion)"),
    ("gap_mean_pct", "%", "mean oracle gap, same instances as the median"),
    ("peak_rss_mb", "MB", "peak resident memory of the benchmark process"),
]

LAYER = [
    ("solver.milp_s", "s", "wall_s on ladder-linreg and nn-study"),
    ("solver.nodes", "count", "wall_s on ladder-linreg and nn-study"),
    ("solver.s_per_node", "s", "wall_s on ladder-linreg and nn-study"),
    ("solver.iterations", "count", "wall_s on ladder-linreg and nn-study; "
                                   "undercounts pivots lost to a restart"),
    ("solver.s_per_iter", "s", "wall_s on ladder-linreg and nn-study; "
                               "inflated by pivots lost to a restart"),
    ("solver.s_per_iter_max", "s", "wall_s on nn-study: the worst instance, "
                                   "training seed 12, whose restarts hide "
                                   "about 99% of its pivots"),
    ("solver.root_lp_s", "s", "wall_s on ladder-linreg, through its H40/W2 "
                              "rung (cold two-phase primal through solve_lp, "
                              "outside the pipeline)"),
    ("solver.root_lp_iters", "count", "wall_s on ladder-linreg (H40/W2)"),
    ("solver.root_lp_failed", "count", "nothing end to end: root LPs that "
                                       "solve_lp gets wrong (nn-study training "
                                       "seed 5 reads infeasible)"),
    ("surrogate.train_s", "s", "wall_s and gap_* on nn-study only "
                               "(train_relu_network; fit_linear_regression "
                               "on the linreg workloads, no change predicted)"),
    ("surrogate.test_r2_min", "1", "gap_* on nn-study only"),
    ("formulation.assemble_s", "s", "wall_s on ladder-linreg (H40/W2) only "
                                    "(includes scenario.expand_s)"),
    ("formulation.vars", "count", "solver.nodes, then wall_s, on nn-study"),
    ("formulation.rows", "count", "solver.nodes, then wall_s, on nn-study"),
    ("formulation.integers", "count", "solver.nodes, then wall_s, on nn-study"),
    ("milp_ir.stdform_s", "s", "nothing end to end: only the root-LP "
                               "probe calls to_standard_form"),
    ("milp_ir.evaluate_s", "s", "nothing end to end: only the correctness "
                                "check calls evaluate"),
    ("milp_ir.export_mps_s", "s", "wall_s on ladder-linreg (H40/W2); 0 on "
                                  "nn-study, where nothing is exported"),
    ("milp_ir.mps_bytes", "B", "milp_ir.export_mps_s on ladder-linreg"),
    ("scenario.load_s", "s", "no end-to-end change (under 1 ms)"),
    ("scenario.expand_s", "s", "no end-to-end change (under 1 ms)"),
    ("scenario.arcs", "count", "formulation.vars on every workload"),
    ("spacecraft.dataset_s", "s", "wall_s, slightly, on every workload"),
    ("spacecraft.oracle_s", "s", "wall_s, slightly, on every workload"),
    ("cli.overhead_s", "s", "wall_s: instance time minus the layer spans"),
    ("highs.milp_s", "s", "nothing: HiGHS reference time on the same models"),
    ("highs.ratio", "1", "solver.milp_s over highs.milp_s; ROADMAP target "
                         "is at most 10"),
    ("trace.overhead_pct", "%", "nothing: traced over untraced pass time"),
]


def unit(name: str) -> str:
    for entries in (END_TO_END, LAYER):
        for n, u, _ in entries:
            if n == name:
                return u
    raise KeyError(name)
