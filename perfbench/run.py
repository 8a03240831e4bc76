#!/usr/bin/env python3
"""Campaign benchmark for leolift: a single-process, closed-loop batch runner.

One caller runs the instances of a workload back to back through the
pipeline a user runs (`leolift.cli.run_pipeline`, or `run_seed_study` for the
NN study) on scenario files written by `generate.py`. A pass is one run over
every instance of the workload; whole passes repeat until `--seconds` have
elapsed, so a pass longer than that is measured once. Every instance but
the slowest is then re-solved on its own, for a quarter of `--seconds` and
until each has three solves. The program is
deterministic and single-threaded, and the host it shares swings its speed by
a quarter for tens of seconds at a time, so an instance's time is its fastest
solve and `wall_s` the fastest pass. Every solve is checked outside the timed
region: status optimal, objective equal to HiGHS on the same assembled model
to 1e-6 relative, and rows, bounds and integrality holding on the returned
values.

    python3 perfbench/run.py --workload ladder-linreg --seed 0 --seconds 25 --trace 0

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`,
untraced and traced passes alternate; the traced ones give the per-layer
metrics, their difference gives the tracing overhead, and the spans are
written to `perfbench/out/`. Every metric is printed by name with its unit;
the last line of standard output is one JSON object. The exit code is 1 when
any check fails and 2 when the program cannot be found.
"""

import os

# the solver's path depends on the BLAS thread count, so pin it before
# numpy loads, here and in the set-up subprocesses that inherit it
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3  # fresh interpreters before and again after the passes
ROUND_SHARE = 0.25  # re-solve for at least this share of --seconds
MIN_SOLVES = 3      # and until each instance has this many solves
REL_TOL = 1e-6   # objective agreement with HiGHS
FEAS_TOL = 1e-6  # rows, bounds and integrality of the returned values
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def fail_setup(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def require_program():
    """Put the checkout's own `src` first on the path; never fall back to an
    installed copy of leolift."""
    if not (SRC / "leolift" / "__init__.py").is_file():
        fail_setup(f"leolift sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(warmup_path: str):
    """One set-up sample, run in a fresh interpreter: import plus one solve."""
    t0 = time.perf_counter()
    from leolift.cli import build_parser, run_pipeline
    args = build_parser().parse_args(["--scenario", warmup_path,
                                      "--surrogate", "linreg"])
    status = run_pipeline(args, seed=0).solution.status
    print(json.dumps({"seconds": time.perf_counter() - t0, "status": status}))


def measure_setup() -> list[float]:
    warmup = generate.warmup_scenario(OUT)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", warmup],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail_setup(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["status"] != "optimal":
            fail_setup(f"warm-up solve ended {probe['status']}")
        samples.append(probe["seconds"])
    return samples


# -- one pass ----------------------------------------------------------------

class Pass:
    """Instances of one pass: time, captured model and solution, report."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.instances: list[dict] = []
        self.current: dict | None = None
        self.wall = 0.0
        self.study = None

    def timed_pipeline(self, run_pipeline):
        def timed(args, seed=None):
            rec = {"label": f"seed {seed}", "model": None, "solution": None,
                   "report": None, "error": None}
            self.current = rec
            span = None
            if self.recorder is not None:
                span = self.recorder.open("cli.run_pipeline")
                rec["trace_id"] = span["instance"] = span["id"]
                self.recorder.instance = span["id"]
            t0 = time.perf_counter()
            try:
                rec["report"] = run_pipeline(args, seed)
                return rec["report"]
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec["seconds"] = time.perf_counter() - t0
                if span is not None:
                    self.recorder.close(span)
                self.instances.append(rec)
        return timed

    def capturing_solver(self, solve_milp):
        def captured(model, cfg=None, node_log=None):
            sol = solve_milp(model, cfg, node_log)
            self.current["model"], self.current["solution"] = model, sol
            return sol
        return captured


def study_argv(manifest: dict) -> list[str]:
    st = manifest["study"]
    return ["--scenario", st["scenario"], "--surrogate", manifest["surrogate"],
            "--seed", str(st["first_seed"]), "--trials", str(st["trials"])]


def instance_specs(manifest: dict) -> list[tuple[str, list[str], int]]:
    """(label, CLI arguments, pipeline seed) of every instance of a pass; a
    study trial is the `run_pipeline` call the study makes for its seed."""
    if "study" in manifest:
        st = manifest["study"]
        argv = study_argv(manifest)
        return [(f"seed {s}", argv, s)
                for s in range(st["first_seed"], st["first_seed"] + st["trials"])]
    specs = []
    for inst in manifest["instances"]:
        argv = ["--scenario", inst["scenario"], "--surrogate", manifest["surrogate"]]
        if inst["export_mps"]:
            argv += ["--export-mps", inst["export_mps"]]
        specs.append((inst["name"], argv, inst["seed"]))
    return specs


def run_pass(manifest: dict, recorder=None, only=None) -> Pass:
    """One pass over the workload, or, with `only`, over those instance specs
    alone (a re-solve round, which runs no study)."""
    from leolift import cli
    p = Pass(recorder)
    patches = [(cli, "run_pipeline", p.timed_pipeline(cli.run_pipeline)),
               (cli, "solve_milp", p.capturing_solver(cli.solve_milp))]
    with tracing.patched(patches), \
            tracing.patched(tracing.layer_patches(recorder) if recorder else []):
        t0 = time.perf_counter()
        if "study" in manifest and only is None:
            p.study = cli.run_seed_study(
                cli.build_parser().parse_args(study_argv(manifest)))
        else:
            for label, argv, seed in instance_specs(manifest) if only is None \
                    else only:
                try:
                    cli.run_pipeline(cli.build_parser().parse_args(argv), seed=seed)
                except Exception:  # recorded on the instance, checked below
                    pass
                p.instances[-1]["label"] = label
        p.wall = time.perf_counter() - t0
    return p


def solve_times(passes: list[Pass]) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for p in passes:
        for rec in p.instances:
            times.setdefault(rec["label"], []).append(rec["seconds"])
    return times


def resolve_due(manifest: dict, passes: list[Pass], rounds: list[Pass],
                seconds: float) -> list:
    """Specs a further re-solve round should run. Rounds skip the slowest
    instance (nn-study's training seed 12 alone takes most of its pass) and
    re-solve the others while the rounds so far took under ROUND_SHARE of
    `seconds`, then those with fewer than MIN_SOLVES solves."""
    times = solve_times(passes + rounds)
    specs = instance_specs(manifest)
    slowest = max(specs, key=lambda spec: min(times[spec[0]]))
    others = [spec for spec in specs if spec is not slowest]
    if sum(r.wall for r in rounds) < ROUND_SHARE * seconds:
        return others
    return [spec for spec in others if len(times[spec[0]]) < MIN_SOLVES]


# -- correctness -------------------------------------------------------------

def highs_solve(model):
    """Reference objective from HiGHS on the same assembled model."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    n, m = model.num_variables(), model.num_constraints()
    rows, cols, vals = [], [], []
    lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
    for i, con in enumerate(model.constraints):
        for v, coeff in con.terms:
            rows.append(i)
            cols.append(v)
            vals.append(coeff)
        if con.sense in ("<=", "="):
            hi[i] = con.rhs
        if con.sense in (">=", "="):
            lo[i] = con.rhs
    c = np.zeros(n)
    for v, coeff in model.objective.items():
        c[v] = coeff
    A = csr_array((vals, (rows, cols)), shape=(m, n))
    t0 = time.perf_counter()
    res = milp(c, constraints=LinearConstraint(A, lo, hi),
               integrality=np.array([v.kind != "continuous" for v in model.variables],
                                    dtype=int),
               bounds=Bounds([v.lower for v in model.variables],
                             [v.upper for v in model.variables]),
               options={"mip_rel_gap": 1e-9})
    return res, time.perf_counter() - t0


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def traced_span(recorder, name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def check_instance(rec: dict, recorder=None) -> list[str]:
    """Problems with one instance's answer; empty when it is correct."""
    import numpy as np
    if rec["error"]:
        return [rec["error"]]
    sol, model = rec["solution"], rec["model"]
    if sol is None:
        return ["no solve recorded"]
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    problems = []
    x = np.asarray(sol.values, dtype=float)
    with traced_span(recorder, "milp_ir.evaluate"):
        violations = model.evaluate(x, tol=FEAS_TOL)
    if violations:
        worst = max(violations, key=lambda v: v.amount)
        problems.append(f"{len(violations)} rows violated, worst {worst.tag} "
                        f"by {worst.amount:.3g}")
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    if np.any(x < lower - FEAS_TOL) or np.any(x > upper + FEAS_TOL):
        problems.append("bounds violated")
    ints = np.array([v.kind != "continuous" for v in model.variables], dtype=bool)
    if np.any(np.abs(x[ints] - np.round(x[ints])) > FEAS_TOL):
        problems.append("integrality violated")
    if rel_diff(model.objective_value(x), sol.objective) > REL_TOL:
        problems.append("reported objective differs from the values' objective")

    with traced_span(recorder, "highs.milp"):
        res, highs_s = highs_solve(model)
    rec["highs_s"] = highs_s
    rec["highs_obj"] = res.fun if res.status == 0 else math.nan
    if res.status != 0:
        problems.append(f"HiGHS status {res.status}: {res.message}")
    elif rel_diff(sol.objective, res.fun) > REL_TOL:
        problems.append(f"objective {sol.objective:.9g} vs HiGHS {res.fun:.9g}")
    return problems


def root_lp_probe(rec: dict, recorder) -> str | None:
    """Root relaxation through the public `solve_lp`, in traced passes only.

    This measures the LP layer outside the pipeline, so a wrong answer here
    is counted in `solver.root_lp_failed` and printed, not charged to the
    instance, whose own answer is checked against HiGHS."""
    from leolift.solver import solve_lp
    with recorder.span("milp_ir.stdform"):
        sf = rec["model"].to_standard_form()
    span = recorder.open("solver.root_lp")
    lp = solve_lp(sf)
    recorder.close(span, {"iterations": lp.iterations})
    if lp.status != "optimal":
        return f"solve_lp reports the root LP {lp.status}"
    if lp.objective > rec["solution"].objective + REL_TOL * max(
            1.0, abs(rec["solution"].objective)):
        return "solve_lp's root LP bound lies above the MILP optimum"
    return None


def check_study(p: Pass) -> list[str]:
    """The study's gap statistics agree with its own trials."""
    from leolift.cli import R2_EXCLUSION
    gaps = [r["report"].gap_pct for r in p.instances
            if r["report"] is not None and r["report"].gap_pct is not None
            and not (r["report"].test_r2 < R2_EXCLUSION)]
    if not gaps or p.study.median_gap is None:
        return ["study has no eligible gaps"]
    if (rel_diff(statistics.median(gaps), p.study.median_gap) > 1e-12
            or rel_diff(statistics.mean(gaps), p.study.mean_gap) > 1e-12):
        return ["study gap statistics disagree with its trials"]
    if len(p.instances) != p.study.trials:
        return [f"{len(p.instances)} trials ran, {p.study.trials} expected"]
    return []


def check_pass(p: Pass, recorder=None) -> list[str]:
    failures = []
    for k, rec in enumerate(p.instances):
        if recorder is not None:
            recorder.instance = rec["trace_id"]
        problems = check_instance(rec, recorder)
        if recorder is not None and not problems:
            rec["root_lp_problem"] = root_lp_probe(rec, recorder)
        rec["problems"] = problems
        failures += [f"instance {k} ({rec['label']}): {msg}" for msg in problems]
    if p.study is not None:
        failures += check_study(p)
    return failures


# -- metrics -----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples for one."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(passes: list[Pass], rounds: list[Pass],
               setup: list[float]) -> tuple[dict, dict]:
    solves = solve_times(passes + rounds)
    times = [min(t) for t in solves.values()]
    tail_value, tail_pct = tail(times)
    if passes[0].study is not None:
        gap_median = statistics.median(p.study.median_gap for p in passes)
        gap_mean = statistics.median(p.study.mean_gap for p in passes)
    else:
        gaps = [r["report"].gap_pct for p in passes for r in p.instances
                if r["report"] is not None and r["report"].gap_pct is not None]
        gap_median = statistics.median(gaps) if gaps else math.nan
        gap_mean = statistics.mean(gaps) if gaps else math.nan
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": min(p.wall for p in passes),
        "instance_s.p50": statistics.median_low(times),
        "instance_s.tail": tail_value,
        "gap_median_pct": gap_median,
        "gap_mean_pct": gap_mean,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    context = {"instances": len(times), "passes": len(passes),
               "rounds": len(rounds),
               "solves": sorted({len(t) for t in solves.values()}),
               "tail_percentile": tail_pct}
    return values, context


def layer_values(p: Pass, spans: list[dict], manifest: dict) -> dict:
    """Per-layer totals over one traced pass."""
    by_name: dict[str, float] = {}
    counts: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + d
        for key, val in s.get("counts", {}).items():
            ckey = f"{s['name']}.{key}"
            counts[ckey] = counts.get(ckey, 0) + val
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + d
    overhead = sum((s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
                   for s in spans if s["name"] == "cli.run_pipeline")
    milp_s = by_name.get("solver.milp", 0.0)
    highs_s = sum(r.get("highs_s", 0.0) for r in p.instances)
    nodes = counts.get("solver.milp.nodes", 0)
    iters = counts.get("solver.milp.iterations", 0)
    per_iter = [(s["end"] - s["start"]) / s["counts"]["iterations"]
                for s in spans if s["name"] == "solver.milp"
                and s.get("counts", {}).get("iterations")]
    return {
        "solver.milp_s": milp_s,
        "solver.nodes": nodes,
        "solver.s_per_node": milp_s / nodes if nodes else math.nan,
        "solver.iterations": iters,
        "solver.s_per_iter": milp_s / iters if iters else math.nan,
        "solver.s_per_iter_max": max(per_iter) if per_iter else math.nan,
        "solver.root_lp_s": by_name.get("solver.root_lp", 0.0),
        "solver.root_lp_iters": counts.get("solver.root_lp.iterations", 0),
        "solver.root_lp_failed": sum(1 for r in p.instances
                                     if r.get("root_lp_problem")),
        "surrogate.train_s": by_name.get("surrogate.train", 0.0),
        "surrogate.test_r2_min": min(r["report"].test_r2 for r in p.instances
                                     if r["report"] is not None),
        "formulation.assemble_s": by_name.get("formulation.assemble", 0.0),
        "formulation.vars": counts.get("formulation.assemble.vars", 0),
        "formulation.rows": counts.get("formulation.assemble.rows", 0),
        "formulation.integers": counts.get("formulation.assemble.integers", 0),
        "milp_ir.stdform_s": by_name.get("milp_ir.stdform", 0.0),
        "milp_ir.evaluate_s": by_name.get("milp_ir.evaluate", 0.0),
        "milp_ir.export_mps_s": by_name.get("milp_ir.export_mps", 0.0),
        "milp_ir.mps_bytes": sum(os.path.getsize(inst["export_mps"])
                                 for inst in manifest.get("instances", [])
                                 if inst["export_mps"]),
        "scenario.load_s": by_name.get("scenario.load", 0.0),
        "scenario.expand_s": by_name.get("scenario.expand", 0.0),
        "scenario.arcs": counts.get("scenario.expand.arcs", 0),
        "spacecraft.dataset_s": by_name.get("spacecraft.dataset", 0.0),
        "spacecraft.oracle_s": by_name.get("spacecraft.oracle", 0.0),
        "cli.overhead_s": overhead,
        "highs.milp_s": highs_s,
        "highs.ratio": milp_s / highs_s if highs_s else math.nan,
    }


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole passes until this much pass time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_catalogue():
    """BENCHMARK.json must name the catalogue's metrics with its units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    bench = json.loads(path.read_text())
    for key, entries in (("end_to_end", catalogue.END_TO_END),
                         ("per_layer", catalogue.LAYER)):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        if listed != [(n, u) for n, u, _ in entries]:
            fail_setup(f"BENCHMARK.json {key} disagrees with catalogue.py")


def environment() -> dict:
    import numpy
    import scipy
    import leolift
    if Path(leolift.__file__).resolve().parent != SRC / "leolift":
        fail_setup(f"imported leolift from {leolift.__file__}, not {SRC}")
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def print_metrics(values: dict):
    for name, value in values.items():
        print(f"  {name:24s} {value:14.6g} {catalogue.unit(name)}")


def print_instances(passes: list[Pass]):
    print("instances (first pass): label  seconds  nodes  iters  s/iter  "
          "objective  HiGHS  status")
    for rec in passes[0].instances:
        sol = rec["solution"]
        if sol is None:
            print(f"  {rec['label']}: {rec['error']}")
            continue
        per_iter = sol.seconds / sol.iterations if sol.iterations else math.nan
        print(f"  {rec['label']:>8} {rec['seconds']:8.3f} {sol.nodes:6d} "
              f"{sol.iterations:6d} {per_iter:7.2e} {sol.objective:12.6f} "
              f"{rec.get('highs_obj', math.nan):12.6f} {sol.status}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-probe"]:
        require_program()
        setup_probe(argv[1])
        return 0
    opts = parse_args(argv)
    require_program()
    check_catalogue()
    manifest = json.loads(
        generate.write_inputs(opts.workload, opts.seed, OUT).read_text())
    setup = measure_setup()
    env = environment()

    recorder = tracing.Recorder() if opts.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_runs: list[dict] = []
    failures: list[str] = []
    while True:
        use_trace = recorder is not None and len(traced) < len(plain)
        first_span = len(recorder.spans) if use_trace else 0
        p = run_pass(manifest, recorder if use_trace else None)
        failures += check_pass(p, recorder if use_trace else None)
        for rec in p.instances:
            rec["model"] = None  # checked; keep only what the metrics read
        if use_trace:
            traced.append(p)
            layer_runs.append(layer_values(p, recorder.spans[first_span:], manifest))
        else:
            plain.append(p)
        measured = sum(q.wall for q in plain + traced)
        if measured >= opts.seconds and (recorder is None or use_trace):
            break
    rounds: list[Pass] = []
    while recorder is None:
        due = resolve_due(manifest, plain, rounds, opts.seconds)
        if not due:
            break
        p = run_pass(manifest, only=due)
        failures += check_pass(p)
        for rec in p.instances:
            rec["model"] = None  # checked; keep only what the metrics read
        rounds.append(p)
    setup += measure_setup()

    e2e, ctx = end_to_end(plain, rounds, setup)
    passes = plain + traced + rounds
    attempted = sum(len(p.instances) for p in passes)
    failed = sum(1 for p in passes for r in p.instances if r.get("problems"))
    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"closed loop, 1 client  {ctx['passes']} untraced passes  "
          f"{ctx['rounds']} re-solve rounds  {ctx['instances']} instances, "
          f"each its fastest of {'/'.join(map(str, ctx['solves']))} solves  "
          f"tail = p{ctx['tail_percentile']:.1f}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"failed_frac {failed / attempted:.4f}  ({failed} of {attempted})")
    print("end-to-end (tracing off):")
    print_metrics(e2e)
    metrics = e2e
    if recorder is not None:
        layer = {k: statistics.median(run[k] for run in layer_runs)
                 for k in layer_runs[0]}
        layer["trace.overhead_pct"] = 100.0 * (
            min(p.wall for p in traced) / e2e["wall_s"] - 1.0)
        print(f"per-layer ({len(traced)} traced passes):")
        print_metrics(layer)
        trace_path = OUT / f"trace-{opts.workload}-seed{opts.seed}.jsonl"
        recorder.write(trace_path, {"workload": opts.workload, "seed": opts.seed,
                                    **env})
        print(f"spans written to {trace_path}")
        metrics = layer
    print_instances(passes)
    for rec in traced[0].instances if traced else []:
        if rec.get("root_lp_problem"):
            print(f"root LP probe, {rec['label']}: {rec['root_lp_problem']}")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": catalogue.unit(k)}
                    for k, v in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
