"""Pipeline driver: train or load a surrogate, assemble the campaign MILP,
solve it, compare against the nonlinear sizing oracle, and report.

Single runs emit a text/json/csv report; `--trials N` runs a seed study
(seeds base..base+N-1) and reports per-trial rows plus mean/median gap.
Exit codes: 0 solved to optimality, 1 any stage failure, 2 scenario file
not found.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .formulation import assemble, solution_flows
from .milp_ir import Solution
from .scenario import Scenario, ScenarioError, load_scenario
from .solver import BnbConfig, solve_milp
from .spacecraft import OracleResult, SizingParams, generate_dataset, \
    solve_exact_oracle, surrogate_target
from .surrogate import LinearSurrogate, ReluNetwork, TrainConfig, \
    TrainingDivergence, _r_squared, fit_linear_regression, forward, \
    load_surrogate, train_relu_network

# held-out fit below this is treated as a poorly trained instance in studies
R2_EXCLUSION = 0.98


@dataclass
class RunReport:
    scenario: str
    surrogate_kind: str
    surrogate_seed: int | None
    test_r2: float
    solution: Solution
    oracle: OracleResult | None
    gap_pct: float | None
    flows: list[dict]
    design: dict

    def to_dict(self) -> dict:
        obj = self.solution.objective
        return {
            "scenario": self.scenario,
            "surrogate": {
                "kind": self.surrogate_kind,
                "seed": self.surrogate_seed,
                "test_r2": _num(self.test_r2),
            },
            "milp": {
                "objective_kg": _num(obj),
                "status": self.solution.status,
                "nodes": self.solution.nodes,
                "seconds": round(self.solution.seconds, 6),
            },
            "oracle": None if self.oracle is None else {
                "imleo_kg": self.oracle.imleo,
                "m_d": self.oracle.m_d,
                "m_p": self.oracle.m_p,
                "m_f": self.oracle.m_f,
            },
            "gap_pct": _num(self.gap_pct),
            "flows": self.flows,
        }


@dataclass
class SeedStudySummary:
    trials: int
    rows: list[dict]           # seed, test_r2, objective_kg, gap_pct, status
    mean_gap: float | None
    median_gap: float | None
    failures: int              # non-convergent trainings
    excluded_low_r2: list[int]  # seeds dropped from the statistics


def _num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leolift",
        description="Optimize a space-logistics campaign with a "
                    "surrogate-sized vehicle on a time-expanded network.")
    p.add_argument("--scenario", default="lunar_campaign.json",
                   help="scenario JSON; a bare name is looked up in the "
                        "bundled data directory")
    p.add_argument("--surrogate", choices=["nn", "linreg"], default="nn")
    p.add_argument("--model", help="load a serialized surrogate instead of training")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1,
                   help="run a seed study with seeds seed..seed+N-1")
    p.add_argument("--export-mps", metavar="PATH",
                   help="write the assembled model in MPS format")
    p.add_argument("--report", choices=["text", "json", "csv"], default="text")
    p.add_argument("--train-range", default="0:50000:1000", metavar="LO:HI:STEP",
                   help="fuel-capacity grid for surrogate training data")
    p.add_argument("--no-clamp", action="store_true",
                   help="drop the output clamp stage from the NN embedding")
    p.add_argument("--time-limit", type=float, default=math.inf, metavar="SECS")
    return p


def _resolve_scenario(path: str) -> str | None:
    """Literal path first, then the bundled data directory."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        pass
    ref = resources.files("leolift").joinpath("data", path)
    if ref.is_file():
        return ref.read_text()
    return None


def _parse_train_range(spec: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--train-range must be LO:HI:STEP, got {spec!r}")
    lo, hi, step = (float(v) for v in parts)
    if not (lo < hi and step > 0):
        raise ValueError(f"--train-range needs lo < hi and step > 0, got {spec!r}")
    return lo, hi, step


def _params_for(scenario: Scenario) -> SizingParams:
    if not scenario.vehicles:
        raise ScenarioError(f"scenario {scenario.name!r} has no vehicles; "
                            "the surrogate sizes a vehicle, so at least one is needed")
    v = scenario.vehicles[0]
    return SizingParams(alpha=v.alpha, isp=v.isp, burn_time=v.burn_time,
                        m_ub=v.m_ub)


def _prepare_surrogate(args, params: SizingParams, seed: int):
    """Returns (closure object, kind, seed-or-None, test_r2)."""
    target = lambda v: surrogate_target(params, v)
    if args.model:
        sur = load_surrogate(args.model)
        if isinstance(sur, ReluNetwork):
            if args.no_clamp:
                sur.clamp_output = False
            return sur, "nn", sur.seed, sur.test_r2
        return sur, "linreg", None, _holdout_r2(sur, target, seed,
                                                (0.0, 50000.0))
    lo, hi, step = _parse_train_range(args.train_range)
    data = generate_dataset(params, lo, hi, step)
    if args.surrogate == "linreg":
        sur = fit_linear_regression(data)
        return sur, "linreg", None, _holdout_r2(sur, target, seed, (lo, hi))
    net = train_relu_network(data, TrainConfig(seed=seed), target_fn=target)
    if args.no_clamp:
        net.clamp_output = False
    return net, "nn", seed, net.test_r2


def _holdout_r2(sur, target, seed: int, box: tuple[float, float]) -> float:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(box[0], box[1], 100)
    truth = np.array([target(v) for v in xs])
    if isinstance(sur, LinearSurrogate):
        pred = xs * float(sur.beta[0]) + sur.intercept
    else:
        pred = forward(sur, xs)
    return _r_squared(pred, truth)


def _oracle_for(scenario: Scenario, params: SizingParams) -> OracleResult | None:
    """Fixed-point reference, valid only for a single vehicle flying a
    single delivery chain; None when the scenario is out of that scope."""
    if len(scenario.vehicles) != 1:
        return None
    sinks = [d for d in scenario.demands if d.amount < 0]
    if len(sinks) != 1:
        return None
    payload = -sinks[0].amount
    if not math.isfinite(payload):
        return None
    delta_vs = [a.delta_v for a in scenario.arcs if not a.is_launch]
    return solve_exact_oracle(params, payload, delta_vs)


def run_pipeline(args, seed: int | None = None) -> RunReport:
    text = _resolve_scenario(args.scenario)
    if text is None:
        raise FileNotFoundError(f"scenario not found: {args.scenario}")
    scenario = load_scenario(text)
    params = _params_for(scenario)
    seed = args.seed if seed is None else seed
    closure, kind, used_seed, test_r2 = _prepare_surrogate(args, params, seed)

    model, fv = assemble(scenario, closure)
    if args.export_mps:
        model.export_mps(args.export_mps)
    sol = solve_milp(model, BnbConfig(time_limit=args.time_limit))

    oracle = _oracle_for(scenario, params)
    gap = None
    if oracle is not None and sol.status == "optimal" and oracle.imleo > 0:
        gap = 100.0 * abs(sol.objective - oracle.imleo) / oracle.imleo

    flows = solution_flows(fv, sol) if sol.status == "optimal" else []
    design = {}
    if sol.status == "optimal":
        for (vid, which), var in fv.design.items():
            if which in ("m_d", "m_p", "m_f"):
                design[f"{which}[{vid}]"] = float(sol.values[var])
    return RunReport(scenario.name, kind, used_seed, test_r2, sol, oracle,
                     gap, flows, design)


def run_seed_study(args) -> SeedStudySummary:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rows = []
    failures = 0
    excluded = []
    eligible_gaps = []
    for seed in range(args.seed, args.seed + args.trials):
        try:
            rep = run_pipeline(args, seed=seed)
        except TrainingDivergence:
            failures += 1
            rows.append({"seed": seed, "test_r2": None, "objective_kg": None,
                         "gap_pct": None, "status": "train-failed"})
            continue
        rows.append({"seed": seed, "test_r2": _num(rep.test_r2),
                     "objective_kg": _num(rep.solution.objective),
                     "gap_pct": _num(rep.gap_pct),
                     "status": rep.solution.status})
        if rep.gap_pct is None:
            continue
        if not math.isnan(rep.test_r2) and rep.test_r2 < R2_EXCLUSION:
            excluded.append(seed)
        else:
            eligible_gaps.append(rep.gap_pct)
    mean_gap = statistics.mean(eligible_gaps) if eligible_gaps else None
    median_gap = statistics.median(eligible_gaps) if eligible_gaps else None
    return SeedStudySummary(args.trials, rows, mean_gap, median_gap,
                            failures, excluded)


# -- rendering ---------------------------------------------------------------

def _render_report(rep: RunReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rep.to_dict(), indent=2)
    if fmt == "csv":
        lines = ["seed,test_r2,objective_kg,gap_pct,status"]
        lines.append(_csv_row({"seed": rep.surrogate_seed, "test_r2": rep.test_r2,
                               "objective_kg": rep.solution.objective,
                               "gap_pct": rep.gap_pct,
                               "status": rep.solution.status}))
        return "\n".join(lines)
    sol = rep.solution
    out = [f"scenario      {rep.scenario}",
           f"surrogate     {rep.surrogate_kind}"
           + (f" (seed {rep.surrogate_seed})" if rep.surrogate_seed is not None else ""),
           f"test R^2      {rep.test_r2:.6f}" if math.isfinite(rep.test_r2)
           else "test R^2      n/a",
           f"status        {sol.status}",
           f"objective     {sol.objective:.3f} kg" if math.isfinite(sol.objective)
           else "objective     n/a",
           f"nodes         {sol.nodes}",
           f"seconds       {sol.seconds:.3f}"]
    for name, val in sorted(rep.design.items()):
        out.append(f"design        {name} = {val:.3f} kg")
    if rep.oracle is not None:
        o = rep.oracle
        out.append(f"oracle        imleo={o.imleo:.3f} m_d={o.m_d:.3f} "
                   f"m_p={o.m_p:.3f} m_f={o.m_f:.3f}")
    if rep.gap_pct is not None:
        out.append(f"gap           {rep.gap_pct:.4f} %")
    if rep.flows:
        out.append("flows (departures, kg):")
        for f in rep.flows:
            out.append(f"  t={f['depart']} {f['from']}->{f['to']} "
                       f"[{f['vehicle']}] {f['commodity']}: {f['amount_kg']:.3f}")
    return "\n".join(out)


def _csv_row(row: dict) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return "" if not math.isfinite(v) else repr(v)
        return str(v)
    return ",".join(cell(row[k]) for k in
                    ("seed", "test_r2", "objective_kg", "gap_pct", "status"))


def _render_study(summary: SeedStudySummary, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({
            "trials": summary.trials,
            "rows": summary.rows,
            "mean_gap_pct": _num(summary.mean_gap),
            "median_gap_pct": _num(summary.median_gap),
            "failures": summary.failures,
            "excluded_low_r2": summary.excluded_low_r2,
        }, indent=2)
    lines = ["seed,test_r2,objective_kg,gap_pct,status"]
    lines += [_csv_row(r) for r in summary.rows]
    if fmt == "csv":
        return "\n".join(lines)
    lines.append("")
    lines.append(f"trials        {summary.trials}")
    lines.append(f"failures      {summary.failures}")
    lines.append(f"excluded R^2  {summary.excluded_low_r2}")
    if summary.mean_gap is not None:
        lines.append(f"mean gap      {summary.mean_gap:.4f} %")
        lines.append(f"median gap    {summary.median_gap:.4f} %")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.trials > 1:
            summary = run_seed_study(args)
            print(_render_study(summary, args.report))
            solved = any(r["status"] == "optimal" for r in summary.rows)
            return 0 if solved else 1
        rep = run_pipeline(args)
        print(_render_report(rep, args.report))
        return 0 if rep.solution.status == "optimal" else 1
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ScenarioError, ValueError, TrainingDivergence, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
