"""Pipeline driver: train or load a surrogate, assemble the campaign MILP,
solve it, compare against the nonlinear sizing oracle, and report.

Single runs emit a text/json/csv report; `--trials N` runs a seed study
(seeds base..base+N-1) and reports per-trial rows plus mean/median gap. An
NN study trains all of its networks in one stacked run first, then solves
one trial per seed; every trial after the first starts its root LP from the
last trial's root basis.
Exit codes: 0 solved to optimality, 1 any stage failure, 2 scenario file
not found.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import statistics
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .formulation import assemble, solution_flows
from .milp_ir import Solution
from .scenario import Scenario, ScenarioError, TimeExpandedNetwork, \
    load_scenario
from .solver import BnbConfig, RootBasis, solve_milp
from .spacecraft import OracleResult, SizingParams, generate_dataset, \
    solve_exact_oracle, surrogate_target
from .surrogate import ReluNetwork, TrainingDivergence, fit_linear_regression, \
    holdout_r2, load_surrogate, train_relu_network, train_relu_networks

# held-out fit below this is treated as a poorly trained instance in studies
R2_EXCLUSION = 0.98


class ScenarioNotFound(FileNotFoundError):
    """The scenario is neither a readable file nor a bundled one (exit 2)."""


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
                "best_bound": _num(self.solution.best_bound),
                "gap": _num(self.solution.gap),
                "nodes": self.solution.nodes,
                "iterations": self.solution.iterations,
                "cuts": self.solution.cuts,
                "seconds": round(self.solution.seconds, 6),
            },
            "oracle": None if self.oracle is None else {
                "imleo_kg": self.oracle.imleo,
                "m_d": self.oracle.m_d,
                "m_p": self.oracle.m_p,
                "m_f": self.oracle.m_f,
            },
            "gap_pct": _num(self.gap_pct),
            "design": self.design,
            "flows": self.flows,
        }


@dataclass
class SeedStudySummary:
    trials: int
    rows: list[dict]           # keyed by CSV_FIELDS
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
    p.add_argument("--time-limit", type=float, default=math.inf, metavar="SECS")
    # no flag: a seed study hands its trials one record of the root basis
    p.set_defaults(root_basis=None)
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
    if not (lo < hi and 0 < step < math.inf and math.isfinite((hi - lo) / step)):
        raise ValueError(f"--train-range needs finite lo < hi and step > 0, and "
                         f"a finite number of grid points, got {spec!r}")
    return lo, hi, step


def _params_for(scenario: Scenario) -> SizingParams:
    if not scenario.vehicles:
        raise ScenarioError(f"scenario {scenario.name!r} has no vehicles; "
                            "the surrogate sizes a vehicle, so at least one is needed")
    params = scenario.vehicles[0].sizing
    if any(v.sizing != params for v in scenario.vehicles[1:]):
        ids = ", ".join(v.id for v in scenario.vehicles)
        raise ScenarioError(f"scenario {scenario.name!r}: vehicles {ids} differ in "
                            "alpha, isp, burn time or m_ub; one surrogate sizes "
                            "every vehicle, so they must share these values")
    return params


def _scenario_and_params(args) -> tuple[Scenario, SizingParams]:
    text = _resolve_scenario(args.scenario)
    if text is None:
        raise ScenarioNotFound(f"scenario not found: {args.scenario}")
    scenario = load_scenario(text)
    return scenario, _params_for(scenario)


def _training_data(args, params: SizingParams):
    """(input box, dataset) of the `--train-range` grid."""
    lo, hi, step = _parse_train_range(args.train_range)
    return (lo, hi), generate_dataset(params, lo, hi, step)


def _prepare_surrogate(args, params: SizingParams, seed: int):
    """Returns (closure object, kind, seed-or-None, test_r2).

    `args.model` is a model file to load or an already trained network,
    which is used as given."""
    target = lambda v: surrogate_target(params, v)
    if args.model:
        sur = (args.model if isinstance(args.model, ReluNetwork)
               else load_surrogate(args.model))
        box = _parse_train_range(args.train_range)[:2]
    else:
        box, data = _training_data(args, params)
        sur = (fit_linear_regression(data) if args.surrogate == "linreg" else
               train_relu_network(data, seed, target_fn=target))
    if isinstance(sur, ReluNetwork):
        return sur, "nn", sur.seed, sur.test_r2
    return sur, "linreg", None, holdout_r2(sur, target, box,
                                           np.random.default_rng(seed))


def _oracle_for(scenario: Scenario, params: SizingParams,
                network: TimeExpandedNetwork) -> OracleResult | None:
    """Fixed-point reference, valid only for a single vehicle flying a
    single delivery chain: the transport arc families left after time
    expansion must form one path from the launch destination to the
    delivery node. None when the scenario is out of that scope."""
    if len(scenario.vehicles) != 1:
        return None
    sinks = [d for d in scenario.demands if d.amount < 0]
    if len(sinks) != 1:
        return None
    payload = -sinks[0].amount
    if not math.isfinite(payload):
        return None
    starts = {a.dst for a in network.arcs if a.kind == "launch"}
    families = {(a.src, a.dst, a.delta_v) for a in network.arcs
                if a.kind == "transport"}
    legs = {src: (dst, dv) for src, dst, dv in families}
    if len(starts) != 1 or len(legs) != len(families):
        return None
    node, delta_vs = starts.pop(), []
    while node in legs:
        node, dv = legs.pop(node)
        delta_vs.append(dv)
    if legs or node != sinks[0].node or not delta_vs:
        return None
    return solve_exact_oracle(params, payload, delta_vs)


def run_pipeline(args, seed: int | None = None) -> RunReport:
    scenario, params = _scenario_and_params(args)
    seed = args.seed if seed is None else seed
    closure, kind, used_seed, test_r2 = _prepare_surrogate(args, params, seed)

    model, fv = assemble(scenario, closure)
    if args.export_mps:
        model.export_mps(args.export_mps)
    sol = solve_milp(model, BnbConfig(time_limit=args.time_limit,
                                      root_basis=args.root_basis))

    oracle = _oracle_for(scenario, params, fv.network)
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
    seeds = range(args.seed, args.seed + args.trials)
    nets = [None] * args.trials
    if args.surrogate == "nn" and not args.model:
        # the trials share their data and differ only in the seed: train
        # every network in one stacked run, and hand each trial its own
        params = _scenario_and_params(args)[1]
        _, data = _training_data(args, params)
        nets = train_relu_networks(data, seeds,
                                   target_fn=lambda v: surrogate_target(params, v))
    rows = []
    failures = 0
    excluded = []
    eligible_gaps = []
    # each trial's root LP starts from the last trial's root basis: the
    # trials' models share every flow row
    root_basis = RootBasis() if args.trials > 1 else None
    for seed, net in zip(seeds, nets):
        if isinstance(net, TrainingDivergence):
            failures += 1
            rows.append({"seed": seed, "test_r2": None, "objective_kg": None,
                         "gap_pct": None, "status": "train-failed"})
            continue
        trial_args = copy.copy(args)
        trial_args.root_basis = root_basis
        if net is not None:
            trial_args.model = net
        rep = run_pipeline(trial_args, seed=seed)
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

# the CSV header, and the keys of each row in that order
CSV_FIELDS = ("seed", "test_r2", "objective_kg", "gap_pct", "status")

def _render_report(rep: RunReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rep.to_dict(), indent=2)
    if fmt == "csv":
        return "\n".join([",".join(CSV_FIELDS), _csv_row({
            "seed": rep.surrogate_seed, "test_r2": rep.test_r2,
            "objective_kg": rep.solution.objective, "gap_pct": rep.gap_pct,
            "status": rep.solution.status})])
    sol = rep.solution
    out = [f"scenario      {rep.scenario}",
           f"surrogate     {rep.surrogate_kind}"
           + (f" (seed {rep.surrogate_seed})" if rep.surrogate_seed is not None else ""),
           f"test R^2      {rep.test_r2:.6f}" if math.isfinite(rep.test_r2)
           else "test R^2      n/a",
           f"status        {sol.status}",
           f"objective     {sol.objective:.3f} kg" if math.isfinite(sol.objective)
           else "objective     n/a",
           f"best bound    {sol.best_bound:.3f} kg" if math.isfinite(sol.best_bound)
           else "best bound    n/a",
           f"bound gap     {sol.gap:.3e}" if math.isfinite(sol.gap)
           else "bound gap     n/a",
           f"nodes         {sol.nodes}",
           f"iterations    {sol.iterations}",
           f"cuts          {sol.cuts}",
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
    return ",".join(cell(row[k]) for k in CSV_FIELDS)


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
    lines = [",".join(CSV_FIELDS)] + [_csv_row(r) for r in summary.rows]
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
        if args.trials != 1:
            summary = run_seed_study(args)
            print(_render_study(summary, args.report))
            solved = any(r["status"] == "optimal" for r in summary.rows)
            return 0 if solved else 1
        rep = run_pipeline(args)
        print(_render_report(rep, args.report))
        return 0 if rep.solution.status == "optimal" else 1
    except ScenarioNotFound as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:  # incl. ScenarioError, TrainingDivergence
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
