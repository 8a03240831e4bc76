"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each test prints `[criterion N] PASS/FAIL - detail` with capture suspended so
the verdicts stay visible in the pytest output, then asserts the condition.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from leolift.cli import build_parser, run_pipeline, run_seed_study
from leolift.formulation import LinearEpsilon, assemble
from leolift.milp_ir import MilpModel
from leolift.solver import solve_lp, solve_milp
from leolift.spacecraft import (SizingParams, generate_dataset,
                                solve_exact_oracle, surrogate_target)
from leolift.surrogate import embed_network, forward, train_relu_network

from helpers import (exhaustive_milp_min, net_inflow, random_box_lp, read_mps,
                     vertex_enumeration_min)


@pytest.fixture
def verdict(capsys):
    def emit(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        assert ok, f"criterion {num}: {detail}"
    return emit


@pytest.fixture(scope="module")
def nn_study():
    args = build_parser().parse_args(["--surrogate", "nn", "--trials", "20",
                                      "--seed", "0"])
    t0 = time.monotonic()
    summary = run_seed_study(args)
    return summary, time.monotonic() - t0


@pytest.fixture(scope="module")
def solved_instances(lunar, linreg51, net0):
    out = []
    for name, closure in (("epsilon", LinearEpsilon(0.08)),
                          ("linreg", linreg51), ("nn", net0)):
        model, fv = assemble(lunar, closure)
        sol = solve_milp(model)
        assert sol.status == "optimal", name
        out.append((name, model, fv, sol))
    return out


def test_criterion_1_oracle_reproduction(verdict):
    t0 = time.monotonic()
    orc = solve_exact_oracle(SizingParams(), 1000.0, [4040.0, 1870.0])
    elapsed = time.monotonic() - t0
    errs = (abs(orc.imleo - 42811.088), abs(orc.m_d - 5884.957),
            abs(orc.m_f - 35926.131))
    ok = all(e <= 0.5 for e in errs) and elapsed < 1.0
    verdict(1, ok,
            f"oracle imleo={orc.imleo:.3f} m_d={orc.m_d:.3f} m_f={orc.m_f:.3f} "
            f"(max dev {max(errs):.2e} kg <= 0.5) in {elapsed:.3f}s")


def test_criterion_2_linreg_pipeline(verdict):
    args = build_parser().parse_args(["--surrogate", "linreg"])
    t0 = time.monotonic()
    rep1 = run_pipeline(args)
    rep2 = run_pipeline(args)
    elapsed = time.monotonic() - t0
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1["milp"].pop("seconds")
    d2["milp"].pop("seconds")
    obj = rep1.solution.objective
    rel = abs(obj - 42703.819) / 42703.819
    ok = (rep1.solution.status == "optimal" and rel <= 0.01
          and d1 == d2 and elapsed < 30.0)
    verdict(2, ok,
            f"linreg objective {obj:.3f} kg, {100 * rel:.3f}% from 42703.819 "
            f"(<=1%), deterministic={d1 == d2}, two runs in {elapsed:.2f}s")


def test_criterion_3_nn_seed_study(verdict, nn_study):
    summary, elapsed = nn_study
    ok = (summary.median_gap is not None and summary.median_gap <= 2.0
          and summary.mean_gap <= 6.0 and elapsed < 600.0)
    verdict(3, ok,
            f"20-trial study median gap {summary.median_gap:.4f}% (<=2%), "
            f"mean {summary.mean_gap:.4f}% (<=6%), excluded seeds "
            f"{summary.excluded_low_r2}, failures {summary.failures}, "
            f"in {elapsed:.1f}s")


def test_criterion_4_surrogate_fit(verdict, nn_study):
    summary, _ = nn_study
    r2s = [r["test_r2"] for r in summary.rows if r["test_r2"] is not None]
    good = sum(1 for v in r2s if v >= 0.98)
    ok = len(summary.rows) == 20 and good >= 14
    verdict(4, ok,
            f"held-out R^2 >= 0.98 on {good}/20 seeds (need >= 14); "
            f"min R^2 {min(r2s):.4f}")


def test_criterion_5_encoding_exactness(verdict):
    p = SizingParams()
    data = generate_dataset(p)
    target = partial(surrogate_target, p)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for seed in range(100, 110):
        net = train_relu_network(data, seed, target_fn=target)
        for x0 in rng.uniform(0.0, 50000.0, 50):
            want = forward(net, float(x0))
            for direction in (1.0, -1.0):
                m = MilpModel()
                xin = m.add_variable("xin", lower=float(x0), upper=float(x0))
                out = m.add_variable("out", lower=-math.inf, upper=math.inf)
                embed_network(m, net, xin, out, "relu")
                m.add_objective_term(out, direction)
                sol = solve_milp(m)
                assert sol.status == "optimal"
                worst = max(worst, abs(float(sol.values[out]) - want))
    ok = worst <= 1e-6
    verdict(5, ok, f"10 nets x 50 inputs x 2 directions: max |MILP - forward| "
                   f"= {worst:.2e} (<=1e-6)")


def test_criterion_6_solver_oracle_equivalence(verdict):
    rng = np.random.default_rng(99)
    worst_lp = 0.0
    for _ in range(20):
        A, b, c, lb, ub = random_box_lp(rng, max_vars=6)
        m = MilpModel()
        ids = [m.add_variable(f"x{j}", lower=lb[j], upper=ub[j])
               for j in range(len(c))]
        for i in range(len(b)):
            m.add_constraint([(ids[j], A[i, j]) for j in range(len(c))],
                             "<=", b[i])
        for j in range(len(c)):
            m.add_objective_term(ids[j], c[j])
        res = solve_lp(m.to_standard_form())
        ref = vertex_enumeration_min(A, b, c, lb, ub)
        assert res.status == "optimal" and ref is not None
        worst_lp = max(worst_lp, abs(res.objective - ref))

    worst_ip = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 13))          # up to 12 binaries
        rows = int(rng.integers(1, 5))
        A = rng.normal(size=(rows, n)).round(3)
        x0 = (rng.random(n) < 0.5).astype(float)
        b = A @ x0 + rng.uniform(0.0, 1.0, rows)
        c = rng.normal(size=n).round(3)
        lb, ub = np.zeros(n), np.ones(n)
        m = MilpModel()
        ids = [m.add_variable(f"b{j}", "binary") for j in range(n)]
        for i in range(rows):
            m.add_constraint([(ids[j], A[i, j]) for j in range(n)], "<=", b[i])
        for j in range(n):
            m.add_objective_term(ids[j], c[j])
        sol = solve_milp(m)
        ref = exhaustive_milp_min(A, b, c, lb, ub, [True] * n)
        assert sol.status == "optimal" and ref is not None
        worst_ip = max(worst_ip, abs(sol.objective - ref))

    ok = worst_lp <= 1e-8 and worst_ip <= 1e-9
    verdict(6, ok, f"20 LPs max dev {worst_lp:.2e} (<=1e-8); "
                   f"20 MILPs max dev {worst_ip:.2e} (exact)")


def test_criterion_7_bilinear_exactness(verdict, solved_instances):
    worst = 0.0
    stray_flow = 0.0
    for name, model, fv, sol in solved_instances:
        for idx, arc in enumerate(fv.network.arcs):
            y = float(sol.values[fv.use[idx]])
            v = arc.vehicle
            for z_map, which in ((fv.z_payload, "m_p"),
                                 (fv.z_propellant, "m_f"),
                                 (fv.z_struct, "m_d")):
                z = float(sol.values[z_map[idx]])
                m_val = float(sol.values[fv.design[(v, which)]])
                worst = max(worst, abs(z - m_val * y))
            if y < 0.5:
                for c in fv.commodities:
                    stray_flow = max(stray_flow,
                                     float(sol.values[fv.x_plus[(idx, c)]]),
                                     float(sol.values[fv.x_minus[(idx, c)]]))
    ok = worst <= 1e-6 and stray_flow <= 1e-6
    verdict(7, ok, f"3 instances: max |z - m*y| = {worst:.2e} (<=1e-6), "
                   f"max flow on unused arcs = {stray_flow:.2e}")


def test_criterion_8_mass_balance_audit(verdict, lunar, solved_instances):
    demand_pts = {(d.node, d.time, d.commodity) for d in lunar.demands}
    worst_stray = 0.0
    min_delivered = math.inf
    for name, model, fv, sol in solved_instances:
        for con in model.constraints:
            if not con.tag.startswith("eq2:"):
                continue
            _, node, t, label = con.tag.split(":")
            t = int(t)
            lhs = sum(coef * sol.values[vid] for vid, coef in con.terms)
            slack = con.rhs - lhs
            assert slack >= -1e-6, f"{name}: {con.tag} violated by {-slack}"
            if (node, t, label) in demand_pts or t == lunar.horizon - 1:
                continue  # declared supply/demand point or terminal pooling
            worst_stray = max(worst_stray, slack)
        min_delivered = min(min_delivered,
                            net_inflow(fv, sol, "payload", "LS", 5))
    ok = worst_stray <= 1e-6 and min_delivered >= 1000.0 - 1e-6
    verdict(8, ok, f"3 instances: conservation slack off declared points "
                   f"= {worst_stray:.2e} (<=1e-6); min delivered payload "
                   f"{min_delivered:.3f} kg (>=1000)")


def test_criterion_9_cross_solver_check(verdict, tmp_path, lunar, linreg51):
    model, _ = assemble(lunar, linreg51)
    ours = solve_milp(model)
    path = tmp_path / "lunar_linreg.mps"
    model.export_mps(str(path))
    sf = read_mps(str(path)).to_standard_form()
    res = scipy_milp(c=sf.c,
                     constraints=LinearConstraint(sf.A, sf.row_lo, sf.row_hi),
                     integrality=sf.is_int.astype(int),
                     bounds=Bounds(sf.lb, sf.ub))
    rel = abs(res.fun - ours.objective) / max(1.0, abs(ours.objective))
    ok = res.status == 0 and rel <= 1e-4
    verdict(9, ok, f"MPS round trip via external MILP solver: "
                   f"{res.fun:.6f} vs {ours.objective:.6f} kg "
                   f"(rel dev {rel:.2e} <= 1e-4)")
