"""Differential gate: the in-repo solver, on the campaign MILP with the rows
the network implies, against HiGHS on the same MILP without them, over a
family of generated campaigns."""

from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

from leolift import solver
from leolift.formulation import LinearEpsilon, assemble
from leolift.milp_ir import FEAS_TOL
from leolift.solver import solve_milp

from helpers import assemble_without_cuts, campaign, highs_milp

HIGHS_STATUS = {"optimal": 0, "infeasible": 2}


@st.composite
def specs(draw):
    twin = draw(st.booleans())
    # two vehicles fly symmetric trees: past W2 a tree takes seconds
    return dict(horizon=draw(st.integers(6, 14)),
                width=draw(st.integers(1, 2 if twin else 5)),
                supply=draw(st.sampled_from([None, 400.0, 1000.0, "inf"])),
                return_leg=draw(st.booleans()),
                second=draw(st.sampled_from([0.0, 300.0])),
                unmeetable=draw(st.sampled_from([None, None, "late", "huge"])),
                twin=twin)


def spec(**kw):
    base = dict(horizon=8, width=3, supply=None, return_leg=False, second=0.0,
                unmeetable=None, twin=False)
    return base | kw


@pytest.mark.parametrize("closure", ["linreg51", "epsilon", "net0"])
@settings(max_examples=8, deadline=timedelta(seconds=20), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.function_scoped_fixture])
@given(s=specs())
@example(s=spec(supply=400.0))
@example(s=spec(supply="inf"))
@example(s=spec(return_leg=True))
@example(s=spec(second=300.0, horizon=10, width=5))
@example(s=spec(unmeetable="late"))
@example(s=spec(unmeetable="huge"))
@example(s=spec(twin=True, width=2))
def test_cut_model_agrees_with_highs_on_the_bare_model(request, closure, s):
    cl = (LinearEpsilon(0.08) if closure == "epsilon"
          else request.getfixturevalue(closure))
    sc = campaign(**s)
    model, _ = assemble(sc, cl)
    sol = solve_milp(model)
    ref = highs_milp(assemble_without_cuts(sc, cl)[0])
    assert sol.status in HIGHS_STATUS, sol.status
    assert ref.status == HIGHS_STATUS[sol.status], (sol.status, ref.message)
    if sol.status == "optimal":
        assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("closure", ["net0", "linreg51"])
@settings(max_examples=8, deadline=timedelta(seconds=20), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.function_scoped_fixture])
@given(s=specs())
@example(s=spec())
@example(s=spec(twin=True, width=2))
@example(s=spec(second=300.0, horizon=10, width=5))
def test_root_cuts_are_valid(request, monkeypatch, closure, s):
    """Every row the root cut round adds holds at HiGHS's optimum of the same
    model, to `FEAS_TOL` scaled by the row's activity, and the bound after
    the cuts stays at or below that optimum. The NN closure on every draw,
    the linreg one on twin draws."""
    if closure == "linreg51" and not s["twin"]:
        return
    model, _ = assemble(campaign(**s), request.getfixturevalue(closure))
    added = []
    gmi = solver._gmi_cuts

    def recorded(*args):
        cuts = gmi(*args)
        if cuts is not None:
            added.append(cuts)
        return cuts

    monkeypatch.setattr(solver, "_gmi_cuts", recorded)
    monkeypatch.setattr(solver, "NODE_LIMIT", 1)
    sol = solve_milp(model)
    ref = highs_milp(model)
    if ref.status != 0:
        assert ref.status == 2 and sol.status in ("infeasible", "limit")
        return
    for C, lo in added:
        act = C @ ref.x
        scale = np.maximum(1.0, np.abs(C) @ np.abs(ref.x))
        assert np.all(act >= lo - FEAS_TOL * scale), (act - lo).min()
    assert sol.best_bound <= ref.fun + 1e-6 * abs(ref.fun)
