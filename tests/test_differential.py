"""Differential gate: the in-repo solver, on the campaign MILP with the rows
the network implies, against HiGHS on the same MILP without them, over a
family of generated campaigns."""

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from leolift.formulation import LinearEpsilon, assemble
from leolift.scenario import load_scenario
from leolift.solver import solve_milp

from helpers import assemble_without_cuts, highs_milp, ladder_doc

HIGHS_STATUS = {"optimal": 0, "infeasible": 2}


def campaign(horizon, width, supply, return_leg, second, unmeetable, twin):
    """Ladder rung H/W with the cases where a row's condition bites:

    - `supply` kg of payload (a number or "inf") at the delivery node;
    - `return_leg`: an LLO->LEO arc family, so the vehicle graph is cyclic;
    - `second`: a second delivery of that many kg at LLO on day 4;
    - `unmeetable`: "late", a delivery at LS on day 4, before any arrival;
      "huge", one larger than every flight to LS can carry;
    - `twin`: a second vehicle with the same sizing constants and fleet.
    """
    doc = ladder_doc(horizon, width)

    def deliver(node, t, amount):
        doc["demands"].append({"commodity": "payload", "node": node,
                               "time": t, "amount": amount})

    if supply is not None:
        deliver("LS", 0, supply)
    if return_leg:
        doc["arcs"].append({"from": "LLO", "to": "LEO", "delta_v_mps": 4040.0,
                            "tof_days": 1, "window": list(range(4, horizon - 1))})
    if second:
        deliver("LLO", 4, -second)
    if unmeetable == "late":
        deliver("LS", 4, -10.0)
    elif unmeetable == "huge":
        deliver("LS", horizon - 1, -1e7)
    if twin:
        doc["vehicles"].append(dict(doc["vehicles"][0], id="spacecraft2"))
        doc["demands"].append({"commodity": "spacecraft2", "node": "Earth",
                               "time": 0, "amount": 1})
    return load_scenario(json.dumps(doc))


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
    # the ReLU binaries multiply the twins' symmetric trees: H8/W2 takes
    # 6,379 nodes, past the deadline
    assume(not (s["twin"] and closure == "net0"))
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
