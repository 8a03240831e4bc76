import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolift.spacecraft import (G0, PAYLOAD_COEFF, OracleResult, SizingParams,
                                compute_propellant_fraction, evaluate_sizing,
                                generate_dataset, solve_exact_oracle,
                                surrogate_target)

LUNAR_DVS = [4040.0, 1870.0]


class TestEvaluateSizing:
    def test_reference_point(self, params):
        assert evaluate_sizing(params, 1000.0, 35926.131) == pytest.approx(5884.957, abs=0.5)

    def test_reference_point_frozen(self, params):
        # pinned output of this exact arithmetic, guards against regressions
        assert evaluate_sizing(params, 1000.0, 35926.131) == pytest.approx(
            5884.956910702455, abs=1e-9)

    def test_all_zero(self, params):
        assert evaluate_sizing(params, 0.0, 0.0) == 0.0

    def test_payload_term_only(self, params):
        assert evaluate_sizing(params, 1000.0, 0.0) == pytest.approx(2393.1, abs=1e-9)

    @pytest.mark.parametrize("m_p,m_f", [(-1.0, 0.0), (0.0, -1.0)])
    def test_negative_inputs_rejected(self, params, m_p, m_f):
        with pytest.raises(ValueError):
            evaluate_sizing(params, m_p, m_f)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            SizingParams(alpha=0.0)


class TestSurrogateTarget:
    def test_zero(self, params):
        assert surrogate_target(params, 0.0) == 0.0

    def test_reference_point(self, params):
        assert surrogate_target(params, 35926.131) == pytest.approx(3491.86, abs=0.5)

    def test_monotone_on_range(self, params):
        assert surrogate_target(params, 40000.0) > surrogate_target(params, 20000.0)

    @given(m_p=st.floats(0, 50000), m_f=st.floats(0, 50000))
    @settings(max_examples=60, deadline=None)
    def test_splits_payload_term_exactly(self, m_p, m_f):
        p = SizingParams()
        whole = evaluate_sizing(p, m_p, m_f)
        assert surrogate_target(p, m_f) + PAYLOAD_COEFF * m_p == pytest.approx(
            whole, rel=1e-12, abs=1e-9)


class TestPropellantFraction:
    def test_zero_delta_v_burns_nothing(self):
        assert compute_propellant_fraction(0.0, 330.0) == 0.0

    def test_lunar_injection_fraction(self):
        assert compute_propellant_fraction(4040.0, 330.0) == pytest.approx(
            0.71327, abs=1e-5)

    def test_descent_fraction_frozen(self):
        assert compute_propellant_fraction(1870.0, 330.0) == pytest.approx(
            0.4391104607150276, rel=1e-12)

    def test_negative_delta_v_rejected(self):
        with pytest.raises(ValueError):
            compute_propellant_fraction(-1.0, 330.0)
        with pytest.raises(ValueError):
            compute_propellant_fraction(100.0, 0.0)

    def test_monotone_in_delta_v(self):
        vals = [compute_propellant_fraction(dv, 450.0)
                for dv in (0.0, 500.0, 2000.0, 9000.0)]
        assert vals == sorted(vals)
        assert all(0.0 <= v < 1.0 for v in vals)


class TestGenerateDataset:
    def test_default_grid(self, dataset51):
        assert len(dataset51) == 51
        assert dataset51[0] == (0.0, 0.0)
        assert dataset51[-1][0] == 50000.0

    def test_single_point(self, params):
        assert generate_dataset(params, 0, 0, 1000) == [(0.0, 0.0)]

    def test_three_points(self, params):
        pts = generate_dataset(params, 0, 2000, 1000)
        assert [x for x, _ in pts] == [0.0, 1000.0, 2000.0]

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 50000.0, 3000.0), (0.0, 1.0, 0.3), (5.0, 12.0, 2.5)])
    def test_grid_ends_at_hi_when_the_step_does_not_divide(self, params, lo, hi, step):
        xs = [x for x, _ in generate_dataset(params, lo, hi, step)]
        assert xs[0] == lo and xs[-1] == hi
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[:-1] == [lo + k * step for k in range(len(xs) - 1)]

    def test_a_step_that_divides_up_to_rounding_adds_no_point(self, params):
        # 2.1 / 0.7 rounds to just above 3, and 3 * 0.7 to just below 2.1
        xs = [x for x, _ in generate_dataset(params, 0.0, 2.1, 0.7)]
        assert xs == [0.0, 0.7, 1.4, 2.1]

    def test_bad_grid_rejected(self, params):
        with pytest.raises(ValueError):
            generate_dataset(params, 10, 0, 1000)
        with pytest.raises(ValueError):
            generate_dataset(params, 0, 10, 0)


class TestExactOracle:
    def test_lunar_reference(self, params):
        t0 = time.monotonic()
        res = solve_exact_oracle(params, 1000.0, LUNAR_DVS)
        assert time.monotonic() - t0 < 1.0
        assert res.imleo == pytest.approx(42811.088, abs=0.5)
        assert res.m_d == pytest.approx(5884.957, abs=0.5)
        assert res.m_f == pytest.approx(35926.131, abs=0.5)
        assert res.m_p == 1000.0

    def test_lunar_reference_frozen(self, params):
        res = solve_exact_oracle(params, 1000.0, LUNAR_DVS)
        assert res.imleo == pytest.approx(42811.087681331606, abs=1e-4)
        assert res.m_d == pytest.approx(5884.956892785289, abs=1e-4)
        assert res.m_f == pytest.approx(35926.13078854632, abs=1e-4)

    def test_zero_delta_v(self, params):
        res = solve_exact_oracle(params, 1000.0, [0.0])
        assert res.m_f == pytest.approx(0.0, abs=1e-9)
        assert res.m_d == pytest.approx(2393.1, abs=1e-6)
        assert res.imleo == pytest.approx(3393.1, abs=1e-6)

    def test_zero_payload_gives_zero_mission(self, params):
        res = solve_exact_oracle(params, 0.0, LUNAR_DVS)
        assert res.imleo == 0.0 and res.m_d == 0.0 and res.m_f == 0.0

    def test_self_consistency(self, params):
        """The reported masses must satisfy both closure equations."""
        res = solve_exact_oracle(params, 1000.0, LUNAR_DVS)
        sizing_residual = res.m_d - evaluate_sizing(params, res.m_p, res.m_f)
        phi = 1.0 - math.exp(-sum(LUNAR_DVS) / (params.isp * G0))
        burn_residual = res.m_f - phi * (res.m_d + res.m_p + res.m_f)
        assert abs(sizing_residual) < 1e-6
        assert abs(burn_residual) < 1e-6
        assert res.imleo == pytest.approx(res.m_d + res.m_p + res.m_f, abs=1e-6)
        assert abs(res.residual) < 1e-6

    @pytest.mark.parametrize("payload, delta_vs, name", [
        (math.nan, LUNAR_DVS, "payload"), (math.inf, LUNAR_DVS, "payload"),
        (1000.0, [math.nan], "delta_vs"), (1000.0, [3000.0, math.inf], "delta_vs"),
    ])
    def test_non_finite_input_rejected(self, params, payload, delta_vs, name):
        with pytest.raises(ValueError, match=name):
            solve_exact_oracle(params, payload, delta_vs)

    def test_result_invariants(self, params):
        res = solve_exact_oracle(params, 500.0, [3000.0])
        assert isinstance(res, OracleResult)
        assert res.iterations > 0
        assert res.imleo == pytest.approx(res.m_d + res.m_p + res.m_f, abs=1e-6)

    @given(payload=st.floats(1.0, 5000.0), dv=st.floats(100.0, 6000.0))
    @settings(max_examples=30, deadline=None)
    def test_residual_always_small(self, payload, dv):
        p = SizingParams()
        res = solve_exact_oracle(p, payload, [dv])
        phi = 1.0 - math.exp(-dv / (p.isp * G0))
        assert res.m_f == pytest.approx(phi * res.imleo, abs=1e-5)
        assert res.m_d == pytest.approx(evaluate_sizing(p, payload, res.m_f), abs=1e-5)


@given(dv1=st.floats(0.0, 10000.0), dv2=st.floats(0.0, 10000.0))
@settings(max_examples=80, deadline=None)
def test_sequential_burns_compose_like_one(dv1, dv2):
    """Surviving mass fraction multiplies across burns: burning dv1 then dv2
    leaves the same mass as one combined dv1+dv2 burn."""
    p = SizingParams()
    k = p.isp * G0
    keep1 = math.exp(-dv1 / k)
    keep2 = math.exp(-dv2 / k)
    keep12 = math.exp(-(dv1 + dv2) / k)
    assert keep1 * keep2 == pytest.approx(keep12, rel=1e-9)
