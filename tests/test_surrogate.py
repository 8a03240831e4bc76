import json
import math
from dataclasses import replace

import numpy as np
import pytest

from leolift import surrogate
from leolift.milp_ir import MilpModel
from leolift.solver import BnbConfig, solve_milp
from leolift.spacecraft import surrogate_target
from leolift.surrogate import (DegenerateDataError, ReluNetwork,
                               TrainingDivergence,
                               _glorot_init, _layer_views, _mse_and_grads,
                               _stacked_adam_loop, breakpoints,
                               embed_network, fit_linear_regression, forward,
                               load_surrogate, save_surrogate,
                               surrogate_from_dict, surrogate_to_dict,
                               train_relu_network, train_relu_networks)


def tiny_net(w1, b1, w2, b2, box, clamp=False) -> ReluNetwork:
    return ReluNetwork((1, len(b1), 1),
                       [np.array(w1, dtype=float), np.array(w2, dtype=float)],
                       [np.array(b1, dtype=float), np.array(b2, dtype=float)],
                       (tuple(box),), clamp_output=clamp)


def embedded_extremum(net, x0: float | None, maximize: bool) -> float:
    """Fix the input to x0 inside a fresh model, or leave it free over the
    network's box when x0 is None, and push the output var to its extreme;
    with x0 fixed the result must equal forward(net, x0)."""
    (lo, hi), = net.input_box if x0 is None else ((x0, x0),)
    m = MilpModel("fix")
    xin = m.add_variable("xin", lower=lo, upper=hi)
    out = m.add_variable("out", lower=-math.inf, upper=math.inf)
    embed_network(m, net, xin, out, "relu")
    m.add_objective_term(out, -1.0 if maximize else 1.0)
    sol = solve_milp(m, BnbConfig())
    assert sol.status == "optimal"
    return float(sol.values[out])


def per_layer_mse_and_grads(Ws, bs, X, Y):
    """Reference backpropagation for one network, on 2-d arrays."""
    n = X.shape[0]
    acts = [X]
    pres = []
    a = X
    for s, (W, b) in enumerate(zip(Ws, bs)):
        z = a @ W.T + b
        pres.append(z)
        a = np.maximum(z, 0.0) if s < len(Ws) - 1 else z
        acts.append(a)
    resid = acts[-1] - Y
    loss = float(np.square(resid).sum()) / n
    delta = 2.0 * resid / n
    gWs = [None] * len(Ws)
    gbs = [None] * len(Ws)
    for s in range(len(Ws) - 1, -1, -1):
        gWs[s] = delta.T @ acts[s]
        gbs[s] = delta.sum(axis=0)
        if s > 0:
            delta = (delta @ Ws[s]) * (pres[s - 1] > 0)
    return loss, gWs, gbs


def stacked_mse_and_grads(Ws, bs, X, Y):
    """`_mse_and_grads` on a one-member stack built from 2-d arrays; returns
    the loss as a float and the gradients in the arrays' own shapes."""
    shapes = [W.shape for W in Ws]
    theta = np.concatenate(Ws + bs, axis=None)[None, :]
    sWs, sbs = _layer_views(theta, shapes)
    grad = np.empty_like(theta)
    gWs, gbs = _layer_views(grad, shapes)
    loss = _mse_and_grads(sWs, [W.transpose(0, 2, 1) for W in sWs], sbs,
                          X[None], Y, gWs, gbs)
    return float(loss[0]), [g[0] for g in gWs], [g[0, 0] for g in gbs]


def per_layer_adam_loop(Ws, bs, Xs, Ys):
    """Reference Adam loop for one network: one first and second moment per
    weight and bias array, each array updated on its own, for the module's
    `ADAM_STEPS` at its `LEARNING_RATE`."""
    lr = surrogate.LEARNING_RATE
    mW = [np.zeros_like(W) for W in Ws]
    vW = [np.zeros_like(W) for W in Ws]
    mb = [np.zeros_like(b) for b in bs]
    vb = [np.zeros_like(b) for b in bs]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for it in range(1, surrogate.ADAM_STEPS + 1):
        loss, gWs, gbs = per_layer_mse_and_grads(Ws, bs, Xs, Ys)
        if not math.isfinite(loss):
            raise TrainingDivergence(f"loss non-finite at iteration {it}")
        c1 = 1.0 - beta1 ** it
        c2 = 1.0 - beta2 ** it
        for s in range(len(Ws)):
            mW[s] = beta1 * mW[s] + (1 - beta1) * gWs[s]
            vW[s] = beta2 * vW[s] + (1 - beta2) * gWs[s] ** 2
            Ws[s] -= lr * (mW[s] / c1) / (np.sqrt(vW[s] / c2) + eps)
            mb[s] = beta1 * mb[s] + (1 - beta1) * gbs[s]
            vb[s] = beta2 * vb[s] + (1 - beta2) * gbs[s] ** 2
            bs[s] -= lr * (mb[s] / c1) / (np.sqrt(vb[s] / c2) + eps)


def solo_adam_loops(members, Xs, Ys) -> list:
    """Stand-in for `_stacked_adam_loop`: each member trained alone by
    `per_layer_adam_loop`, with the stacked loop's return contract."""
    out = []
    for Ws, bs in members:
        try:
            per_layer_adam_loop(Ws, bs, Xs, Ys)
            out.append(None)
        except TrainingDivergence as exc:
            out.append(exc)
    return out


def standardized(data):
    arr = np.asarray(data, dtype=float)
    x, y = arr[:, :1], arr[:, 1:]
    return (x - x.mean()) / x.std(), (y - y.mean()) / y.std()


def assert_no_shared_memory(arrays):
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


class TestTraining:
    def test_linear_target_is_learned(self, monkeypatch):
        monkeypatch.setattr(surrogate, "HIDDEN_NEURONS", 1)
        monkeypatch.setattr(surrogate, "ADAM_STEPS", 3000)
        data = [(float(x), 2.0 * x) for x in range(0, 11)]
        net = train_relu_network(data, 1)
        assert net.train_r2 >= 0.999

    def test_constant_target_flagged(self):
        data = [(float(x), 7.0) for x in range(0, 6)]
        net = train_relu_network(data, 0)
        assert math.isnan(net.train_r2)
        for x in (0.0, 2.5, 5.0):
            assert forward(net, x) == pytest.approx(7.0, abs=1e-2)

    def test_identical_inputs_rejected(self):
        with pytest.raises(DegenerateDataError):
            train_relu_network([(1.0, 2.0), (1.0, 3.0)], 0)

    def test_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(surrogate, "LEARNING_RATE", 1e160)
        data = [(float(x), float(x) ** 2) for x in range(20)]
        with pytest.raises(TrainingDivergence):
            train_relu_network(data, 0)

    def test_seed_determinism_bit_identical(self, dataset51):
        a = train_relu_network(dataset51, 12)
        b = train_relu_network(dataset51, 12)
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    @pytest.mark.parametrize("seed", [0, 12])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    def test_flat_adam_matches_per_layer_loop(self, monkeypatch, dataset51,
                                              hidden_layers, seed):
        """Training on one flat parameter vector gives every weight and bias
        bitwise equal to the per-array loop, in arrays of their own."""
        monkeypatch.setattr(surrogate, "HIDDEN_LAYERS", hidden_layers)
        net = train_relu_network(dataset51, seed)
        monkeypatch.setattr(surrogate, "_stacked_adam_loop", solo_adam_loops)
        ref = train_relu_network(dataset51, seed)
        arrays = net.weights + net.biases
        for got, want in zip(arrays, ref.weights + ref.biases, strict=True):
            assert np.array_equal(got, want)
        assert_no_shared_memory(arrays)

    def test_sizing_fit_quality(self, net0):
        assert net0.train_r2 >= 0.98
        assert net0.test_r2 >= 0.98


class TestStackedTraining:
    @pytest.mark.parametrize("hidden_layers,members", [
        (1, 1), (1, 2), (1, 20), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_members_match_solo_runs(self, monkeypatch, params, dataset51,
                                     hidden_layers, members):
        """Each member of a stack is bitwise the network trained alone by the
        per-array loop, with the same fit statistics, and no returned array
        shares memory with another."""
        monkeypatch.setattr(surrogate, "HIDDEN_LAYERS", hidden_layers)
        target = lambda v: surrogate_target(params, v)
        seeds = range(members)
        nets = train_relu_networks(dataset51, seeds, target_fn=target)
        monkeypatch.setattr(surrogate, "_stacked_adam_loop", solo_adam_loops)
        refs = [train_relu_network(dataset51, s, target_fn=target) for s in seeds]
        assert len(nets) == members
        for net, ref in zip(nets, refs, strict=True):
            assert net.seed == ref.seed
            for got, want in zip(net.weights + net.biases,
                                 ref.weights + ref.biases, strict=True):
                assert np.array_equal(got, want)
            assert net.train_r2 == ref.train_r2
            assert net.test_r2 == ref.test_r2
        assert_no_shared_memory([a for net in nets
                                 for a in net.weights + net.biases])

    @pytest.mark.parametrize("hidden_layers", [1, 2])
    def test_diverged_member_leaves_the_others_alone(self, monkeypatch, dataset51,
                                                     hidden_layers):
        """A member whose initial weights are scaled to 1e200 reports its own
        divergence, at the iteration its solo run raises at; the members
        beside it end bitwise equal to their solo runs."""
        monkeypatch.setattr(surrogate, "ADAM_STEPS", 200)
        Xs, Ys = standardized(dataset51)
        sizes = [1] + [surrogate.HIDDEN_NEURONS] * hidden_layers + [1]
        members = [_glorot_init(sizes, np.random.default_rng(s)) for s in range(3)]
        members[1] = ([W * 1e200 for W in members[1][0]], members[1][1])
        solo = [([W.copy() for W in Ws], [b.copy() for b in bs])
                for Ws, bs in members]
        with np.errstate(over="ignore", invalid="ignore"):
            got = _stacked_adam_loop(members, Xs, Ys)
            want = solo_adam_loops(solo, Xs, Ys)
        assert got[0] is None and got[2] is None
        assert isinstance(got[1], TrainingDivergence)
        assert str(got[1]) == str(want[1]) == "loss non-finite at iteration 1"
        for k in (0, 2):
            for a, b in zip(members[k][0] + members[k][1],
                            solo[k][0] + solo[k][1], strict=True):
                assert np.array_equal(a, b)

    def test_every_member_diverging_is_returned_not_raised(self, monkeypatch):
        monkeypatch.setattr(surrogate, "LEARNING_RATE", 1e160)
        data = [(float(x), float(x) ** 2) for x in range(20)]
        out = train_relu_networks(data, range(2))
        assert all(isinstance(r, TrainingDivergence) for r in out)

    def test_no_seeds_is_refused(self, dataset51):
        with pytest.raises(ValueError, match="at least one seed"):
            train_relu_networks(dataset51, [])


class TestForward:
    def test_zero_network(self):
        net = tiny_net([[0.0]], [0.0], [[0.0]], [0.0], (0.0, 10.0))
        assert forward(net, 4.2) == 0.0

    def test_single_neuron_relu(self):
        net = tiny_net([[1.0]], [0.0], [[1.0]], [0.0], (-10.0, 10.0))
        assert forward(net, -5.0) == 0.0
        assert forward(net, 3.0) == 3.0

    def test_clamp_applies_to_output(self):
        net = tiny_net([[1.0]], [5.0], [[1.0]], [-20.0], (0.0, 10.0), clamp=True)
        assert forward(net, 0.0) == 0.0  # raw output would be -15

    def test_vector_input(self):
        net = tiny_net([[2.0]], [0.0], [[1.0]], [0.0], (0.0, 10.0))
        np.testing.assert_allclose(forward(net, np.array([1.0, 2.0])), [2.0, 4.0])


class TestConstruction:
    """A network is checked once, when it is built: shapes, one input and one
    output, one finite box."""

    def test_shape_validation_on_construction(self):
        with pytest.raises(ValueError):
            tiny_net([[1.0, 2.0]], [0.0], [[1.0]], [0.0], (0, 1))

    def test_broadcasting_bias_rejected(self):
        # a (1,) bias on a 3-neuron layer would broadcast in forward
        with pytest.raises(ValueError, match=r"layer 0 .*\(1,\) != \(3, 1\), \(3,\)"):
            ReluNetwork((1, 3, 1), [np.ones((3, 1)), np.ones((1, 3))],
                        [np.array([0.5]), np.zeros(1)], ((0.0, 1.0),))

    def test_missing_bias_rejected(self):
        with pytest.raises(ValueError, match="one bias per layer"):
            ReluNetwork((1, 3, 1), [np.ones((3, 1)), np.ones((1, 3))],
                        [np.zeros(3)], ((0.0, 1.0),))

    @pytest.mark.parametrize("box", [((0.0, math.inf),), ((math.nan, 1.0),),
                                     ((3.0, -2.0),), ((0.0, 1.0), (0.0, 1.0))])
    def test_bad_box_rejected(self, box):
        with pytest.raises(ValueError, match="input box"):
            replace(random_deep_net(True), input_box=box)

    @pytest.mark.parametrize("sizes", [(2, 2, 1), (1, 2, 2)])
    def test_multi_input_or_output_network_rejected(self, sizes):
        with pytest.raises(ValueError, match="must start and end with 1"):
            ReluNetwork(sizes, [np.ones((2, sizes[0])), np.ones((sizes[2], 2))],
                        [np.zeros(2), np.zeros(sizes[2])], ((0.0, 1.0),))


class TestGradients:
    def test_backprop_matches_central_differences(self):
        """Analytic gradients vs (f(p+h) - f(p-h)) / 2h on standardized-scale
        data, at parameter points keeping every pre-activation off its kink."""
        rng = np.random.default_rng(42)
        X = rng.uniform(0.5, 2.0, (8, 1))
        Y = rng.normal(size=(8, 1))
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            Ws = [rng.normal(size=(4, 1)), rng.normal(size=(1, 4))]
            bs = [rng.normal(size=4) * 0.5 + 0.5, rng.normal(size=1)]
            pre = X @ Ws[0].T + bs[0]
            if np.min(np.abs(pre)) < 1e-2:
                continue
            _, gWs, gbs = stacked_mse_and_grads(Ws, bs, X, Y)
            layer = int(rng.integers(0, 2))
            W = Ws[layer]
            i = int(rng.integers(0, W.shape[0]))
            j = int(rng.integers(0, W.shape[1]))
            h = 1e-4
            W[i, j] += h
            hi_loss, _, _ = stacked_mse_and_grads(Ws, bs, X, Y)
            W[i, j] -= 2 * h
            lo_loss, _, _ = stacked_mse_and_grads(Ws, bs, X, Y)
            W[i, j] += h
            numeric = (hi_loss - lo_loss) / (2 * h)
            analytic = gWs[layer][i, j]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            assert rel < 1e-4
            checked += 1
        assert checked == 20


class TestLinearRegression:
    def test_two_point_line(self):
        fit = fit_linear_regression([(0.0, 1.0), (1.0, 3.0)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)

    def test_sizing_dataset_coefficients(self, linreg51):
        # frozen values of the exact least-squares fit on the default grid
        assert linreg51.slope == pytest.approx(0.0906333125354867, rel=1e-12)
        assert linreg51.intercept == pytest.approx(222.1261647230117, rel=1e-12)

    @pytest.mark.parametrize("rows", [[(1.0, 2.0), (1.0, 3.0)], [(1.0, 2.0)]])
    def test_identical_inputs_rejected(self, rows):
        with pytest.raises(DegenerateDataError):
            fit_linear_regression(rows)

    def test_more_than_one_regressor_rejected(self):
        rows = [(float(x), float(x) ** 2, 3.0 * x + 1.0) for x in range(5)]
        with pytest.raises(ValueError, match="pairs of"):
            fit_linear_regression(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(ValueError, match="training data must be finite"):
            fit_linear_regression([(0.0, 1.0), (1.0, bad), (2.0, 3.0)])
        with pytest.raises(ValueError, match="training data must be finite"):
            fit_linear_regression([(0.0, 1.0), (bad, 2.0), (2.0, 3.0)])

    def test_residuals_orthogonal_to_regressors(self, dataset51, linreg51):
        X = np.array([[x, 1.0] for x, _ in dataset51])
        y = np.array([t for _, t in dataset51])
        resid = y - X @ np.array([linreg51.slope, linreg51.intercept])
        dots = X.T @ resid
        assert np.max(np.abs(dots)) / (np.linalg.norm(y) * len(y)) < 1e-8

    def test_perturbing_coefficients_never_helps(self, dataset51, linreg51):
        X = np.array([[x, 1.0] for x, _ in dataset51])
        y = np.array([t for _, t in dataset51])
        base = np.array([linreg51.slope, linreg51.intercept])
        best = np.sum((y - X @ base) ** 2)
        for k in range(2):
            for sign in (-1.0, 1.0):
                tweaked = base.copy()
                tweaked[k] += sign * 1e-3
                assert np.sum((y - X @ tweaked) ** 2) >= best


def random_deep_net(clamp: bool) -> ReluNetwork:
    """A random (1, 6, 6, 1) network on (-2, 3), its output lifted by 3.3 so
    that it changes sign there and the clamp bites."""
    rng = np.random.default_rng(7)
    return ReluNetwork((1, 6, 6, 1),
                       [rng.normal(size=(6, 1)), rng.normal(size=(6, 6)),
                        rng.normal(size=(1, 6))],
                       [rng.normal(size=6), rng.normal(size=6),
                        rng.normal(size=1) + 3.3],
                       ((-2.0, 3.0),), clamp_output=clamp)


class TestBreakpoints:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_interpolation_equals_forward(self, clamp):
        net = random_deep_net(clamp)
        xs, fs = breakpoints(net)
        assert (xs[0], xs[-1]) == (-2.0, 3.0) and np.all(np.diff(xs) > 0)
        np.testing.assert_array_equal(fs, forward(net, xs))
        x = np.random.default_rng(8).uniform(-2.0, 3.0, 10000)
        np.testing.assert_allclose(np.interp(x, xs, fs), forward(net, x),
                                   rtol=0.0, atol=1e-9)

    def test_clamp_adds_its_crossings(self):
        plain, _ = breakpoints(random_deep_net(False))
        clamped, fs = breakpoints(random_deep_net(True))
        assert set(plain) < set(clamped)
        assert fs.min() == 0.0 < fs.max()

    def test_degenerate_box_is_one_point(self):
        net = replace(random_deep_net(True), input_box=((0.5, 0.5),))
        xs, fs = breakpoints(net)
        assert list(xs) == [0.5] and list(fs) == [forward(net, 0.5)]
        assert embedded_extremum(net, 0.5, maximize=True) == fs[0]


class TestEmbedding:
    def test_affine_network_needs_no_binary(self):
        net = tiny_net([[1.0]], [5.0], [[2.0]], [-1.0], (0.0, 10.0))
        m = MilpModel()
        xin = m.add_variable("x", lower=0.0, upper=10.0)
        out = m.add_variable("o", lower=-math.inf, upper=math.inf)
        embed_network(m, net, xin, out, "relu")
        assert list(breakpoints(net)[0]) == [0.0, 10.0]
        assert m.num_integer() == 0

    @pytest.mark.parametrize("clamp", [False, True])
    def test_one_binary_per_inner_breakpoint(self, clamp):
        net = random_deep_net(clamp)
        m = MilpModel()
        xin = m.add_variable("x", lower=-2.0, upper=3.0)
        out = m.add_variable("o", lower=-math.inf, upper=math.inf)
        embed_network(m, net, xin, out, "relu")
        assert m.num_integer() == len(breakpoints(net)[0]) - 2 > 0

    def test_trained_net_one_binary_per_inner_breakpoint(self, net0):
        m = MilpModel()
        xin = m.add_variable("x", lower=0.0, upper=50000.0)
        out = m.add_variable("o", lower=-math.inf, upper=math.inf)
        embed_network(m, net0, xin, out, "relu")
        assert m.num_integer() == len(breakpoints(net0)[0]) - 2 > 0

    @pytest.mark.parametrize("clamp", [False, True])
    def test_free_input_reaches_the_extremes(self, clamp):
        net = random_deep_net(clamp)
        _, fs = breakpoints(net)
        assert embedded_extremum(net, None, maximize=False) == pytest.approx(fs.min(), abs=1e-9)
        assert embedded_extremum(net, None, maximize=True) == pytest.approx(fs.max(), abs=1e-9)

    def test_encode_and_fix_at_20000(self, net0):
        want = forward(net0, 20000.0)
        assert embedded_extremum(net0, 20000.0, maximize=False) == pytest.approx(want, abs=1e-6)
        assert embedded_extremum(net0, 20000.0, maximize=True) == pytest.approx(want, abs=1e-6)

    def test_unbounded_input_rejected(self, net0):
        m = MilpModel()
        xin = m.add_variable("x", lower=0.0, upper=math.inf)
        out = m.add_variable("o")
        with pytest.raises(ValueError):
            embed_network(m, net0, xin, out, "relu")

    def test_input_outside_training_box_rejected(self, net0):
        m = MilpModel()
        xin = m.add_variable("x", lower=0.0, upper=60000.0)
        out = m.add_variable("o")
        with pytest.raises(ValueError):
            embed_network(m, net0, xin, out, "relu")

    def test_clamp_zeroes_negative_region(self):
        # raw output is negative on the low end of the box
        net = tiny_net([[1.0]], [0.0], [[1.0]], [-5.0], (0.0, 10.0), clamp=True)
        assert forward(net, 1.0) == 0.0
        assert embedded_extremum(net, 1.0, maximize=False) == pytest.approx(0.0, abs=1e-9)
        assert forward(net, 8.0) == 3.0
        assert embedded_extremum(net, 8.0, maximize=True) == pytest.approx(3.0, abs=1e-9)


# a valid serialized network, for one field at a time to be spoiled
TINY_DOC = {"layer_sizes": [1, 2, 1], "weights": [[1.0, 2.0], [3.0, 4.0]],
            "biases": [[0.0, 0.0], [0.0]], "input_box": [[0.0, 1.0]]}

# files in the on-disk format, every field as `save_surrogate` writes it
NETWORK_FILE = {"layer_sizes": [1, 2, 1], "weights": [[1.0, -2.0], [3.0, 4.0]],
                "biases": [[0.5, 1.0], [-0.25]], "input_box": [[0.0, 50000.0]],
                "clamp_output": False, "seed": 7, "train_r2": 0.875, "test_r2": 0.5}
LINREG_FILE = {"beta": [0.0906333125354867], "intercept": 222.1261647230117}


class TestSerialization:
    def test_dict_roundtrip_identity(self, net0):
        again = surrogate_from_dict(surrogate_to_dict(net0))
        xs = np.linspace(0, 50000, 37)
        np.testing.assert_array_equal(forward(net0, xs), forward(again, xs))
        assert again.layer_sizes == net0.layer_sizes
        assert again.seed == net0.seed

    def test_file_roundtrip(self, tmp_path, net0):
        path = tmp_path / "net.json"
        save_surrogate(net0, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"layer_sizes", "weights", "biases", "input_box",
                            "clamp_output", "seed", "train_r2", "test_r2"}
        again = load_surrogate(str(path))
        assert forward(again, 12345.0) == forward(net0, 12345.0)

    @pytest.mark.parametrize("doc, match", [
        ({"layer_sizes": [1, 2, 1]}, "'weights' is missing"),
        ([1, 2, 1], "JSON object"),
        ({"layer_sizes": [1, 2, 1], "weights": [[1.0, 2.0], [3.0]],
          "biases": [[0.0, 0.0], [0.0]], "input_box": [[0.0, 1.0]]},
         "'weights' is ill-typed"),
        ({"layer_sizes": [1, 2, 1], "weights": [[1.0, 2.0], [3.0, 4.0]],
          "biases": [[0.0, 0.0]], "input_box": [[0.0, 1.0]]},
         "'biases' is ill-typed"),
        ({"layer_sizes": [1], "weights": [], "biases": [], "input_box": [[0.0, 1.0]]},
         "one weight per layer"),
        ({"beta": [], "intercept": 1.0}, "'beta' is ill-typed"),
        ({"beta": [1.0, 2.0], "intercept": 1.0}, "'beta' is ill-typed"),
        ({"beta": [[1.0]], "intercept": 1.0}, "'beta' is ill-typed"),
        ({"beta": [1.0]}, "'intercept' is missing"),
        ({"layer_sizes": [1, 2, 2], "weights": [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
          "biases": [[0.0, 0.0], [0.0, 0.0]], "input_box": [[0.0, 1.0]]},
         "must start and end with 1"),
        ({**TINY_DOC, "input_box": [[0.0, 1.0], [0.0, 1.0]]}, "input box"),
        ({**TINY_DOC, "clamp_output": "false"}, "'clamp_output' is ill-typed"),
        ({**TINY_DOC, "clamp_output": 0}, "'clamp_output' is ill-typed"),
        ({**TINY_DOC, "seed": "abc"}, "'seed' is ill-typed"),
        ({**TINY_DOC, "seed": 1.5}, "'seed' is ill-typed"),
        ({**TINY_DOC, "seed": True}, "'seed' is ill-typed"),
        ({**TINY_DOC, "layer_sizes": [1, 2.9, 1.2]}, "'layer_sizes' is ill-typed"),
        ({**TINY_DOC, "layer_sizes": [True, 2, "1"]}, "'layer_sizes' is ill-typed"),
    ])
    def test_malformed_dict_names_the_field(self, doc, match):
        with pytest.raises(ValueError, match=match):
            surrogate_from_dict(doc)

    def test_clamp_and_seed_read_as_given(self):
        net = surrogate_from_dict({**TINY_DOC, "clamp_output": False, "seed": 3})
        assert net.clamp_output is False and net.seed == 3
        net = surrogate_from_dict({**TINY_DOC, "seed": None})
        assert net.clamp_output is True and net.seed is None

    def test_linear_surrogate_roundtrip(self, tmp_path, linreg51):
        path = tmp_path / "lin.json"
        save_surrogate(linreg51, str(path))
        again = load_surrogate(str(path))
        assert again.slope == linreg51.slope
        assert again.intercept == linreg51.intercept

    @pytest.mark.parametrize("doc", [NETWORK_FILE, LINREG_FILE], ids=["nn", "linreg"])
    def test_file_format_is_pinned(self, tmp_path, doc):
        """A file in the on-disk format loads, and is written back unchanged."""
        text = json.dumps(doc, indent=1)
        path = tmp_path / "model.json"
        path.write_text(text)
        again = load_surrogate(str(path))
        assert surrogate_to_dict(again) == doc
        save_surrogate(again, str(path))
        assert path.read_text() == text
