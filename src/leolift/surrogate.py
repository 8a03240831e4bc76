"""MILP-compatible surrogates: ReLU networks and linear regression.

Networks are trained from scratch (full-batch Adam on MSE, inputs and
targets standardized internally with the affine scaling folded back into the
first and last layers, so the stored network maps raw kg to raw kg).
Every network has one shape and one training budget, the module constants
below, so networks differ only in their seed; several train together in
one Adam loop over stacked parameters (`train_relu_networks`), a single
network is the one-member case, and each member ends bitwise equal to its
single run.
The stack is laid out for numpy's passes over it. The S copies of each
weight or bias array form one contiguous block, and Adam runs elementwise
over the flat array of blocks. A hidden layer wider than 1 is stored
data-major, (n samples, S, width), so each elementwise pass runs over
S * width contiguous numbers per sample; a width-1 layer, the output
included, is stored (S, n, 1), each member's column contiguous. Every
member still rounds as on its own 2-d arrays: products with inner
dimension 1 are single multiplies, every other product (the weight
gradients over the n samples, products over a hidden width) is one BLAS
call per member on unit-stride slices with the same transpose flags, the
loss and width-1 bias gradients sum pairwise along each member's column,
and wider bias gradients sum sequentially over the samples.
Every surrogate is a function F(m_f) of one input; a network checks that,
its shapes and its one finite input box once, when it is built. It is then
a piecewise-linear function of m_f: `breakpoints` finds its breakpoints on
the box, and `embed_network` writes it into a `MilpModel` exactly by the
incremental method, with one binary per inner breakpoint. The file format
keeps a linear slope as the one-element list `beta`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .milp_ir import MilpModel


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


class DegenerateDataError(ValueError):
    """Training data carries no usable signal (all inputs identical)."""


# every network has this shape and trains this long: only its seed varies
HIDDEN_LAYERS = 1
HIDDEN_NEURONS = 10
ADAM_STEPS = 1000
LEARNING_RATE = 1e-3


@dataclass
class ReluNetwork:
    """Affine + ReLU stack in raw units; identity output activation.

    `layer_sizes` starts and ends with 1, `weights[s]` has shape
    (layer_sizes[s+1], layer_sizes[s]), `biases[s]` shape (layer_sizes[s+1],)
    and `input_box` is one finite (lo, hi) with lo <= hi: checked when built.
    When `clamp_output` is set the modeled function is max(0, network output).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_box: tuple[tuple[float, float], ...]
    clamp_output: bool = True
    seed: int | None = None
    train_r2: float = float("nan")
    test_r2: float = float("nan")

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or not len(self.weights) == len(self.biases) == len(sizes) - 1:
            raise ValueError(f"layer_sizes {sizes} need one weight per layer "
                             "and one bias per layer")
        if sizes[0] != 1 or sizes[-1] != 1:
            raise ValueError(f"layer_sizes {sizes} must start and end with 1: "
                             "a sizing surrogate maps m_f to one output")
        for s, (W, b) in enumerate(zip(self.weights, self.biases)):
            want = (sizes[s + 1], sizes[s])
            if W.shape != want or b.shape != want[:1]:
                raise ValueError(f"layer {s} weight and bias shapes {W.shape}, "
                                 f"{b.shape} != {want}, {want[:1]}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {s} has non-finite parameters")
        box = self.input_box
        if not (len(box) == 1 and math.isfinite(box[0][0]) and math.isfinite(box[0][1])
                and box[0][0] <= box[0][1]):
            raise ValueError(f"input box {box} must be one finite (lo, hi), lo <= hi")


@dataclass
class LinearSurrogate:
    """F(m_f) = slope * m_f + intercept."""

    slope: float
    intercept: float


def forward(net: ReluNetwork, x):
    """Evaluate the network at m_f = x; scalar in, scalar out, or a 1-d
    array elementwise."""
    a = np.asarray(x, dtype=float).reshape(-1, 1)
    for s, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ W.T + b
        if s < len(net.weights) - 1:
            a = np.maximum(a, 0.0)
    if net.clamp_output:
        a = np.maximum(a, 0.0)
    return float(a[0, 0]) if np.ndim(x) == 0 else a[:, 0]


def _stacked_adam_loop(members, Xs, Ys) -> list:
    """Full-batch Adam for `ADAM_STEPS` iterations at `LEARNING_RATE` on
    several networks of one shape at once, updating each member's `(Ws, bs)`
    in place.

    The S members' parameters live in one flat array `theta`, stored block
    by block (`_layer_views`): the S copies of each weight array form one
    contiguous (S, out, in) block and those of each bias one (S, 1, out)
    block. The gradient and both moments share that layout. Adam is
    elementwise, so it runs on the flat arrays and each member's numbers
    round as they would trained alone. The step's buffers (`_workspace`)
    are allocated once per run. Returns, per member, None or the
    `TrainingDivergence` of the first iteration at which that member's loss
    was non-finite; such a member's parameters are left unusable.
    """
    S = len(members)
    shapes = [W.shape for W in members[0][0]]
    theta = np.concatenate([np.stack(copies).ravel() for copies
                            in zip(*(Ws + bs for Ws, bs in members))])
    Ws, bs = _layer_views(theta, S, shapes)
    WTs = [W.transpose(0, 2, 1) for W in Ws]
    grad = np.empty_like(theta)
    gWs, gbs = _layer_views(grad, S, shapes)
    X = np.broadcast_to(Xs, (S,) + Xs.shape)
    work = _workspace(S, Xs.shape[0], shapes)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = np.empty_like(theta)
    diverged = [None] * S
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for it in range(1, ADAM_STEPS + 1):
        loss = _mse_and_grads(Ws, WTs, bs, X, Ys, gWs, gbs, work)
        # a finite sum means every member's loss is finite
        if not math.isfinite(np.add.reduce(loss)):
            for k in np.flatnonzero(~np.isfinite(loss)):
                if diverged[k] is None:
                    diverged[k] = TrainingDivergence(
                        f"loss non-finite at iteration {it}")
        c1 = 1.0 - beta1 ** it
        c2 = 1.0 - beta2 ** it
        # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps): each operation in
        # place but in this order, so each rounds as written
        m *= beta1
        m += np.multiply(grad, 1 - beta1, out=step)
        v *= beta2
        v += np.multiply(np.square(grad, out=grad), 1 - beta2, out=grad)
        np.divide(m, c1, out=step)
        step *= LEARNING_RATE
        np.divide(v, c2, out=grad)
        np.sqrt(grad, out=grad)
        grad += eps
        step /= grad
        theta -= step
    for k, (mWs, mbs) in enumerate(members):
        for p, view in zip(mWs + mbs, Ws + bs):
            p[...] = view[k].reshape(p.shape)
    return diverged


def _layer_views(flat, S, shapes):
    """Views of a flat array holding S members' parameters block by block:
    per layer an (S, out, in) weight block, then per layer an (S, 1, out)
    bias block, each contiguous."""
    Ws, bs, start = [], [], 0
    for nout, nin in shapes:
        Ws.append(flat[start:start + S * nout * nin].reshape(S, nout, nin))
        start += S * nout * nin
    for nout, _ in shapes:
        bs.append(flat[start:start + S * nout].reshape(S, 1, nout))
        start += S * nout
    return Ws, bs


def _workspace(S, n, shapes):
    """The buffers of one step for S members and n samples, each seen as an
    (S, n, width) array: per layer its output (the pre-activation, then the
    activation, ReLU applied in place on a hidden layer) and its
    backpropagated delta, and per hidden layer its ReLU mask.

    A layer of width 1 is stored (S, n, 1): each member's column is
    contiguous along n, as a network trained alone holds it. A wider layer
    is stored data-major, (n, S, width), so an elementwise pass runs over
    S * width contiguous numbers per sample, not S short rows. Either way a
    member's (n, width) slice has unit stride along the width, which BLAS
    needs.
    """
    def buffer(width, dtype=float):
        if width == 1:
            return np.empty((S, n, 1), dtype)
        return np.empty((n, S, width), dtype).transpose(1, 0, 2)

    widths = [nout for nout, _ in shapes]
    return ([buffer(w) for w in widths], [buffer(w, bool) for w in widths[:-1]],
            [buffer(w) for w in widths])


def _product(a, b, out):
    """`a @ b` into `out`, batched over the members.

    With inner dimension 1 every entry is one product. numpy's matmul forms
    it as 0 + a*b outside BLAS; einsum over the length-1 axis forms the same
    number in one pass, where matmul and a broadcast multiply both loop over
    short rows. Any other product is one BLAS call per member.
    """
    if a.shape[-1] == 1:
        return np.einsum("kio,koj->kij", a, b, out=out)
    return np.matmul(a, b, out=out)


def _mse_and_grads(Ws, WTs, bs, X, Y, gWs, gbs, work):
    """Full-batch MSE loss of each stacked member, and its parameter
    gradients by backpropagation.

    `Ws[s]` is (S, out, in), `WTs[s]` its transpose, `bs[s]` (S, 1, out),
    X (S, n, in) and `work` the buffers of `_workspace`; the gradients are
    written into `gWs` and `gbs`, of the parameters' shapes. Returns the
    (S,) losses.

    Each member rounds as the same computation on its own 2-d arrays does:
    - A product with inner dimension 1 (`X @ W0ᵀ`, and `delta @ W` back
      through a width-1 layer) is one product per entry (`_product`).
    - Every other product, the weight gradients `deltaᵀ @ a` over the n
      samples and any product over a hidden width, is one BLAS call per
      member on its unit-stride slices, with the 2-d product's transpose
      flags.
    - The loss and the bias gradient of a width-1 layer sum each member's
      contiguous column pairwise, as numpy sums a vector. The bias gradient
      of a wider layer sums sequentially over n, as numpy sums the rows of
      a matrix.
    """
    n = X.shape[1]
    acts, masks, deltas = work
    last = len(Ws) - 1
    a = X
    for s, (WT, b) in enumerate(zip(WTs, bs)):
        a = _product(a, WT, acts[s])
        a += b
        if s < last:
            np.greater(a, 0.0, out=masks[s])
            np.maximum(a, 0.0, out=a)
    # once the residual is taken, the output buffer holds its square
    resid = np.subtract(a, Y, out=deltas[last])
    loss = np.add.reduce(np.square(resid, out=a), axis=(1, 2)) / n
    # delta = 2 resid / n, rounded as written
    resid *= 2.0
    resid /= n
    for s in range(last, -1, -1):
        delta = deltas[s]
        np.matmul(delta.transpose(0, 2, 1), acts[s - 1] if s else X, out=gWs[s])
        np.add.reduce(delta, axis=1, keepdims=True, out=gbs[s])
        if s > 0:
            below = _product(delta, Ws[s], deltas[s - 1])
            below *= masks[s - 1]
    return loss


def train_relu_network(data, seed: int, target_fn=None) -> ReluNetwork:
    """Fit a ReLU MLP to (input, target) pairs by full-batch Adam.

    The one-member case of `train_relu_networks`: raises the member's
    `TrainingDivergence` when its loss turns non-finite.
    """
    net, = train_relu_networks(data, [seed], target_fn)
    if isinstance(net, TrainingDivergence):
        raise net
    return net


def train_relu_networks(data, seeds, target_fn=None) -> list:
    """Fit one ReLU MLP per seed to the same (input, target) pairs, all in
    one stacked Adam run.

    Deterministic per seed, and each member equal to the network trained
    alone: Glorot-uniform init from `default_rng(seed)`, fixed iteration
    budget, inputs and targets standardized with the scaling folded back
    into the first and last layers. When `target_fn` is given, `holdout_r2`
    over the input range (drawn from the member's generator after init) is
    stored on its network; training R^2 is always stored (NaN when the
    target is constant, where R^2 is undefined). Returns, per seed, the
    trained `ReluNetwork` or the `TrainingDivergence` its loss ran into.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("train_relu_networks needs at least one seed")
    arr = _training_pairs(data)
    x, yv = arr[:, :1], arr[:, 1:]

    mx, sx = x.mean(), x.std()
    my, sy = yv.mean(), yv.std()
    sy_eff = sy if sy > 0 else 1.0
    Xs = (x - mx) / sx
    Ys = (yv - my) / sy_eff

    sizes = [1] + [HIDDEN_NEURONS] * HIDDEN_LAYERS + [1]
    rngs = [np.random.default_rng(s) for s in seeds]
    members = [_glorot_init(sizes, rng) for rng in rngs]

    # overflow inside the loop is not an error by itself: divergence is
    # detected through the finiteness check on each member's loss
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = _stacked_adam_loop(members, Xs, Ys)

    lo, hi = float(x.min()), float(x.max())
    out = []
    for seed, rng, (Ws, bs), err in zip(seeds, rngs, members, diverged):
        if err is not None:
            out.append(err)
            continue
        # fold the standardization into the first and last affine maps so
        # the stored network works in raw units
        Ws[0] = Ws[0] / sx
        bs[0] = bs[0] - (Ws[0] @ np.array([mx])).ravel()
        Ws[-1] = Ws[-1] * sy_eff
        bs[-1] = bs[-1] * sy_eff + my
        net = ReluNetwork(tuple(sizes), Ws, bs, ((lo, hi),), clamp_output=True,
                          seed=seed)
        net.train_r2 = _r_squared(forward(net, x[:, 0]), yv[:, 0])
        if target_fn is not None:
            net.test_r2 = holdout_r2(net, target_fn, (lo, hi), rng)
        out.append(net)
    return out


def _training_pairs(data) -> np.ndarray:
    """`data` as an (n, 2) float array of finite (m_f, target) pairs with at
    least 2 distinct m_f, the input both trainers take."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be (n, 2) pairs of (input, target)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("training data must be finite")
    if arr.shape[0] < 2 or np.unique(arr[:, 0]).size < 2:
        raise DegenerateDataError("need at least 2 distinct inputs")
    return arr


def _glorot_init(sizes, rng):
    """Glorot-uniform weights and zero biases, drawn layer by layer."""
    Ws, bs = [], []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (nin + nout))
        Ws.append(rng.uniform(-limit, limit, size=(nout, nin)))
        bs.append(np.zeros(nout))
    return Ws, bs


def holdout_r2(sur, target_fn, box: tuple[float, float], rng) -> float:
    """R^2 against `target_fn` on 100 points drawn from `box` by `rng`."""
    xs = rng.uniform(box[0], box[1], 100)
    truth = np.array([target_fn(v) for v in xs])
    pred = (xs * sur.slope + sur.intercept if isinstance(sur, LinearSurrogate)
            else forward(sur, xs))
    return _r_squared(pred, truth)


def _r_squared(pred, truth) -> float:
    sst = float(np.sum((truth - truth.mean()) ** 2))
    if sst == 0.0:
        return float("nan")
    return 1.0 - float(np.sum((pred - truth) ** 2)) / sst


def fit_linear_regression(data) -> LinearSurrogate:
    """Exact least squares of the target on [m_f, 1], over the (m_f, target)
    pairs `train_relu_networks` takes."""
    arr = _training_pairs(data)
    X = np.hstack([arr[:, :1], np.ones((arr.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(X, arr[:, 1], rcond=None)
    return LinearSurrogate(slope=float(coef[0]), intercept=float(coef[1]))


def breakpoints(net: ReluNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints `xs` of the network over its input box, and its values
    `fs = forward(net, xs)`.

    Starting from the box ends, each hidden layer in turn (and the output
    clamp, when set) adds the zero crossings of its pre-activations between
    consecutive points. The layers before it are affine between consecutive
    points, so its pre-activations are too and each crossing is exact; the
    network then equals the linear interpolation of (xs, fs) on the box.
    """
    xs = np.unique(net.input_box[0])
    for s in range(len(net.weights) - 1 + net.clamp_output):
        a = xs[:, None]
        for W, b in zip(net.weights[:s], net.biases[:s]):
            a = np.maximum(a @ W.T + b, 0.0)
        z = a @ net.weights[s].T + net.biases[s]
        i, k = np.nonzero(z[:-1] * z[1:] < 0.0)
        share = z[i, k] / (z[i, k] - z[i + 1, k])
        xs = np.unique(np.concatenate([xs, xs[i] + share * (xs[i + 1] - xs[i])]))
    return xs, forward(net, xs)


def embed_network(model: MilpModel, net: ReluNetwork, input_var: int,
                  output_var: int, tag: str):
    """Encode the network exactly into the model, as the piecewise-linear
    function it is over its input box.

    With `xs, fs = breakpoints(net)`, the incremental (delta) method: a fill
    variable d_k in [0, 1] per segment, a binary w_k per inner breakpoint
    with d_{k+1} <= w_k <= d_k, and the rows x = xs[0] + sum d_k (xs[k+1] -
    xs[k]) and F = fs[0] + sum d_k (fs[k+1] - fs[k]) for the input x and
    the output F. Its LP relaxation is locally ideal (Vielma, Ahmed &
    Nemhauser 2010). The input variable's bounds must lie inside the box.
    """
    xs, fs = breakpoints(net)
    x = model.variables[input_var]
    if x.lower < xs[0] - 1e-9 or x.upper > xs[-1] + 1e-9:
        raise ValueError(
            f"input variable {x.name!r} bounds [{x.lower}, {x.upper}] exceed "
            f"the surrogate's trained box [{xs[0]}, {xs[-1]}]")
    fill = [model.add_variable(f"{tag}:d{k}", lower=0.0, upper=1.0)
            for k in range(len(xs) - 1)]
    for k in range(1, len(fill)):
        w = model.add_variable(f"{tag}:w{k}", "binary")
        model.add_constraint([(w, 1.0), (fill[k - 1], -1.0)], "<=", 0.0,
                             tag=f"{tag}:fill{k}_a")
        model.add_constraint([(fill[k], 1.0), (w, -1.0)], "<=", 0.0,
                             tag=f"{tag}:fill{k}_b")
    for vid, pts, name in ((input_var, xs, "in"), (output_var, fs, "out")):
        model.add_constraint([(vid, 1.0)] + [(d, -float(c)) for d, c in
                                             zip(fill, np.diff(pts))],
                             "=", float(pts[0]), tag=f"{tag}:{name}")
    _tighten(model, output_var, float(fs.min()), float(fs.max()))


def _tighten(model: MilpModel, vid: int, lo: float, hi: float):
    v = model.variables[vid]
    v.lower = max(v.lower, lo)
    v.upper = min(v.upper, hi)
    if v.lower > v.upper:
        raise ValueError(f"variable {v.name!r} bounds emptied by surrogate range "
                         f"[{lo}, {hi}]")


# -- serialization ----------------------------------------------------------

def surrogate_to_dict(net) -> dict:
    if isinstance(net, LinearSurrogate):
        return {"beta": [net.slope], "intercept": net.intercept}
    return {
        "layer_sizes": list(net.layer_sizes),
        "weights": [[float(v) for v in W.ravel()] for W in net.weights],
        "biases": [[float(v) for v in b] for b in net.biases],
        "input_box": [list(b) for b in net.input_box],
        "clamp_output": net.clamp_output,
        "seed": net.seed,
        "train_r2": net.train_r2,
        "test_r2": net.test_r2,
    }


def surrogate_from_dict(doc: dict):
    """Inverse of `surrogate_to_dict`; a missing or ill-typed field, a
    non-finite linear coefficient or a broken network rule raises ValueError
    naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"a surrogate must be a JSON object, not {type(doc).__name__}")

    def get(name, convert, *default):
        try:
            return convert(doc[name]) if name in doc or not default else default[0]
        except KeyError:
            raise ValueError(f"surrogate field {name!r} is missing") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"surrogate field {name!r} is ill-typed: {exc}") from None

    def boolean(v):
        if not isinstance(v, bool):
            raise TypeError(f"expected true or false, got {v!r}")
        return v

    def integer(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"expected an integer, got {v!r}")
        return v

    def one_number(v):
        if not isinstance(v, list) or len(v) != 1:
            raise TypeError(f"expected a list of one number, the slope, got {v!r}")
        return float(v[0])

    if "layer_sizes" not in doc:
        slope = get("beta", one_number)
        intercept = get("intercept", float)
        for name, v in (("beta", slope), ("intercept", intercept)):
            if not math.isfinite(v):
                raise ValueError(f"surrogate field {name!r} must be finite, got {v}")
        return LinearSurrogate(slope=slope, intercept=intercept)
    sizes = get("layer_sizes", lambda v: tuple(integer(n) for n in v))
    shapes = list(zip(sizes[1:], sizes[:-1]))
    return ReluNetwork(
        sizes,
        get("weights", lambda v: [np.asarray(a, dtype=float).reshape(shape)
                                  for shape, a in zip(shapes, v, strict=True)]),
        get("biases", lambda v: [np.asarray(a, dtype=float).reshape(shape[0])
                                 for shape, a in zip(shapes, v, strict=True)]),
        get("input_box", lambda v: tuple((float(lo), float(hi)) for lo, hi in v)),
        clamp_output=get("clamp_output", boolean, True),
        seed=get("seed", lambda v: None if v is None else integer(v), None),
        train_r2=get("train_r2", float, math.nan),
        test_r2=get("test_r2", float, math.nan),
    )


def save_surrogate(net, path: str):
    with open(path, "w") as fh:
        json.dump(surrogate_to_dict(net), fh, indent=1)


def load_surrogate(path: str):
    with open(path) as fh:
        return surrogate_from_dict(json.load(fh))
