import weakref

import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan import spaces
from bwgan.nets import MLP


def central_diff(f, x, h=1e-4):
    """Finite-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return g


def test_forward_sum_of_squares():
    x = ad.Input((2,), name="x")
    out = ad.sum_all(ad.abs_pow(x, 2.0))
    assert float(ad.evaluate(out, {x: np.array([3.0, 4.0])})) == 25.0


def test_forward_tanh_at_origin():
    x = ad.Input((), name="x")
    assert float(ad.evaluate(ad.tanh(x), {x: np.zeros(())})) == 0.0


def test_forward_mlp_deterministic():
    results = []
    for _ in range(2):
        mlp = MLP(4, (8, 8, 8), 1, "tanh", rng=np.random.default_rng(42))
        x = ad.Input((1, 4), name="x")
        out = ad.sum_all(mlp.apply(x))
        env = mlp.env()
        env[x] = np.linspace(-1.0, 1.0, 4).reshape(1, 4)
        results.append(float(ad.evaluate(out, env)))
    assert results[0] == results[1]


def test_forward_shape_mismatch_names_node():
    x = ad.Input((3,), name="bad_input")
    with pytest.raises(ad.ShapeError, match="bad_input"):
        ad.evaluate(ad.sum_all(x), {x: np.zeros(4)})


def test_gradient_square():
    x = ad.Input((), name="x")
    gnode = ad.grad(ad.mul(x, x), x)
    assert ad.evaluate(gnode, {x: np.asarray(3.0)}) == pytest.approx(6.0)


def test_gradient_dot_is_coefficients():
    a = np.array([1.5, -2.0, 0.25])
    x = ad.Input((3,), name="x")
    gnode = ad.grad(ad.sum_all(ad.mul(ad.Constant(a), x)), x)
    np.testing.assert_allclose(ad.evaluate(gnode, {x: np.array([9.0, 1.0, -3.0])}), a)


def test_gradient_rejects_nonscalar():
    x = ad.Input((3,), name="x")
    with pytest.raises(ad.GraphError):
        ad.grad(ad.mul(x, x), x)


def test_gradient_mlp_matches_finite_differences():
    rng = np.random.default_rng(0)
    mlp = MLP(5, (8, 8), 1, "tanh", rng=rng)
    x = ad.Input((1, 5), name="x")
    out = ad.sum_all(mlp.apply(x))
    gnode = ad.grad(out, x)

    def value(v):
        env = mlp.env()
        env[x] = v.reshape(1, 5)
        return float(ad.evaluate(out, env))

    x0 = rng.standard_normal(5)
    env = mlp.env()
    env[x] = x0.reshape(1, 5)
    got = ad.evaluate(gnode, env).ravel()
    want = central_diff(value, x0.copy()).ravel()
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_double_backprop_cube():
    # f(x) = x^3, h = (f')^2 = 9 x^4, dh/dx at 1 is 36
    x = ad.Input((), name="x")
    gx = ad.grad(ad.mul(ad.mul(x, x), x), x)
    got = ad.evaluate(ad.grad(ad.mul(gx, gx), x), {x: np.asarray(1.0)})
    assert got == pytest.approx(36.0)


def test_double_backprop_linear_penalty():
    # f(x) = theta * x, penalty (|f'| - 1)^2 at theta = 2 -> d/dtheta = 2
    x = ad.Input((), name="x")
    theta = ad.Input((), name="theta")
    gx = ad.grad(ad.mul(theta, x), x)
    excess = ad.sub(ad.abs_pow(gx, 1.0), ad.Constant(1.0))
    penalty = ad.mul(excess, excess)
    got = ad.evaluate(ad.grad(penalty, [theta]),
                      {x: np.asarray(0.7), theta: np.asarray(2.0)})
    assert got[0] == pytest.approx(2.0)


def test_double_backprop_mlp_matches_finite_differences():
    rng = np.random.default_rng(1)
    mlp = MLP(4, (6,), 1, "softplus", rng=rng)
    x = ad.Input((1, 4), name="x")
    out = ad.sum_all(mlp.apply(x))
    param_nodes = [mlp.nodes[k] for k in mlp.param_names()]
    x0 = rng.standard_normal(4).reshape(1, 4)

    # (||grad_x D||_2 - 1)^2
    gx = ad.grad(out, x)
    norm = ad.abs_pow(ad.sum_all(ad.mul(gx, gx)), 0.5)
    excess = ad.sub(norm, ad.Constant(1.0))
    env = mlp.env()
    env[x] = x0
    grads = ad.evaluate(ad.grad(ad.mul(excess, excess), param_nodes), env)

    def penalty_value():
        env = mlp.env()
        env[x] = x0
        gx = ad.evaluate(ad.grad(out, x), env)
        return (np.linalg.norm(gx) - 1.0) ** 2

    h = 1e-5
    for name, got in zip(mlp.param_names(), grads):
        flat = mlp.params[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = penalty_value()
            flat[i] = orig - h
            lo = penalty_value()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * h)
            assert got.reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# Per-op finite-difference property checks
# ---------------------------------------------------------------------------

OP_CASES = [
    ("add", lambda x: ad.sum_all(ad.add(x, ad.Constant(np.arange(6.0).reshape(2, 3)))), (2, 3), None),
    ("sub", lambda x: ad.sum_all(ad.mul(ad.sub(x, 1.0), ad.sub(x, 1.0))), (2, 3), None),
    ("mul", lambda x: ad.sum_all(ad.mul(x, x)), (4,), None),
    ("matmul", lambda x: ad.sum_all(ad.matmul(x, ad.Constant(np.ones((3, 2))))), (2, 3), None),
    ("affine", lambda x: ad.sum_all(ad.affine(x, ad.Constant(np.eye(3)), ad.Constant(np.array([1.0, 2.0, 3.0])))), (2, 3), None),
    ("tanh", lambda x: ad.sum_all(ad.tanh(x)), (5,), None),
    ("softplus", lambda x: ad.sum_all(ad.softplus(x)), (5,), None),
    ("relu", lambda x: ad.sum_all(ad.relu(x)), (5,), "offset"),
    ("abs_pow", lambda x: ad.sum_all(ad.abs_pow(x, 1.7)), (5,), "offset"),
    ("sum", lambda x: ad.mul(ad.sum_all(x), ad.sum_all(x)), (3, 2), None),
    ("mean", lambda x: ad.mul(ad.mean_all(x), ad.mean_all(x)), (6,), None),
    ("sum_rows", lambda x: ad.sum_all(ad.abs_pow(ad.sum_rows(x), 2.0)), (3, 4), None),
    ("sum_cols", lambda x: ad.sum_all(ad.abs_pow(ad.sum_cols(x), 2.0)), (3, 4), None),
    ("slice_pad", lambda x: ad.sum_all(ad.mul(ad.slice_cols(x, 1, 3), ad.slice_cols(x, 1, 3))), (2, 4), None),
    ("fourier", lambda x: ad.sum_all(ad.abs_pow(spaces.norm_rows(spaces.sobolev_space(1.5, 2.0, (2, 2, 2)), x), 2.0)), (3, 8), None),
]


@pytest.mark.parametrize("name,build,shape,domain", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradient_matches_finite_differences(name, build, shape, domain):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.standard_normal(shape)
    if domain == "offset":
        x0 = x0 + np.where(x0 >= 0, 0.5, -0.5)  # keep away from kinks
    x = ad.Input(shape, name="x")
    out = build(x)
    gnode = ad.grad(out, x)
    got = ad.evaluate(gnode, {x: x0})

    def value(v):
        return float(ad.evaluate(out, {x: v.reshape(shape)}))

    want = central_diff(value, x0.copy())
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


# f(x) whose input gradient depends on x, so the gradient of |grad f|^2
# runs through the vjp of every node in the first gradient
SECOND_ORDER_CASES = [
    ("sum_all", lambda x: ad.tanh(ad.sum_all(x))),
    ("sum_rows", lambda x: ad.sum_all(ad.tanh(ad.sum_rows(x)))),
    ("sum_cols", lambda x: ad.sum_all(ad.tanh(ad.sum_cols(x)))),
    ("slice_cols", lambda x: ad.sum_all(ad.tanh(ad.slice_cols(x, 1, 3)))),
]


@pytest.mark.parametrize("name,build", SECOND_ORDER_CASES,
                         ids=[c[0] for c in SECOND_ORDER_CASES])
def test_second_derivative_matches_finite_differences(name, build):
    x0 = np.random.default_rng(len(name)).standard_normal((3, 4))
    x = ad.Input((3, 4), name="x")
    gx = ad.grad(build(x), x)
    grad_sq = ad.sum_all(ad.mul(gx, gx))
    got = ad.evaluate(ad.grad(grad_sq, x), {x: x0})

    def value(v):
        return float(ad.evaluate(grad_sq, {x: v}))

    np.testing.assert_allclose(got, central_diff(value, x0.copy()), rtol=1e-6, atol=1e-9)


def test_gradient_linearity():
    x = ad.Input((4,), name="x")
    f1 = ad.sum_all(ad.abs_pow(x, 2.0))
    f2 = ad.sum_all(ad.mul(ad.Constant(np.array([1.0, -1.0, 2.0, 0.5])), x))
    x0 = np.array([0.3, -1.2, 2.0, 0.7])
    g_sum = ad.evaluate(ad.grad(ad.add(f1, f2), x), {x: x0})
    g_parts = ad.evaluate(ad.grad(f1, x), {x: x0}) + ad.evaluate(ad.grad(f2, x), {x: x0})
    np.testing.assert_allclose(g_sum, g_parts, atol=1e-12)


def test_forward_and_gradient_bit_identical_on_rerun():
    rng = np.random.default_rng(7)
    mlp = MLP(6, (10, 10), 1, "relu", rng=rng)
    x = ad.Input((2, 6), name="x")
    out = ad.sum_all(mlp.apply(x))
    gnode = ad.grad(out, x)
    x0 = rng.standard_normal((2, 6))
    env = mlp.env()
    env[x] = x0
    v1, g1 = float(ad.evaluate(out, env)), ad.evaluate(gnode, env)
    v2, g2 = float(ad.evaluate(out, env)), ad.evaluate(gnode, env)
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_unsupported_broadcast_rejected():
    a = ad.Input((2, 3), name="a")
    b = ad.Input((3, 2), name="b")
    with pytest.raises(ad.ShapeError):
        ad.add(a, b)


def fft_reference(x, spatial_shape, s, frequency_scale):
    """F^-1 [(1 + |xi|^2)^(s/2) F x] by complex FFTs over the trailing one
    or two axes of signals in the layout ``spatial_shape``."""
    lengths = spatial_shape[-1:] if len(spatial_shape) == 1 else spatial_shape[-2:]
    xi = np.meshgrid(*[frequency_scale * np.fft.fftfreq(n) * 2.0 for n in lengths],
                     indexing="ij")
    mult = (1.0 + sum(k ** 2 for k in xi)) ** (s / 2.0)
    axes = tuple(range(-len(lengths), 0))
    return np.fft.ifftn(mult * np.fft.fftn(x, axes=axes), axes=axes).real


FOURIER_SHAPES = [(8,), (16, 16), (2, 8, 8), (4, 16)]


def apply_operator(x, spatial_shape, s, frequency_scale):
    """Signals in the flattened layout times the Sobolev operator."""
    K = spaces.sobolev_operator(spatial_shape, s, frequency_scale)
    return (x.reshape(-1, len(K)) @ K).reshape(x.shape)


@pytest.mark.parametrize("spatial_shape", FOURIER_SHAPES)
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
def test_fourier_multiplier_matches_complex_fft(spatial_shape, batch):
    rng = np.random.default_rng(len(spatial_shape) * 100 + spatial_shape[-1])
    x0 = rng.standard_normal(batch + (int(np.prod(spatial_shape)),))
    for s, frequency_scale in [(1.5, 5.0), (-1.0, 5.0), (2.0, 1.3)]:
        got = apply_operator(x0, spatial_shape, s, frequency_scale)
        want = fft_reference(x0.reshape(batch + spatial_shape), spatial_shape, s,
                             frequency_scale)
        np.testing.assert_allclose(got, want.reshape(x0.shape), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spatial_shape", FOURIER_SHAPES)
def test_fourier_multiplier_is_self_adjoint(spatial_shape):
    K = spaces.sobolev_operator(spatial_shape, 1.5, 5.0)
    n = int(np.prod(spaces.fft_lengths(spatial_shape)))
    assert K.shape == (n, n)
    assert np.array_equal(K, K.T)
    rng = np.random.default_rng(spatial_shape[-1])
    x0, y0 = rng.standard_normal((2, int(np.prod(spatial_shape))))
    mx = apply_operator(x0, spatial_shape, 1.5, 5.0)
    my = apply_operator(y0, spatial_shape, 1.5, 5.0)
    assert np.dot(mx, y0) == pytest.approx(np.dot(x0, my), rel=0, abs=1e-12)


def test_sobolev_operator_is_cached_and_read_only():
    K = spaces.sobolev_operator((8, 8), 1.0, 5.0)
    assert spaces.sobolev_operator((8, 8), 1.0, 5.0) is K
    with pytest.raises(ValueError):
        K[0, 0] = 0.0


def test_sobolev_dual_norm_second_derivative_matches_finite_differences():
    # the (c, h, w) layout reshapes each row into c signals around the matmul
    space = spaces.sobolev_space(1.0, 2.0, (2, 2, 4))
    x0 = np.random.default_rng(19).standard_normal((3, 16))
    x = ad.Input((3, 16), name="x")
    gx = ad.grad(ad.sum_all(ad.tanh(spaces.dual_norm_rows(space, x))), x)
    grad_sq = ad.sum_all(ad.mul(gx, gx))
    got = ad.evaluate(ad.grad(grad_sq, x), {x: x0})

    def value(v):
        return float(ad.evaluate(grad_sq, {x: v}))

    np.testing.assert_allclose(got, central_diff(value, x0.copy()), rtol=1e-6, atol=1e-9)


def test_step_gradient_is_zeros():
    x = ad.Input((3, 4), name="x")
    g = ad.grad(ad.sum_all(ad.step(x)), x)
    got = ad.evaluate(g, {x: np.linspace(-1.0, 1.0, 12).reshape(3, 4)})
    assert got.shape == (3, 4)
    assert not np.any(got)


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

def test_program_returns_a_root_that_another_root_consumes():
    x = ad.Input((2, 3), name="x")
    inner = ad.tanh(x)
    outer = ad.sum_all(ad.mul(inner, inner))
    x0 = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    got_outer, got_inner = ad.Program([outer, inner])({x: x0})
    np.testing.assert_array_equal(got_inner, np.tanh(x0))
    assert got_outer == np.sum(np.tanh(x0) * np.tanh(x0))
    np.testing.assert_array_equal(ad.Program(inner)({x: x0}), np.tanh(x0))


class Watch(ad.Node):
    """Keeps a weak reference to its operand's value."""

    def __init__(self, a, refs):
        super().__init__((), (a,))
        self.refs = refs

    def compute(self, a):
        self.refs.append(weakref.ref(a))
        return np.zeros(())


class Probe(ad.Node):
    """Records whether the watched value is still alive when it runs."""

    def __init__(self, a, b, refs, alive):
        super().__init__((), (a, b))
        self.refs, self.alive = refs, alive

    def compute(self, a, b):
        self.alive.append(self.refs[-1]() is not None)
        return a + b


def test_program_releases_a_value_after_its_last_consumer():
    refs, alive = [], []
    x = ad.Input((3,), name="x")
    upstream = ad.tanh(x)
    last_consumer = ad.sum_all(upstream)
    # runs after last_consumer: the schedule is x, upstream, Watch, last_consumer, Probe
    root = Probe(Watch(upstream, refs), last_consumer, refs, alive)
    program = ad.Program(root)
    assert float(program({x: np.ones(3)})) == pytest.approx(3 * np.tanh(1.0))
    assert alive == [False]
    cache = {}
    ad.evaluate(root, {x: np.ones(3)}, cache)
    assert alive == [False, True]


def test_evaluate_fills_cache_with_every_value():
    x = ad.Input((2, 2), name="x")
    h = ad.relu(ad.matmul(x, ad.Constant(np.array([[1.0, -1.0], [2.0, 0.5]]))))
    out = ad.sum_all(h)
    gx = ad.grad(out, x)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    cache = {}
    got_out, got_gx = ad.evaluate([out, gx], {x: x0}, cache)
    assert set(cache) == set(ad.topo_order([out, gx]))
    np.testing.assert_array_equal(cache[x], x0)
    np.testing.assert_array_equal(cache[h], np.maximum(x0 @ [[1.0, -1.0], [2.0, 0.5]], 0.0))
    assert cache[out] is got_out and cache[gx] is got_gx
