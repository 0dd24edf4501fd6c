import warnings
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
    out = ad.Sum(ad.AbsPow(x, 2.0))
    assert float(ad.evaluate(out, {x: np.array([3.0, 4.0])})) == 25.0


def test_forward_tanh_at_origin():
    x = ad.Input((), name="x")
    assert float(ad.evaluate(ad.Tanh(x), {x: np.zeros(())})) == 0.0


def test_forward_mlp_deterministic():
    results = []
    for _ in range(2):
        mlp = MLP(4, (8, 8, 8), 1, "tanh", rng=np.random.default_rng(42))
        x = ad.Input((1, 4), name="x")
        out = ad.Sum(mlp.apply(x))
        env = mlp.env()
        env[x] = np.linspace(-1.0, 1.0, 4).reshape(1, 4)
        results.append(float(ad.evaluate(out, env)))
    assert results[0] == results[1]


def test_forward_shape_mismatch_names_node():
    x = ad.Input((3,), name="bad_input")
    with pytest.raises(ad.ShapeError, match="bad_input"):
        ad.evaluate(ad.Sum(x), {x: np.zeros(4)})


def test_gradient_square():
    x = ad.Input((), name="x")
    gnode = ad.grad(ad.Mul(x, x), x)
    assert ad.evaluate(gnode, {x: np.asarray(3.0)}) == pytest.approx(6.0)


def test_gradient_dot_is_coefficients():
    a = np.array([1.5, -2.0, 0.25])
    x = ad.Input((3,), name="x")
    gnode = ad.grad(ad.Sum(ad.Mul(ad.Constant(a), x)), x)
    np.testing.assert_allclose(ad.evaluate(gnode, {x: np.array([9.0, 1.0, -3.0])}), a)


def test_gradient_rejects_nonscalar():
    x = ad.Input((3,), name="x")
    with pytest.raises(ad.GraphError):
        ad.grad(ad.Mul(x, x), x)


def test_gradient_mlp_matches_finite_differences():
    rng = np.random.default_rng(0)
    mlp = MLP(5, (8, 8), 1, "tanh", rng=rng)
    x = ad.Input((1, 5), name="x")
    out = ad.Sum(mlp.apply(x))
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
    gx = ad.grad(ad.Mul(ad.Mul(x, x), x), x)
    got = ad.evaluate(ad.grad(ad.Mul(gx, gx), x), {x: np.asarray(1.0)})
    assert got == pytest.approx(36.0)


def test_double_backprop_linear_penalty():
    # f(x) = theta * x, penalty (|f'| - 1)^2 at theta = 2 -> d/dtheta = 2
    x = ad.Input((), name="x")
    theta = ad.Input((), name="theta")
    gx = ad.grad(ad.Mul(theta, x), x)
    excess = ad.Sub(ad.AbsPow(gx, 1.0), ad.Constant(1.0))
    penalty = ad.Mul(excess, excess)
    got = ad.evaluate(ad.grad(penalty, [theta]),
                      {x: np.asarray(0.7), theta: np.asarray(2.0)})
    assert got[0] == pytest.approx(2.0)


def test_double_backprop_mlp_matches_finite_differences():
    rng = np.random.default_rng(1)
    mlp = MLP(4, (6,), 1, "softplus", rng=rng)
    x = ad.Input((1, 4), name="x")
    out = ad.Sum(mlp.apply(x))
    param_nodes = [mlp.nodes[k] for k in mlp.param_names()]
    x0 = rng.standard_normal(4).reshape(1, 4)

    # (||grad_x D||_2 - 1)^2
    gx = ad.grad(out, x)
    norm = ad.AbsPow(ad.Sum(ad.Mul(gx, gx)), 0.5)
    excess = ad.Sub(norm, ad.Constant(1.0))
    env = mlp.env()
    env[x] = x0
    grads = ad.evaluate(ad.grad(ad.Mul(excess, excess), param_nodes), env)

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
    ("add", lambda x: ad.Sum(ad.Add(x, ad.Constant(np.arange(6.0).reshape(2, 3)))), (2, 3), None),
    ("sub", lambda x: ad.Sum(ad.Mul(ad.Sub(x, 1.0), ad.Sub(x, 1.0))), (2, 3), None),
    ("mul", lambda x: ad.Sum(ad.Mul(x, x)), (4,), None),
    ("matmul", lambda x: ad.Sum(ad.MatMul(x, ad.Constant(np.ones((3, 2))))), (2, 3), None),
    ("affine", lambda x: ad.Sum(ad.affine(x, ad.Constant(np.eye(3)), ad.Constant(np.array([1.0, 2.0, 3.0])))), (2, 3), None),
    ("tanh", lambda x: ad.Sum(ad.Tanh(x)), (5,), None),
    ("softplus", lambda x: ad.Sum(ad.Softplus(x)), (5,), None),
    ("relu", lambda x: ad.Sum(ad.Relu(x)), (5,), "offset"),
    ("abs_pow", lambda x: ad.Sum(ad.AbsPow(x, 1.7)), (5,), "offset"),
    ("sum", lambda x: ad.Mul(ad.Sum(x), ad.Sum(x)), (3, 2), None),
    ("mean", lambda x: ad.Mul(ad.mean_all(x), ad.mean_all(x)), (6,), None),
    ("sum_rows", lambda x: ad.Sum(ad.AbsPow(ad.Sum(x, 1), 2.0)), (3, 4), None),
    ("sum_cols", lambda x: ad.Sum(ad.AbsPow(ad.Sum(x, 0), 2.0)), (3, 4), None),
    # a product space selects each factor's columns by a matmul
    ("product", lambda x: ad.Sum(ad.AbsPow(spaces.norm_rows(spaces.product_space(
        [(spaces.lp_space(1.5), 1), (spaces.lp_space(4.0), 3)], p=3.0), x), 2.0)), (3, 4), "offset"),
    ("fourier", lambda x: ad.Sum(ad.AbsPow(spaces.norm_rows(spaces.sobolev_space(1.5, 2.0, (2, 2, 2)), x), 2.0)), (3, 8), None),
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
    ("sum_all", lambda x: ad.Tanh(ad.Sum(x))),
    ("sum_rows", lambda x: ad.Sum(ad.Tanh(ad.Sum(x, 1)))),
    ("sum_cols", lambda x: ad.Sum(ad.Tanh(ad.Sum(x, 0)))),
    # a product space selects each factor's columns by a matmul; its dual
    # factors, L^2 and L^4, are smooth enough for central differences here
    ("product", lambda x: ad.Sum(ad.Tanh(spaces.dual_norm_rows(spaces.product_space(
        [(spaces.lp_space(2.0), 2), (spaces.lp_space(4.0 / 3.0), 2)], p=1.5), x)))),
]


@pytest.mark.parametrize("name,build", SECOND_ORDER_CASES,
                         ids=[c[0] for c in SECOND_ORDER_CASES])
def test_second_derivative_matches_finite_differences(name, build):
    x0 = np.random.default_rng(len(name)).standard_normal((3, 4))
    x = ad.Input((3, 4), name="x")
    gx = ad.grad(build(x), x)
    grad_sq = ad.Sum(ad.Mul(gx, gx))
    got = ad.evaluate(ad.grad(grad_sq, x), {x: x0})

    def value(v):
        return float(ad.evaluate(grad_sq, {x: v}))

    np.testing.assert_allclose(got, central_diff(value, x0.copy()), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("signed", [False, True], ids=["abs", "signed"])
@pytest.mark.parametrize("exponent", [-0.5, 0.5, 1.5, 3.0])
def test_power_forms_match_finite_differences_to_second_order(exponent, signed):
    # each form's vjp builds the other form at exponent - 1, so the second
    # derivative runs through both forms; entries of both signs, away from
    # the kink at 0, tell the forms apart
    x0 = np.random.default_rng(11).uniform(0.5, 2.0, (2, 3)) * np.array([1.0, -1.0, -1.0])
    w = np.array([0.7, -1.3, 0.4])
    x = ad.Input((2, 3), name="x")
    f = ad.Sum(ad.AbsPow(x, exponent, signed=signed))
    gx = ad.grad(f, x)
    slope = ad.Sum(ad.Mul(gx, w))

    def value(node):
        return lambda v: float(ad.evaluate(node, {x: v}))

    for node, want in ((f, gx), (slope, ad.grad(slope, x))):
        np.testing.assert_allclose(ad.evaluate(want, {x: x0}),
                                   central_diff(value(node), x0.copy()), rtol=1e-6, atol=1e-9)


def test_gradient_linearity():
    x = ad.Input((4,), name="x")
    f1 = ad.Sum(ad.AbsPow(x, 2.0))
    f2 = ad.Sum(ad.Mul(ad.Constant(np.array([1.0, -1.0, 2.0, 0.5])), x))
    x0 = np.array([0.3, -1.2, 2.0, 0.7])
    g_sum = ad.evaluate(ad.grad(ad.Add(f1, f2), x), {x: x0})
    g_parts = ad.evaluate(ad.grad(f1, x), {x: x0}) + ad.evaluate(ad.grad(f2, x), {x: x0})
    np.testing.assert_allclose(g_sum, g_parts, atol=1e-12)


def test_forward_and_gradient_bit_identical_on_rerun():
    rng = np.random.default_rng(7)
    mlp = MLP(6, (10, 10), 1, "relu", rng=rng)
    x = ad.Input((2, 6), name="x")
    out = ad.Sum(mlp.apply(x))
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
    for op in (ad.Add, ad.Sub, ad.Mul):
        with pytest.raises(ad.ShapeError, match=rf"^{op.__name__.lower()}: incompatible "
                                                r"shapes \(2, 3\) and \(3, 2\)$"):
            op(a, b)


SHAPE_ERRORS = {
    "matmul": (lambda a: ad.MatMul(a, a), r"^matmul: incompatible shapes \(2, 3\) @ \(2, 3\)$"),
    "transpose": (lambda a: ad.Transpose(ad.Sum(a, 1)), r"^transpose: need 2-D, got \(2,\)$"),
    "reshape": (lambda a: ad.Reshape(a, (4,)), r"^reshape: \(2, 3\) -> \(4,\) changes size$"),
    "sum": (lambda a: ad.Sum(ad.Sum(a, 1), 1), r"^sum over axis 1: need 2-D, got \(2,\)$"),
    "broadcast": (lambda a: ad.Broadcast(ad.Sum(a, 1), (2, 3), 0),
                  r"^broadcast over axis 0: cannot copy \(2,\) to \(2, 3\)$"),
}


@pytest.mark.parametrize("build, message", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_node_constructor_rejects_bad_shapes(build, message):
    with pytest.raises(ad.ShapeError, match=message):
        build(ad.Input((2, 3), name="a"))


A = np.array([[0.5, -1.5, 2.0], [-0.25, 0.0, 3.0]])

# each build takes ``lift``, applied to every operand: the identity passes
# raw floats and arrays, ``ad.Constant`` wraps them first
LIFT_CASES = {
    "tanh": lambda lift: ad.Tanh(lift(A)),
    "softplus": lambda lift: ad.Softplus(lift(A)),
    "sigmoid": lambda lift: ad.Sigmoid(lift(A)),
    "relu": lambda lift: ad.Relu(lift(A)),
    "step": lambda lift: ad.Step(lift(A)),
    "abs_pow": lambda lift: ad.AbsPow(lift(A), 1.5),
    "signed_abs_pow": lambda lift: ad.AbsPow(lift(A), 1.5, signed=True),
    "add": lambda lift: ad.Add(lift(A), lift(2.0)),
    "sub": lambda lift: ad.Sub(lift(3.0), lift(A)),
    "mul": lambda lift: ad.Mul(lift(A), lift(np.array([1.0, -2.0, 0.5]))),
    "matmul": lambda lift: ad.MatMul(lift(A), lift(A.T)),
    "transpose": lambda lift: ad.Transpose(lift(A)),
    "reshape": lambda lift: ad.Reshape(lift(A), (3, 2)),
    "sum_all": lambda lift: ad.Sum(lift(A)),
    "sum_cols": lambda lift: ad.Sum(lift(A), 0),
    "sum_rows": lambda lift: ad.Sum(lift(A), 1),
}


@pytest.mark.parametrize("build", LIFT_CASES.values(), ids=LIFT_CASES.keys())
def test_node_constructor_lifts_numbers_and_arrays_to_constants(build):
    node = build(lambda v: v)
    assert node.parents and all(isinstance(p, ad.Constant) for p in node.parents)
    want = ad.evaluate(build(ad.Constant), {})
    np.testing.assert_array_equal(ad.evaluate(node, {}), want)


def test_each_node_class_is_bound_under_its_name_alone():
    # the benchmark tracer wraps ``compute`` once per class it finds here,
    # so a second name for a class would wrap it twice
    names = {}
    for name, value in vars(ad).items():
        if isinstance(value, type) and issubclass(value, ad.Node):
            names.setdefault(value, []).append(name)
    assert ad.MatMul in names
    assert all(bound == [cls.__name__] for cls, bound in names.items())


def test_evaluate_without_a_bound_input_raises():
    x = ad.Input((2,), name="x")
    y = ad.Input((2,), name="unbound")
    with pytest.raises(ad.GraphError, match=r"^no value bound for <Input#\d+ 'unbound' "):
        ad.evaluate(ad.Add(x, y), {x: np.zeros(2)})


def test_gradient_of_a_scalar_broadcast_against_a_matrix_sums_the_matrix():
    X = np.arange(6.0).reshape(2, 3) - 1.5
    x = ad.Input((2, 3), name="x")
    s = ad.Input((), name="s")
    gnode = ad.grad(ad.Sum(ad.Mul(x, s)), s)
    assert gnode.shape == ()
    assert float(ad.evaluate(gnode, {x: X, s: np.asarray(0.7)})) == X.sum()


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
    gx = ad.grad(ad.Sum(ad.Tanh(spaces.dual_norm_rows(space, x))), x)
    grad_sq = ad.Sum(ad.Mul(gx, gx))
    got = ad.evaluate(ad.grad(grad_sq, x), {x: x0})

    def value(v):
        return float(ad.evaluate(grad_sq, {x: v}))

    np.testing.assert_allclose(got, central_diff(value, x0.copy()), rtol=1e-6, atol=1e-9)


def test_step_gradient_is_zeros():
    x = ad.Input((3, 4), name="x")
    g = ad.grad(ad.Sum(ad.Step(x)), x)
    got = ad.evaluate(g, {x: np.linspace(-1.0, 1.0, 12).reshape(3, 4)})
    assert got.shape == (3, 4)
    assert not np.any(got)


@pytest.mark.parametrize("exponent", [2.0, 1.7, 0.5, 0.0, -0.5, -2.0])
def test_power_nodes_match_formulas(exponent):
    # the power 0 is 1, or sign(x), even at 0, inf and nan; a negative
    # power is 0 at x = 0
    x = np.array([[-2.0, -0.5, -0.0, 0.0, 0.3, 4.0, np.inf, np.nan]])
    mag = np.abs(x)
    with np.errstate(divide="ignore"):
        plain = np.where(mag == 0.0, 0.0, mag ** exponent) if exponent < 0 else mag ** exponent
    if exponent == 0.0:
        plain = np.ones_like(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unsigned = ad.evaluate(ad.AbsPow(x, exponent), {})
        signed = ad.evaluate(ad.AbsPow(x, exponent, signed=True), {})
    np.testing.assert_array_equal(unsigned, plain)
    np.testing.assert_array_equal(signed, np.sign(x) * plain)


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

def test_program_returns_a_root_that_another_root_consumes():
    x = ad.Input((2, 3), name="x")
    inner = ad.Tanh(x)
    outer = ad.Sum(ad.Mul(inner, inner))
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
    upstream = ad.Tanh(x)
    last_consumer = ad.Sum(upstream)
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
    h = ad.Relu(ad.MatMul(x, ad.Constant(np.array([[1.0, -1.0], [2.0, 0.5]]))))
    out = ad.Sum(h)
    gx = ad.grad(out, x)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    cache = {}
    got_out, got_gx = ad.evaluate([out, gx], {x: x0}, cache)
    assert set(cache) == set(ad.topo_order([out, gx]))
    np.testing.assert_array_equal(cache[x], x0)
    np.testing.assert_array_equal(cache[h], np.maximum(x0 @ [[1.0, -1.0], [2.0, 0.5]], 0.0))
    assert cache[out] is got_out and cache[gx] is got_gx


def test_compiled_program_sees_compute_rebound_after_first_call(monkeypatch):
    x = ad.Input((2,), name="x")
    y = ad.Input((2,), name="y")
    program = ad.Program(ad.Add(x, y))
    env = {x: np.array([1.0, 2.0]), y: np.array([10.0, 20.0])}
    np.testing.assert_array_equal(program(env), [11.0, 22.0])
    monkeypatch.setattr(ad.Add, "compute", lambda self, a, b: a - b)
    np.testing.assert_array_equal(program(env), [-9.0, -18.0])
    np.testing.assert_array_equal(ad.evaluate(program.order[-1], env, {}), [-9.0, -18.0])


def test_outer_product_matmul_equals_blas_product():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((64, 1)), rng.standard_normal((1, 128))
    a[3, 0] = 0.0
    got = ad.evaluate(ad.MatMul(a, b), {})
    assert got.shape == (64, 128)
    np.testing.assert_array_equal(got, a @ b)
