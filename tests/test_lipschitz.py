import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan import lipschitz, spaces
from bwgan.nets import Critic, GraphCritic

L2 = spaces.lp_space(2.0)


def linear_critic(a):
    """f(x) = <a, x>, whose derivative is the constant row a."""
    a = np.asarray(a, dtype=np.float64)

    def build(x):
        return ad.Reshape(ad.MatMul(x, ad.Constant(a[:, None])), (x.shape[0],))

    return GraphCritic(len(a), build)


def scaled_norm_critic(c, space, dim):
    """f(x) = c * ||x||_B, which is exactly |c|-Lipschitz in B."""

    def build(x):
        return ad.Mul(spaces.norm_rows(space, x), ad.Constant(float(c)))

    return GraphCritic(dim, build)


def test_linear_critic_gradient_norm_is_constant():
    rng = np.random.default_rng(0)
    a = np.array([3.0, -4.0, 12.0])
    critic = linear_critic(a)
    for _ in range(10):
        x = rng.standard_normal(3)
        gn = lipschitz.grad_dual_norm_batch(critic, L2, x[None])[0]
        assert gn == pytest.approx(13.0)


def test_linear_critic_quotient_bounded_by_gradient_norm():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(5)
    critic = linear_critic(a)
    bound = float(np.linalg.norm(a))
    for _ in range(20):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        quot = lipschitz.difference_quotient(critic, L2, x, y)
        assert quot <= bound + 1e-10
    # aligned direction attains the bound
    assert lipschitz.difference_quotient(critic, L2, a, np.zeros(5)) == (
        pytest.approx(bound))


def test_scaled_norm_critic_lipschitz_constant():
    rng = np.random.default_rng(2)
    for space in (spaces.lp_space(1.5), L2, spaces.lp_space(4.0)):
        critic = scaled_norm_critic(-3.0, space, 6)
        for _ in range(20):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            quot = lipschitz.difference_quotient(critic, space, x, y)
            assert quot <= 3.0 + 1e-9
            gn = lipschitz.grad_dual_norm_batch(critic, space, x[None])[0]
            assert gn == pytest.approx(3.0, rel=1e-9)


def test_difference_quotient_rejects_coincident_points():
    critic = linear_critic(np.ones(3))
    with pytest.raises(ValueError):
        lipschitz.difference_quotient(critic, L2, np.ones(3), np.ones(3))


def test_segment_grad_sup_dominates_quotient_for_mlp():
    rng = np.random.default_rng(3)
    critic = Critic(8, (16, 16), "tanh", rng=rng)
    for space in (L2, spaces.lp_space(1.3), spaces.sobolev_space(1.0, 2.0, (8,))):
        for _ in range(25):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            quot = lipschitz.difference_quotient(critic, space, x, y)
            sup = lipschitz.segment_grad_sup(critic, space, x, y, samples=100)
            assert quot <= sup + 1e-6


def test_grad_dual_norm_batch_matches_pointwise():
    rng = np.random.default_rng(4)
    critic = Critic(5, (10,), "softplus", rng=rng)
    X = rng.standard_normal((7, 5))
    batch = lipschitz.grad_dual_norm_batch(critic, L2, X)
    single = [lipschitz.grad_dual_norm_batch(critic, L2, x[None])[0] for x in X]
    np.testing.assert_allclose(batch, single, rtol=1e-12)


def test_estimate_lipschitz_recovers_linear_constant():
    rng = np.random.default_rng(5)
    a = np.array([2.0, -1.0, 2.0])  # norm 3
    critic = linear_critic(a)

    def sampler(n):
        return rng.standard_normal((n, 3)), rng.standard_normal((n, 3))

    report = lipschitz.estimate_lipschitz(critic, L2, sampler, 10_000)
    assert report.max_dual_gradient_norm == pytest.approx(3.0, rel=1e-10)
    assert report.max_difference_quotient <= 3.0 + 1e-10
    assert report.max_difference_quotient == pytest.approx(3.0, rel=0.02)
    assert report.sample_count == 10_000
    assert report.skipped == 0


def test_estimate_lipschitz_skips_coincident_pairs():
    critic = linear_critic(np.ones(2))
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    Y = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    report = lipschitz.estimate_lipschitz(critic, L2, lambda n: (X, Y), 3)
    assert report.skipped == 2
    assert report.max_difference_quotient == pytest.approx(1.0)


def test_estimate_lipschitz_report_counts_are_ints():
    critic = linear_critic(np.ones(2))
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    report = lipschitz.estimate_lipschitz(critic, L2, lambda n: (X, X[::-1]), 2)
    assert type(report.sample_count) is int and type(report.skipped) is int


def test_estimate_lipschitz_rejects_empty():
    critic = linear_critic(np.ones(2))
    with pytest.raises(ValueError):
        lipschitz.estimate_lipschitz(critic, L2, lambda n: (np.zeros((0, 2)),) * 2, 0)


def test_penalty_in_dual_norm_of_choice():
    # f(x) = sum x_i has gradient (1, ..., 1); in L^4 the dual norm is
    # the 4/3-norm of ones, n^(3/4), so the quotient bound differs from L2.
    dim = 16
    critic = linear_critic(np.ones(dim))
    l4 = spaces.lp_space(4.0)
    x = np.ones(dim)
    gn = lipschitz.grad_dual_norm_batch(critic, l4, x[None])[0]
    assert gn == pytest.approx(dim ** 0.75)
    quot = lipschitz.difference_quotient(critic, l4, x, np.zeros(dim))
    assert quot == pytest.approx(dim / dim ** 0.25)


def test_pair_evaluations_match_one_row_reference():
    rng = np.random.default_rng(7)
    critic = Critic(6, (12, 12), "tanh", rng=np.random.default_rng(7))
    # steepen the output layer so the quotients are well above 1
    critic.mlp.set_params({"critic.w2": 400.0 * critic.mlp.params["critic.w2"]})
    space = spaces.lp_space(1.5)
    X, Y = rng.standard_normal((9, 6)), rng.standard_normal((9, 6))
    Y[3] = X[3]
    ok = np.arange(9) != 3
    fx = np.array([critic.value_batch(x[None])[0] for x in X])
    fy = np.array([critic.value_batch(y[None])[0] for y in Y])
    quot = np.abs(fx - fy)[ok] / spaces.norm_batch(space, X[ok] - Y[ok])

    got = [lipschitz.difference_quotient(critic, space, X[k], Y[k])
           for k in np.flatnonzero(ok)]
    np.testing.assert_allclose(got, quot, rtol=1e-12, atol=0.0)

    report = lipschitz.estimate_lipschitz(critic, space, lambda n: (X, Y), 9,
                                          segment_samples=3)
    t = np.linspace(0.0, 1.0, 5)
    pts = np.concatenate([ti * X + (1.0 - ti) * Y for ti in t])
    grads = [lipschitz.grad_dual_norm_batch(critic, space, p[None])[0] for p in pts]
    assert report.max_difference_quotient == pytest.approx(np.max(quot), rel=1e-12, abs=0.0)
    assert report.max_dual_gradient_norm == pytest.approx(max(grads), rel=1e-12, abs=0.0)
    assert report.skipped == 1


def test_difference_quotient_makes_one_critic_call():
    critic = Critic(3, (5,), "tanh", rng=np.random.default_rng(8))
    calls = []
    for name in ("value_batch", "input_gradient_batch"):
        method = getattr(critic, name)
        setattr(critic, name,
                lambda X, name=name, method=method: calls.append(name) or method(X))
    lipschitz.difference_quotient(critic, L2, np.ones(3), np.zeros(3))
    assert calls == ["value_batch"]


def test_segment_weights_are_cached_read_only_and_bit_equal():
    t, one_minus_t = lipschitz._segment_weights(6)
    assert lipschitz._segment_weights(6)[0] is t
    assert not t.flags.writeable and not one_minus_t.flags.writeable
    rng = np.random.default_rng(8)
    critic = Critic(5, (7,), "tanh", rng=rng)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    ref_t = np.linspace(0.0, 1.0, 8)[:, None]
    pts = ref_t * x + (1.0 - ref_t) * y
    want = np.max(lipschitz.grad_dual_norm_batch(critic, spaces.lp_space(3.0), pts))
    assert lipschitz.segment_grad_sup(critic, spaces.lp_space(3.0), x, y, 6) == want


BAD_COUNTS = [-1, -2, -3, 2.5, True, False, None, "3"]


@pytest.mark.parametrize("samples", BAD_COUNTS, ids=repr)
def test_segment_grad_sup_rejects_bad_sample_counts(samples):
    # -1 used to drop the x endpoint and return the dual norm at y alone
    critic = Critic(4, (5,), "tanh", rng=np.random.default_rng(9))
    with pytest.raises(ValueError, match="samples must be an integer >= 0"):
        lipschitz.segment_grad_sup(critic, L2, np.zeros(4), np.ones(4), samples)
    assert critic._cache == {}


@pytest.mark.parametrize("name, value", [("n", v) for v in (0, -1, 2.5, True, None)]
                         + [("segment_samples", v) for v in BAD_COUNTS],
                         ids=repr)
def test_estimate_lipschitz_rejects_bad_counts(name, value):
    critic = Critic(4, (5,), "tanh", rng=np.random.default_rng(9))
    kwargs = {"n": 3, "segment_samples": 2, name: value}
    sampler = lambda n: (np.zeros((3, 4)), np.ones((3, 4)))  # noqa: E731
    with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
        lipschitz.estimate_lipschitz(critic, L2, sampler, **kwargs)
    assert critic._cache == {}


def test_numpy_integer_counts_are_accepted():
    critic = Critic(4, (5,), "tanh", rng=np.random.default_rng(9))
    x, y = np.zeros(4), np.ones(4)
    assert (lipschitz.segment_grad_sup(critic, L2, x, y, np.int64(0))
            == lipschitz.segment_grad_sup(critic, L2, x, y, 0))
    sampler = lambda n: (np.zeros((n, 4)), np.ones((n, 4)))  # noqa: E731
    report = lipschitz.estimate_lipschitz(critic, L2, sampler, np.int64(2),
                                          segment_samples=np.int64(1))
    assert report.sample_count == 2 and report.skipped == 0
