import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan import spaces, transport
from bwgan.nets import GraphCritic
from ot_vertices import min_cost_by_enumeration

L2 = spaces.lp_space(2.0)


def random_measure(rng, m, dim=2):
    w = rng.random(m) + 0.05
    w /= w.sum()
    return transport.DiscreteMeasure(rng.standard_normal((m, dim)), w)


# ---------------------------------------------------------------------------
# DiscreteMeasure validation
# ---------------------------------------------------------------------------

def test_measure_rejects_negative_weights():
    with pytest.raises(transport.TransportError):
        transport.DiscreteMeasure(np.zeros((2, 1)), [1.5, -0.5])


def test_measure_rejects_unnormalized_weights():
    with pytest.raises(transport.TransportError):
        transport.DiscreteMeasure(np.zeros((2, 1)), [0.5, 0.4])


def test_measure_rejects_length_mismatch():
    with pytest.raises(transport.TransportError):
        transport.DiscreteMeasure(np.zeros((3, 1)), [0.5, 0.5])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("points, weights", [
    ([[0.0], [5.0]], [NAN, 1.0]),
    ([[0.0], [5.0]], [INF, 0.5]),
    ([[0.0], [5.0]], [0.5, -INF]),
    ([[0.0], [NAN]], [0.5, 0.5]),
    ([[INF], [1.0]], [0.5, 0.5]),
    ([[0.0], [NAN]], [1 / 65, 64 / 65]),
    ([[-INF], [1.0]], [1 / 65, 64 / 65]),
], ids=["nan-weight", "inf-weight", "minus-inf-weight",
        "nan-point-counts", "inf-point-counts", "nan-point-lp", "minus-inf-point-lp"])
def test_measure_rejects_non_finite_entries(points, weights):
    # The "-counts" measures are count-weighted (assignment path), the
    # "-lp" ones are not (1/65 has no denominator <= MAX_SUPPORT).
    with pytest.raises(transport.TransportError, match="finite"):
        transport.DiscreteMeasure(points, weights)


def test_measure_flattens_points():
    m = transport.DiscreteMeasure(np.zeros((2, 4, 4)), [0.5, 0.5])
    assert m.points.shape == (2, 16)


def test_measure_makes_one_dimensional_points_a_column():
    m = transport.DiscreteMeasure([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
    assert m.points.shape == (3, 1)
    np.testing.assert_array_equal(m.points[:, 0], [0.0, 1.0, 3.0])


def test_trimmed_drops_zero_weights():
    m = transport.DiscreteMeasure(np.arange(3.0)[:, None], [0.5, 0.0, 0.5])
    t = m.trimmed()
    assert len(t) == 2
    np.testing.assert_array_equal(t.points.ravel(), [0.0, 2.0])


# ---------------------------------------------------------------------------
# Known values
# ---------------------------------------------------------------------------

def test_point_mass_translation():
    mu = transport.DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = transport.DiscreteMeasure([[3.0, 4.0]], [1.0])
    assert transport.wasserstein_1(mu, nu, L2) == pytest.approx(5.0)


def test_shifted_pair_distance():
    mu = transport.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = transport.DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
    assert transport.wasserstein_1(mu, nu, L2) == pytest.approx(2.0)


def test_split_mass_one_dimensional():
    # delta_0 split evenly onto -1 and +1: each half moves distance 1.
    mu = transport.DiscreteMeasure([[0.0]], [1.0])
    nu = transport.DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    d1, plan = transport.wasserstein_p_exact(mu, nu, L2, 1.0)
    assert d1 == pytest.approx(1.0)
    np.testing.assert_allclose(plan.matrix, [[0.5, 0.5]])
    d2, _ = transport.wasserstein_p_exact(mu, nu, L2, 2.0)
    assert d2 == pytest.approx(1.0)


def test_identical_measures_distance_zero():
    rng = np.random.default_rng(0)
    mu = random_measure(rng, 5)
    assert transport.wasserstein_1(mu, mu, L2) == pytest.approx(0.0, abs=1e-10)


def test_distance_in_non_euclidean_norm():
    mu = transport.DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = transport.DiscreteMeasure([[1.0, 1.0]], [1.0])
    assert transport.wasserstein_1(mu, nu, spaces.lp_space(1.0)) == pytest.approx(2.0)
    assert transport.wasserstein_1(mu, nu, spaces.lp_space(np.inf)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# LP against the vertex-enumeration oracle
# ---------------------------------------------------------------------------

def test_lp_matches_vertex_enumeration(monkeypatch):
    lp_calls = []
    linprog = transport.linprog

    def counting_linprog(*args, **kwargs):
        lp_calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting_linprog)
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(40):
        m, n = rng.integers(2, 5, size=2)
        mu = random_measure(rng, m)
        nu = random_measure(rng, n)
        cases.append((mu, nu, float(rng.choice([1.0, 2.0]))))
    # 1/65 is k/N for no N <= MAX_SUPPORT, although the other side is
    # uniform; in either order, so that the uniform side's weights come
    # first once.
    beyond_cap = transport.DiscreteMeasure(rng.standard_normal((2, 2)),
                                           [1 / 65, 64 / 65])
    halves = transport.DiscreteMeasure(rng.standard_normal((2, 2)), [0.5, 0.5])
    cases += [(beyond_cap, halves, 1.0), (halves, beyond_cap, 1.0)]
    for mu, nu, p in cases:
        lp_calls.clear()
        dist, plan = transport.wasserstein_p_exact(mu, nu, L2, p)
        assert lp_calls == [1]
        cost = transport.cost_matrix(mu, nu, L2, p)
        brute = min_cost_by_enumeration(cost, mu.weights, nu.weights) ** (1.0 / p)
        assert dist == pytest.approx(brute, abs=1e-9)
        assert plan.marginal_error() <= transport.MARGINAL_TOL


# ---------------------------------------------------------------------------
# Cost matrix against the per-difference norms
# ---------------------------------------------------------------------------

COST_DIM = 64


def cost_space_zoo(dim=COST_DIM):
    half = dim // 2
    side = int(round(dim ** 0.5))
    return [
        spaces.lp_space(1.0),
        spaces.lp_space(1.5),
        spaces.lp_space(2.0),
        spaces.lp_space(np.inf),
        spaces.lp_space(2.0, measure="normalized"),
        spaces.sobolev_space(1.0, 2.0, (side, side)),
        spaces.sobolev_space(-1.0, 2.0, (side, side)),
        spaces.sobolev_space(1.0, 1.5, (side, side)),
        spaces.weighted_space(spaces.lp_space(3.0), 0.5 + np.arange(dim) / dim),
        spaces.product_space([(spaces.lp_space(1.5), half),
                              (spaces.lp_space(4.0), dim - half)]),
    ]


@pytest.mark.parametrize("k", range(len(cost_space_zoo())),
                         ids=[f"{s.family}-p{s.p}-s{s.s}-{s.measure}"
                              for s in cost_space_zoo()])
def test_cost_matrix_matches_per_difference_norms(k):
    # 16 columns take the cdist path for p = 2, 64 and 256 the Gram path
    for dim in (16, COST_DIM, 256):
        space = cost_space_zoo(dim)[k]
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 7, dim=dim)
        nu = random_measure(rng, 5, dim=dim)
        for p in (1.0, 2.0):
            expected = np.array([[spaces.norm_batch(space, (x - y)[None, :])[0] ** p
                                  for y in nu.points] for x in mu.points])
            np.testing.assert_allclose(transport.cost_matrix(mu, nu, space, p),
                                       expected, rtol=1e-12, atol=0.0)


def test_gram_path_redoes_near_duplicates_exactly():
    # y = x + 1e-9 noise cancels about 60 bits in |x|^2 + |y|^2 - 2 x.y
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 256))
    Y = X + 1e-9 * rng.standard_normal((8, 256))
    D = spaces.pairwise_norms(L2, X, Y)
    np.testing.assert_array_equal(np.diag(D), spaces.norm_batch(L2, X - Y))
    expected = np.array([spaces.norm_batch(L2, x - Y) for x in X])
    np.testing.assert_allclose(D, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("space", [L2, spaces.sobolev_space(1.0, 2.0, (16, 16)),
                                   spaces.sobolev_space(1.0, 2.0, (3, 8, 8))],
                         ids=["L2", "W1,2", "W1,2-3x8x8"])
def test_gram_path_is_homogeneous_at_extreme_scales(space):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, space.size or 256))
    Y = rng.standard_normal((5, space.size or 256))
    base = spaces.pairwise_norms(space, X, Y)
    for k in (-600, 600):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = spaces.pairwise_norms(space, 2.0 ** k * X, 2.0 ** k * Y)
        assert np.isfinite(D).all()
        np.testing.assert_allclose(D, 2.0 ** k * base, rtol=1e-12, atol=0.0)


def test_pairwise_norms_rejects_wrong_signal_size():
    sob = spaces.sobolev_space(1.0, 2.0, (8, 8))
    with pytest.raises(spaces.SpaceError):
        spaces.pairwise_norms(sob, np.zeros((2, 63)), np.zeros((3, 63)))
    with pytest.raises(spaces.SpaceError):
        spaces.pairwise_norms(L2, np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Assignment path for count-weighted measures
# ---------------------------------------------------------------------------

def random_counts(rng, size, total):
    """``size`` positive integers summing to ``total``."""
    cuts = np.sort(rng.choice(np.arange(1, total), size - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]]))


def test_count_weighted_pairs_of_unequal_size_solved_by_assignment(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("count-weighted pair reached the LP")

    monkeypatch.setattr(transport, "linprog", no_lp)
    rng = np.random.default_rng(9)
    for m in range(1, 5):
        for n in range(1, 5):
            for p in (1.0, 2.0):
                total = int(rng.integers(max(m, n), 9))
                a = random_counts(rng, m, total) / total
                b = random_counts(rng, n, total) / total
                mu = transport.DiscreteMeasure(rng.standard_normal((m, 2)), a)
                nu = transport.DiscreteMeasure(rng.standard_normal((n, 2)), b)
                dist, plan = transport.wasserstein_p_exact(mu, nu, L2, p)
                cost = transport.cost_matrix(mu, nu, L2, p)
                brute = min_cost_by_enumeration(cost, a, b) ** (1.0 / p)
                assert dist == pytest.approx(brute, abs=1e-12)
                assert plan.marginal_error() <= 1e-12


@pytest.mark.parametrize("space, dim", [
    (L2, 2), (spaces.sobolev_space(1.0, 2.0, (16, 16), 5.0), 256)],
    ids=["L2", "W1,2"])
def test_compositions_of_64_match_lp_cost(monkeypatch, space, dim):
    cases = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        mu = transport.DiscreteMeasure(rng.standard_normal((40, dim)),
                                       random_counts(rng, 40, 64) / 64)
        nu = transport.DiscreteMeasure(rng.standard_normal((25, dim)) + 0.5,
                                       random_counts(rng, 25, 64) / 64)
        C = transport.cost_matrix(mu, nu, space)
        lp_cost = float(np.sum(transport._lp_plan(C, mu.weights, nu.weights) * C))
        cases.append((mu, nu, lp_cost))

    def no_lp(*args, **kwargs):
        raise AssertionError("count-weighted pair reached the LP")

    monkeypatch.setattr(transport, "linprog", no_lp)
    for mu, nu, lp_cost in cases:
        dist, plan = transport.wasserstein_p_exact(mu, nu, space, 1.0)
        # HiGHS stops at its default feasibility tolerance, 1e-7.
        assert dist == pytest.approx(lp_cost, rel=1e-7)
        assert plan.marginal_error() <= 1e-12


def unreduced_assignment_w1(C, a, b):
    """W1 from linear_sum_assignment on the split, unreduced cost matrix."""
    from scipy.optimize import linear_sum_assignment
    big = np.repeat(np.repeat(C, a, axis=0), b, axis=1)
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum() / a.sum())


def reduced_assignment_cases():
    """Uniform and count-weighted pairs, with duplicated points, in L2."""
    rng = np.random.default_rng(13)
    for seed in range(10):
        X = rng.standard_normal((64, 2))
        Y = rng.standard_normal((64, 2)) + 0.5
        yield X, Y, np.ones(64, int), np.ones(64, int)
        # duplicated points: whole rows and columns of C tie exactly
        X[32:], Y[40:] = X[:32], Y[:24]
        yield X, Y, np.ones(64, int), np.ones(64, int)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((25, 2)) + 0.5
        a, b = random_counts(rng, 40, 64), random_counts(rng, 25, 64)
        yield X, Y, a, b
        X[20:], Y[:5] = X[:20], Y[5:10]
        yield X, Y, a, b


def test_reduced_assignment_matches_unreduced_reference():
    for X, Y, a, b in reduced_assignment_cases():
        mu = transport.DiscreteMeasure(X, a / a.sum())
        nu = transport.DiscreteMeasure(Y, b / b.sum())
        dist, plan = transport.wasserstein_p_exact(mu, nu, L2, 1.0)
        expected = unreduced_assignment_w1(transport.cost_matrix(mu, nu, L2), a, b)
        assert dist == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert plan.marginal_error() <= 1e-12


def test_sobolev_w1_matches_assignment_on_operator_costs():
    # the solver's costs come from FFT features, the reference's from the
    # dense operator applied to each difference
    space = spaces.sobolev_space(1.0, 2.0, (16, 16))
    rng = np.random.default_rng(15)
    X, Y = rng.standard_normal((64, 256)), rng.standard_normal((64, 256)) + 0.1
    ones = np.ones(64, int)
    C = np.array([spaces.norm_batch(space, x - Y) for x in X])
    dist = transport.wasserstein_1(transport.DiscreteMeasure(X, ones / 64),
                                   transport.DiscreteMeasure(Y, ones / 64), space)
    assert dist == pytest.approx(unreduced_assignment_w1(C, ones, ones), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_between_points_near_the_float_maximum(p):
    # the distance 9e307 is a float, but a power of two above it, 2^1024, is not
    mu = transport.DiscreteMeasure([[1e308]], [1.0])
    nu = transport.DiscreteMeasure([[1e307]], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, _ = transport.wasserstein_p_exact(mu, nu, L2, p)
    assert dist == pytest.approx(9e307, rel=1e-15)
    with pytest.raises(transport.TransportError, match="overflows"):
        transport.wasserstein_p_exact(transport.DiscreteMeasure([[1.7e308]], [1.0]),
                                      transport.DiscreteMeasure([[-1.7e308]], [1.0]), L2, p)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_is_scale_equivariant(p):
    # W_p(2^k mu, 2^k nu) = 2^k W_p(mu, nu) on the assignment and LP paths
    rng = np.random.default_rng(14)
    counts = random_counts(rng, 5, 8), random_counts(rng, 4, 8)
    pairs = [(random_measure(rng, 5, dim=3), random_measure(rng, 4, dim=3)),
             (transport.DiscreteMeasure(rng.standard_normal((5, 3)), counts[0] / 8),
              transport.DiscreteMeasure(rng.standard_normal((4, 3)), counts[1] / 8))]
    for space in (L2, spaces.lp_space(3.0)):
        for mu, nu in pairs:
            base, _ = transport.wasserstein_p_exact(mu, nu, space, p)
            for k in (-600, 0, 600):
                scaled = [transport.DiscreteMeasure(2.0 ** k * m.points, m.weights)
                          for m in (mu, nu)]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    dist, plan = transport.wasserstein_p_exact(*scaled, space, p)
                assert dist == pytest.approx(2.0 ** k * base, rel=1e-12, abs=0.0)
                assert plan.marginal_error() <= transport.MARGINAL_TOL


def test_wasserstein_keeps_costs_that_underflow_at_the_power():
    # (1e-110 / 16)^3 underflows to 0 after the division by the largest
    # distance; the value is then the L^3 norm of P^(1/3) D
    mu = transport.DiscreteMeasure(np.array([[0.0], [10.0]]), np.array([0.5, 0.5]))
    nu = transport.DiscreteMeasure(np.array([[1e-110], [10.0]]), np.array([0.5, 0.5]))
    dist, _ = transport.wasserstein_p_exact(mu, nu, L2, 3.0)
    assert dist == pytest.approx(7.937005259840999e-111, rel=1e-15, abs=0.0)
    point, tiny = (transport.DiscreteMeasure(np.array([[v]]), np.array([1.0]))
                   for v in (0.0, 1e-110))
    assert transport.wasserstein_p_exact(point, tiny, L2, 3.0)[0] == 1e-110
    assert transport.wasserstein_p_exact(mu, mu, L2, 3.0)[0] == 0.0


def test_uniform_pairs_solved_by_assignment(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("uniform pair reached the LP")

    monkeypatch.setattr(transport, "linprog", no_lp)
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        w = np.full(n, 1.0 / n)
        for p in (1.0, 2.0):
            for _ in range(5):
                mu = transport.DiscreteMeasure(rng.standard_normal((n, 2)), w)
                nu = transport.DiscreteMeasure(rng.standard_normal((n, 2)), w)
                dist, plan = transport.wasserstein_p_exact(mu, nu, L2, p)
                cost = transport.cost_matrix(mu, nu, L2, p)
                brute = min_cost_by_enumeration(cost, w, w) ** (1.0 / p)
                assert dist == pytest.approx(brute, abs=1e-12)
                P = plan.matrix
                np.testing.assert_array_equal(np.sort(P, axis=1)[:, :-1], 0.0)
                np.testing.assert_array_equal(P.max(axis=1), 1.0 / n)
                np.testing.assert_array_equal(np.count_nonzero(P, axis=0), 1)
                assert plan.marginal_error() <= 1e-15


def test_split_atom_takes_lp_and_keeps_distance(monkeypatch):
    rng = np.random.default_rng(8)
    n = 32
    w = np.full(n, 1.0 / n)
    mu = transport.DiscreteMeasure(rng.standard_normal((n, 2)), w)
    nu = transport.DiscreteMeasure(rng.standard_normal((n, 2)) + 0.5, w)
    split = transport.DiscreteMeasure(
        np.vstack([mu.points[:1], mu.points]),
        np.concatenate([[0.3 / n, 0.7 / n], w[1:]]))
    uniform = transport.wasserstein_1(mu, nu, L2)

    lp_calls = []
    linprog = transport.linprog

    def counting_linprog(*args, **kwargs):
        lp_calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting_linprog)
    assert transport.wasserstein_1(split, nu, L2) == pytest.approx(uniform, rel=1e-7)
    assert lp_calls == [1]


# an LP result that reports failure, and one whose plan breaks the marginals
FAILED_LPS = {
    "lp-reports-failure": (lambda c, **kwargs: SimpleNamespace(
        success=False, message="Iteration limit reached.", x=None),
        r"^LP solver failed: Iteration limit reached\.$"),
    "plan-breaks-marginals": (lambda c, **kwargs: SimpleNamespace(
        success=True, message="", x=np.zeros(len(c))),
        r"^marginal violation 1\.000e\+00 above tolerance$"),
}


@pytest.mark.parametrize("linprog, message", FAILED_LPS.values(), ids=FAILED_LPS.keys())
def test_failed_lp_raises_transport_error(monkeypatch, linprog, message):
    # 1/67 is k/N for no N <= MAX_SUPPORT, so this pair goes to the LP
    mu = transport.DiscreteMeasure([[0.0], [1.0]], [1 / 67, 66 / 67])
    nu = transport.DiscreteMeasure([[0.0]], [1.0])
    monkeypatch.setattr(transport, "linprog", linprog)
    with pytest.raises(transport.TransportError, match=message):
        transport.wasserstein_1(mu, nu, L2)


# ---------------------------------------------------------------------------
# Metric axioms
# ---------------------------------------------------------------------------

def test_metric_axioms():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0):
        for _ in range(15):
            a = random_measure(rng, 4)
            b = random_measure(rng, 3)
            c = random_measure(rng, 5)
            dab = transport.wasserstein_p_exact(a, b, L2, p)[0]
            dba = transport.wasserstein_p_exact(b, a, L2, p)[0]
            dac = transport.wasserstein_p_exact(a, c, L2, p)[0]
            dcb = transport.wasserstein_p_exact(c, b, L2, p)[0]
            assert dab >= 0.0
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9


def test_wasserstein_monotone_in_p():
    # Jensen: W_p <= W_q for p <= q between probability measures.
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = random_measure(rng, 4)
        nu = random_measure(rng, 4)
        d1 = transport.wasserstein_p_exact(mu, nu, L2, 1.0)[0]
        d2 = transport.wasserstein_p_exact(mu, nu, L2, 2.0)[0]
        d3 = transport.wasserstein_p_exact(mu, nu, L2, 3.0)[0]
        assert d1 <= d2 + 1e-9
        assert d2 <= d3 + 1e-9


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def test_rejects_oversized_support():
    n = transport.MAX_SUPPORT + 1
    w = np.full(n, 1.0 / n)
    mu = transport.DiscreteMeasure(np.arange(float(n))[:, None], w)
    with pytest.raises(transport.TransportError):
        transport.wasserstein_1(mu, mu, L2)


def test_rejects_p_below_one():
    mu = transport.DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(transport.TransportError):
        transport.wasserstein_p_exact(mu, mu, L2, 0.5)


@pytest.mark.parametrize("p", [np.inf, np.nan], ids=["inf", "nan"])
def test_rejects_non_finite_p(p):
    mu = transport.DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    with pytest.raises(transport.TransportError):
        transport.wasserstein_p_exact(mu, mu, L2, p)


def test_rejects_dimension_mismatch():
    mu = transport.DiscreteMeasure([[0.0, 1.0]], [1.0])
    nu = transport.DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(transport.TransportError):
        transport.cost_matrix(mu, nu, L2)


# ---------------------------------------------------------------------------
# Kantorovich duality helpers
# ---------------------------------------------------------------------------

def distance_critic(y0, space, dim):
    """The Kantorovich potential f(x) = ||x - y0||_B for nu = delta_{y0}."""
    y0 = np.asarray(y0, dtype=np.float64)

    def build(x):
        shift = ad.Constant(np.tile(y0, (x.shape[0], 1)))
        return spaces.norm_rows(space, ad.Sub(x, shift))

    return GraphCritic(dim, build)


def test_dual_estimate_linear_critic():
    a = np.array([1.0, 0.0])
    critic = GraphCritic(2, lambda x: ad.Reshape(
        ad.MatMul(x, ad.Constant(a[:, None])), (x.shape[0],)))
    mu = transport.DiscreteMeasure([[2.0, 5.0], [4.0, 1.0]], [0.5, 0.5])
    nu = transport.DiscreteMeasure([[1.0, 0.0]], [1.0])
    # E_mu x_1 - E_nu x_1 = 3 - 1
    assert transport.dual_estimate(critic, mu, nu) == pytest.approx(2.0)


def test_kantorovich_gap_zero_for_optimal_potential():
    # Against a point mass, the distance-to-target potential is optimal.
    rng = np.random.default_rng(4)
    for space in (L2, spaces.lp_space(1.5)):
        y0 = rng.standard_normal(3)
        critic = distance_critic(y0, space, 3)
        mu = random_measure(rng, 6, dim=3)
        nu = transport.DiscreteMeasure(y0[None, :], [1.0])
        gap = (transport.wasserstein_1(mu, nu, space)
               - transport.dual_estimate(critic, mu, nu))
        assert gap == pytest.approx(0.0, abs=1e-9)


def test_kantorovich_gap_nonnegative_for_lipschitz_critic():
    rng = np.random.default_rng(5)
    y0 = np.zeros(2)
    critic = distance_critic(y0, L2, 2)  # 1-Lipschitz everywhere
    for _ in range(10):
        mu = random_measure(rng, 4)
        nu = random_measure(rng, 4)
        gap = transport.wasserstein_1(mu, nu, L2) - transport.dual_estimate(critic, mu, nu)
        assert gap >= -1e-9
