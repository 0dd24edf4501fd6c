import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwgan import autodiff as ad
from bwgan import spaces
from dual_spaces import dual_space


NAN, INF = float("nan"), float("inf")


def space_zoo(dim=16):
    """One space per family, all of flat size ``dim``."""
    w = 0.5 + np.arange(dim) / dim
    half = dim // 2
    return [
        spaces.lp_space(1.5),
        spaces.lp_space(2.0),
        spaces.lp_space(7.0),
        spaces.lp_space(2.5, measure="normalized"),
        spaces.sobolev_space(1.0, 2.0, (dim,)),
        spaces.sobolev_space(-0.5, 3.0, (dim,)),
        spaces.weighted_space(spaces.lp_space(3.0), w),
        spaces.product_space([(spaces.lp_space(1.5), half),
                              (spaces.lp_space(4.0), dim - half)], p=2.0),
        # nested: a weighted product, and a product of a normalized Sobolev
        # factor with a weighted factor
        spaces.weighted_space(
            spaces.product_space([(spaces.lp_space(1.5), half),
                                  (spaces.lp_space(4.0), dim - half)], p=2.0), w),
        spaces.product_space(
            [(spaces.sobolev_space(1.0, 2.5, (half,), measure="normalized"), half),
             (spaces.weighted_space(spaces.lp_space(3.0), w[half:]), dim - half)],
            p=3.0),
    ]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_rejects_unknown_family():
    with pytest.raises(spaces.SpaceError):
        spaces.SpaceSpec("banach")


def test_rejects_p_below_one():
    with pytest.raises(spaces.SpaceError):
        spaces.lp_space(0.5)


def test_rejects_unknown_measure():
    with pytest.raises(spaces.SpaceError):
        spaces.lp_space(2.0, measure="lebesgue")


def test_sobolev_rejects_non_positive_axes():
    # without the check, (0, 16, 16) and (-1, 4, 4) built spaces of size 0 and -16
    for shape in [(0,), (4, 0), (0, 16, 16), (-1, 4, 4)]:
        with pytest.raises(spaces.SpaceError, match="positive integers"):
            spaces.sobolev_space(1.0, 2.0, shape)


def test_sobolev_rejects_operators_above_the_cap():
    with pytest.raises(spaces.SpaceError, match="1024"):
        spaces.sobolev_space(1, 2, (64, 64))


@pytest.mark.parametrize("shape", [(32, 32), (2, 8, 8), (1024,)])
def test_sobolev_accepts_operators_up_to_the_cap(shape):
    assert spaces.sobolev_space(1, 2, shape).signal_shape == shape


@pytest.mark.parametrize("s,frequency_scale", [(1e308, 5.0), (1.0, 1e200), (400.0, 5.0),
                                               (-400.0, 5.0)])
def test_sobolev_rejects_overflowing_multiplier(s, frequency_scale):
    with pytest.raises(spaces.SpaceError, match="overflows"):
        spaces.sobolev_space(s, 2.0, (8, 8), frequency_scale)


@pytest.mark.parametrize("s, frequency_scale, message", [
    (INF, 5.0, r"^s must be finite, got inf$"),
    (-INF, 5.0, r"^s must be finite, got -inf$"),
    (NAN, 5.0, r"^s must be finite, got nan$"),
    (1.0, 0.0, r"^frequency_scale must be positive and finite, got 0\.0$"),
    (1.0, INF, r"^frequency_scale must be positive and finite, got inf$"),
], ids=["s-inf", "s-minus-inf", "s-nan", "frequency-scale-0", "frequency-scale-inf"])
def test_sobolev_rejects_non_finite_order_and_bad_frequency_scale(s, frequency_scale, message):
    with pytest.raises(spaces.SpaceError, match=message):
        spaces.sobolev_space(s, 2.0, (8, 8), frequency_scale)


def test_weighted_rejects_zero_weight():
    with pytest.raises(spaces.SpaceError):
        spaces.weighted_space(spaces.lp_space(2.0), np.array([1.0, 0.0, 2.0]))


@pytest.mark.parametrize("weight, p", [
    ([1.0, NAN, 2.0], 2.0),
    ([1.0, INF, 2.0], 2.0),
    ([1.0, 1e-320, 2.0], 2.0),   # its reciprocal overflows
    ([1.0, 1.0, 2.0], 3.0),      # p differs from the base's
], ids=["nan-weight", "inf-weight", "weight-with-infinite-reciprocal",
        "p-differs-from-base"])
def test_weighted_rejects_what_it_cannot_evaluate(weight, p):
    with pytest.raises(spaces.SpaceError):
        spaces.SpaceSpec("weighted", p=p, base=spaces.lp_space(2.0),
                         weight=np.array(weight))


@pytest.mark.parametrize("factor", [
    (spaces.lp_space(2.0), 0),
    (spaces.lp_space(2.0), -1),
    (spaces.sobolev_space(1.0, 2.0, (8,)), 6),
], ids=["size-0", "size-minus-1", "size-differs-from-sobolev"])
def test_product_rejects_factor_sizes_it_cannot_evaluate(factor):
    with pytest.raises(spaces.SpaceError, match="size"):
        spaces.product_space([(spaces.lp_space(3.0), 4), factor])


@pytest.mark.parametrize("fields, message", [
    (dict(family="weighted", weight=np.ones(3)), r"^weighted space needs base and weight$"),
    (dict(family="weighted", base=spaces.lp_space(2.0)), r"^weighted space needs base and weight$"),
    (dict(family="product"), r"^product space needs at least one factor$"),
], ids=["weighted-without-base", "weighted-without-weight", "product-without-factors"])
def test_rejects_weighted_and_product_spaces_missing_their_parts(fields, message):
    with pytest.raises(spaces.SpaceError, match=message):
        spaces.SpaceSpec(**fields)


def test_size_property():
    assert spaces.lp_space(2.0).size is None
    assert spaces.sobolev_space(1.0, 2.0, (4, 8)).size == 32
    assert spaces.weighted_space(spaces.lp_space(2.0), np.ones(5)).size == 5
    prod = spaces.product_space([(spaces.lp_space(2.0), 3),
                                 (spaces.lp_space(3.0), 4)])
    assert prod.size == 7


# ---------------------------------------------------------------------------
# Elementary norms and exponents
# ---------------------------------------------------------------------------

def test_lp_norm_known_values():
    x = np.array([3.0, -4.0])
    assert spaces.norm(spaces.lp_space(2.0), x) == pytest.approx(5.0)
    assert spaces.norm(spaces.lp_space(1.0), x) == pytest.approx(7.0)
    assert spaces.norm(spaces.lp_space(np.inf), x) == pytest.approx(4.0)


def test_lp_norm_normalized_scaling():
    x = np.arange(1.0, 9.0)
    p = 3.0
    counting = spaces.norm(spaces.lp_space(p), x)
    averaged = spaces.norm(spaces.lp_space(p, "normalized"), x)
    assert averaged == pytest.approx(counting * x.size ** (-1.0 / p))


@pytest.mark.parametrize("p", [1.3, 2.0, 10.0])
def test_lp_norm_rescales_rows_whose_power_sum_overflows_or_underflows(p):
    rows = np.array([[1e300, 1e300], [1e-300, 1e-300], [1e300, 0.0],
                     [3.0, -4.0], [0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0],
                     [1e-10, 2e-10]])
    space = spaces.lp_space(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = spaces.norm_batch(space, rows)
        duals = spaces.dual_norm_batch(dual_space(space), rows)
    scale = 2.0 ** (1.0 / p)
    assert norms[0] == pytest.approx(scale * 1e300, rel=1e-14)
    assert norms[1] == pytest.approx(scale * 1e-300, rel=1e-14)
    assert norms[2] == 1e300
    np.testing.assert_allclose(duals, norms, rtol=1e-12)
    # every other row keeps the plain formula, bit for bit
    plain = np.sum(np.abs(rows[3:]) ** p, axis=1) ** (1.0 / p)
    np.testing.assert_array_equal(norms[3:], plain)
    assert np.isnan(norms[6]) and norms[5] == np.inf and norms[4] == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_lp_norm_is_homogeneous_under_powers_of_two(p):
    # at 2^-530 the power sum is subnormal, at 2^-600 and 2^-1000 it is 0
    # and at 2^600 it overflows; each such row is redone exactly scaled
    X = np.random.default_rng(32).standard_normal((8, 5))
    space = spaces.lp_space(p)
    want = spaces.norm_batch(space, X)
    for k in (-1000, -600, -530, 0, 600):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.ldexp(spaces.norm_batch(space, np.ldexp(X, k)), -k)
        if p == 2.0:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_lp_norm_of_a_row_with_a_subnormal_power_sum_is_exact():
    assert spaces.norm_batch(spaces.lp_space(2.0), [[1e-160, 0.0]])[0] == 1e-160


@pytest.mark.parametrize("p, row, want", [
    (1000.0, [1e300, 1e300], 2.0 ** 1e-3 * 1e300),
    (2000.0, [1.5, 1.0], 1.5),
    (7000.0, [0.9], 0.9)])
def test_lp_norm_at_large_exponents_is_finite(p, row, want):
    # the power sums overflow or underflow; the rescue itself must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spaces.norm_batch(spaces.lp_space(p), [row])[0]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 10.0, 1500.0])
def test_lp_norm_of_a_row_does_not_depend_on_its_batch(p):
    # the rescue is entered per batch; a NaN row in the batch must not keep
    # an overflowing or underflowing row from being rescued
    big = 2.0 ** 600
    rows = np.array([[NAN, 1.0, 0.0, 0.0], [INF, 1.0, 0.0, 0.0],
                     [1e300, 1e300, 0.0, 1.0], [big, -big, big, 1.0],
                     [1e-300, 1e-300, 0.0, 0.0], [1e-170, 2e-170, 0.0, -1e-170],
                     [0.0, 0.0, 0.0, 0.0], [3.0, -4.0, 0.5, 2.0],
                     [0.25, 1.0, -7.0, 1e-3]])
    space = spaces.lp_space(p)
    rng = np.random.default_rng(61)
    for fn in (spaces.norm_batch, spaces.dual_norm_batch):
        alone = np.array([fn(space, row[None])[0] for row in rows])
        for _ in range(30):
            pick = rng.choice(len(rows), size=rng.integers(1, len(rows) + 1),
                              replace=False)
            np.testing.assert_array_equal(fn(space, rows[pick]), alone[pick])


@pytest.mark.parametrize("dim", [16, 64])
def test_zero_row_batches(dim):
    X = np.random.default_rng(62).standard_normal((3, dim))
    empty = np.zeros((0, dim))
    for space in space_zoo(dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spaces.norm_batch(space, empty).shape == (0,)
            assert spaces.dual_norm_batch(space, empty).shape == (0,)
            assert spaces.pairwise_norms(space, empty, X).shape == (0, 3)
            assert spaces.pairwise_norms(space, X, empty).shape == (3, 0)


def test_dual_norm_near_p_one_is_the_row_maximum():
    # the dual exponent of p = 1.0005 is about 2001, so 1.5^q overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spaces.dual_norm_batch(spaces.lp_space(1.0005), [[1.5, 1.0]])[0]
    assert got == pytest.approx(1.5, rel=1e-12)


def test_l2_pairwise_norms_redo_pairs_that_underflow_or_overflow():
    L2 = spaces.lp_space(2.0)
    X = np.array([[3e-170, 4e-170], [3.0, 4.0], [3e200, 4e200]])
    y = np.zeros((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spaces.pairwise_norms(L2, X, y)[:, 0]
    assert got[0] == 5e-170 and got[1] == 5.0
    np.testing.assert_array_equal(got, spaces.norm_batch(L2, X))


def test_l2_pairwise_norms_redo_every_pair_of_a_tiny_scale_matrix():
    # at 2^-560 every sum of squares underflows, so each pair is redone;
    # X[0] equals Y[2], whose distance stays 0
    rng = np.random.default_rng(5)
    X, Y = rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
    Y[2] = X[0]
    L2 = spaces.lp_space(2.0)
    want = spaces.norm_batch(L2, (X[:, None] - Y[None]).reshape(-1, 3)).reshape(6, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spaces.pairwise_norms(L2, np.ldexp(X, -560), np.ldexp(Y, -560))
    np.testing.assert_array_equal(np.ldexp(got, 560), want)
    assert got[0, 2] == 0.0 and np.all(np.delete(got.ravel(), 2) > 0.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("row, top, count", [
    ([1e308], 1e308, 1), ([2.0 ** 1023, 0.0], 2.0 ** 1023, 1), ([1e308, 1e308], 1e308, 2)],
    ids=["1e308", "2^1023", "two-1e308"])
@pytest.mark.parametrize("width", [None, 64], ids=["own-width", "64-columns"])
def test_lp_norms_of_rows_near_the_float_maximum_are_finite(p, row, top, count, width):
    # the rescue once divided by 2^1024 = inf here and returned NaN
    X = np.zeros((1, width or len(row)))
    X[0, :len(row)] = row
    space = spaces.lp_space(p)
    want = count ** (1.0 / p) * top
    want_dual = count ** (1.0 / spaces.dual_exponent(p)) * top
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (spaces.norm_batch(space, X)[0], spaces.dual_norm_batch(space, X)[0],
               spaces.pairwise_norms(space, X, np.zeros_like(X))[0, 0],
               spaces.pairwise_norms(space, np.zeros((2, X.shape[1])), X)[:, 0])
    assert got[0] == pytest.approx(want, rel=1e-15)
    assert got[1] == pytest.approx(want_dual, rel=1e-15)
    assert got[2] == got[0] and np.all(got[3] == got[0])


@pytest.mark.parametrize("width", [2, 64])
def test_lp_norms_that_overflow_are_inf_without_a_warning(width):
    X = np.zeros((1, width))
    X[0, :2] = 1.7e308
    space = spaces.lp_space(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.concatenate([spaces.norm_batch(space, X), spaces.dual_norm_batch(space, X),
                              spaces.pairwise_norms(space, X, np.zeros_like(X)).ravel()])
    assert np.all(got == np.inf)


def test_dual_exponent():
    assert spaces.dual_exponent(2.0) == pytest.approx(2.0)
    assert spaces.dual_exponent(4.0) == pytest.approx(4.0 / 3.0)
    assert spaces.dual_exponent(np.inf) == 1.0
    with pytest.raises(spaces.SpaceError):
        spaces.dual_exponent(1.0)


def test_linf_dual_is_l1():
    space = spaces.lp_space(np.inf)
    G = np.ones((2, 3))
    np.testing.assert_array_equal(spaces.dual_norm_batch(space, G), [3.0, 3.0])
    g = ad.Input((2, 3), name="g")
    np.testing.assert_array_equal(
        ad.evaluate(spaces.dual_norm_rows(space, g), {g: G}), [3.0, 3.0])
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = rng.standard_normal(16)
        dual = spaces.dual_norm(space, g)
        assert dual == pytest.approx(np.abs(g).sum(), rel=1e-12)
        h = spaces.dual_norm_maximizer(space, g)
        np.testing.assert_array_equal(h, np.sign(g))
        attained = spaces.pairing(g, h) / spaces.norm(space, h)
        assert attained == pytest.approx(dual, rel=1e-12)


@pytest.mark.parametrize("space", [
    spaces.lp_space(np.inf),
    spaces.weighted_space(spaces.lp_space(np.inf), np.full(3, 2.0)),
    spaces.product_space([(spaces.lp_space(2.0), 1), (spaces.lp_space(2.0), 2)],
                         p=np.inf),
], ids=["linf", "weighted-linf", "product-inf"])
def test_graph_norm_rejects_infinite_exponent(space):
    x = ad.Input((2, 3), name="x")
    with pytest.raises(spaces.SpaceError):
        spaces.norm_rows(space, x)


# ---------------------------------------------------------------------------
# Norm axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", space_zoo(), ids=lambda s: f"{s.family}-p{s.p}")
def test_norm_axioms(space):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        c = rng.standard_normal()
        nx = spaces.norm(space, x)
        assert nx > 0.0
        assert spaces.norm(space, c * x) == pytest.approx(abs(c) * nx, rel=1e-12)
        assert (spaces.norm(space, x + y)
                <= nx + spaces.norm(space, y) + 1e-12)
    assert spaces.norm(space, np.zeros(16)) == 0.0


@pytest.mark.parametrize("space", space_zoo(), ids=lambda s: f"{s.family}-p{s.p}")
def test_dual_norm_axioms(space):
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rng.standard_normal(16)
        h = rng.standard_normal(16)
        c = rng.standard_normal()
        dg = spaces.dual_norm(space, g)
        assert dg > 0.0
        assert spaces.dual_norm(space, c * g) == pytest.approx(abs(c) * dg, rel=1e-12)
        assert (spaces.dual_norm(space, g + h)
                <= dg + spaces.dual_norm(space, h) + 1e-12)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", space_zoo(), ids=lambda s: f"{s.family}-p{s.p}")
def test_hoelder_inequality_and_maximizer(space):
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = rng.standard_normal(16)
        dual = spaces.dual_norm(space, g)
        x = rng.standard_normal(16)
        assert spaces.pairing(g, x) <= dual * spaces.norm(space, x) + 1e-10
        h = spaces.dual_norm_maximizer(space, g)
        attained = spaces.pairing(g, h) / spaces.norm(space, h)
        assert attained == pytest.approx(dual, abs=1e-10 * max(1.0, dual))


def dualizable_zoo(dim=16):
    """Zoo variant whose members all admit a dual_space representation.

    A normalized lp space has no fixed flat size, so its dual cannot be
    written down as a SpaceSpec; a normalized Sobolev space pins the size
    and exercises the same measure bookkeeping.
    """
    out = [s for s in space_zoo(dim)
           if not (s.family == "lp" and s.measure == "normalized")]
    out.append(spaces.sobolev_space(0.5, 2.5, (dim,), measure="normalized"))
    return out


@pytest.mark.parametrize("space", dualizable_zoo(), ids=lambda s: f"{s.family}-p{s.p}")
def test_double_dual_consistency(space):
    rng = np.random.default_rng(14)
    dd = dual_space(dual_space(space))
    for _ in range(10):
        x = rng.standard_normal(16)
        assert spaces.norm(dd, x) == pytest.approx(spaces.norm(space, x), rel=1e-8)


def test_dual_space_norm_matches_dual_norm():
    rng = np.random.default_rng(15)
    for space in dualizable_zoo():
        ds = dual_space(space)
        for _ in range(10):
            g = rng.standard_normal(16)
            assert spaces.norm(ds, g) == pytest.approx(
                spaces.dual_norm(space, g), rel=1e-10)


# ---------------------------------------------------------------------------
# Sobolev specifics
# ---------------------------------------------------------------------------

def test_sobolev_zero_order_equals_lp():
    rng = np.random.default_rng(16)
    for p in (1.3, 2.0, 4.0):
        w0 = spaces.sobolev_space(0.0, p, (8, 8))
        lp = spaces.lp_space(p)
        for _ in range(20):
            x = rng.standard_normal(64)
            assert spaces.norm(w0, x) == pytest.approx(spaces.norm(lp, x), rel=1e-10)


def sobolev_multiply(x, s, frequency_scale=5.0):
    """F^-1 [(1 + |xi|^2)^(s/2) F x] of one signal in its natural layout,
    by complex FFTs over its last axis, or its last two."""
    axes = (-1,) if x.ndim == 1 else (-2, -1)
    xi = np.meshgrid(*[2.0 * frequency_scale * np.fft.fftfreq(x.shape[a]) for a in axes],
                     indexing="ij")
    mult = (1.0 + sum(k ** 2 for k in xi)) ** (s / 2.0)
    return np.fft.ifftn(mult * np.fft.fftn(x, axes=axes), axes=axes).real


@pytest.mark.parametrize("shape", [(16,), (8, 8), (2, 8, 8), (4, 16), (12,), (6, 10),
                                   (3, 12, 12)])
@pytest.mark.parametrize("s", [1.0, -0.5])
def test_sobolev_norms_match_fft_reference(shape, s):
    rng = np.random.default_rng(len(shape) + shape[-1])
    X = rng.standard_normal((5,) + shape)
    flat = X.reshape(5, -1)
    space = spaces.sobolev_space(s, 2.0, shape)
    want = [np.linalg.norm(sobolev_multiply(x, s)) for x in X]
    np.testing.assert_allclose(spaces.norm_batch(space, flat), want, rtol=1e-12)
    want = [np.linalg.norm(sobolev_multiply(x, -s)) for x in X]
    np.testing.assert_allclose(spaces.dual_norm_batch(space, flat), want, rtol=1e-12)


def test_sobolev_multiplier_inverts():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(256)
    y = x @ spaces.sobolev_operator((16, 16), 1.5, 5.0)
    back = y @ spaces.sobolev_operator((16, 16), -1.5, 5.0)
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_sobolev_multiplier_constant_signal_fixed():
    # (1 + |xi|^2)^(s/2) is 1 at xi = 0, so constants are untouched.
    x = np.full(64, 3.25)
    np.testing.assert_allclose(x @ spaces.sobolev_operator((8, 8), 2.0, 5.0), x,
                               atol=1e-12)


def test_sobolev_positive_order_penalizes_oscillation():
    n = 32
    smooth = np.ones(n)
    rough = np.cos(np.pi * np.arange(n))  # alternating signs, top frequency
    w12 = spaces.sobolev_space(1.0, 2.0, (n,))
    l2 = spaces.lp_space(2.0)
    assert spaces.norm(w12, smooth) == pytest.approx(spaces.norm(l2, smooth), rel=1e-10)
    assert spaces.norm(w12, rough) > 2.0 * spaces.norm(l2, rough)


def test_sobolev_channel_layout():
    # a (c, h, w) signal is c signals of (h, w), normed together
    rng = np.random.default_rng(18)
    X = rng.standard_normal((4, 3, 8, 8))
    w12 = spaces.sobolev_space(1.0, 2.0, (8, 8))
    per_channel = [spaces.norm_batch(w12, X[:, c].reshape(4, 64)) for c in range(3)]
    want = np.sqrt(np.sum(np.square(per_channel), axis=0))
    space = spaces.sobolev_space(1.0, 2.0, (3, 8, 8))
    flat = X.reshape(4, -1)
    np.testing.assert_allclose(spaces.norm_batch(space, flat), want, rtol=1e-12)
    x = ad.Input(flat.shape)
    np.testing.assert_allclose(ad.evaluate(spaces.norm_rows(space, x), {x: flat}), want,
                               rtol=1e-12)


FEATURE_SPACES = [
    spaces.sobolev_space(s, 2.0, shape, measure=measure)
    for shape in [(7,), (12,), (5, 7), (6, 10), (16, 16), (3, 8, 8)]
    for s in (-1.0, 0.5, 1.0) for measure in spaces.MEASURES]


@pytest.mark.parametrize("space", FEATURE_SPACES, ids=[
    "x".join(map(str, sp.signal_shape)) + f"-s{sp.s:g}-{sp.measure}" for sp in FEATURE_SPACES])
def test_sobolev_pairwise_distances_from_fft_features_match_the_operator(space):
    # pairwise W^{s,2} distances come from half-spectrum features (Parseval),
    # the row norms from the dense operator
    rng = np.random.default_rng(70)
    X, Y = rng.standard_normal((6, space.size)), rng.standard_normal((5, space.size))
    want = np.array([spaces.norm_batch(space, x - Y) for x in X])
    np.testing.assert_allclose(spaces.pairwise_norms(space, X, Y), want,
                               rtol=1e-13, atol=0.0)
    empty = np.zeros((0, space.size))
    assert spaces.pairwise_norms(space, empty, Y).shape == (0, 5)
    assert spaces.pairwise_norms(space, X, empty).shape == (6, 0)


def test_sobolev_pairwise_distances_off_p_two_use_the_operator():
    space = spaces.sobolev_space(1.0, 1.5, (16, 16))
    rng = np.random.default_rng(71)
    X, Y = rng.standard_normal((4, 256)), rng.standard_normal((3, 256))
    want = np.array([spaces.norm_batch(space, x - Y) for x in X])
    np.testing.assert_allclose(spaces.pairwise_norms(space, X, Y), want,
                               rtol=1e-13, atol=0.0)


def test_sobolev_pairwise_distances_whose_fft_overflows_use_the_operator():
    # the FFT's partial sum 2e308 overflows; the operator of W^{0,2} does not
    space = spaces.sobolev_space(0.0, 2.0, (2,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spaces.pairwise_norms(space, [[1e308, 1e308]], [[0.0, 0.0]])
    assert got[0, 0] == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)


# ---------------------------------------------------------------------------
# Family composition rules
# ---------------------------------------------------------------------------

def test_weighted_norm_is_base_norm_of_scaled_signal():
    rng = np.random.default_rng(19)
    w = 0.5 + rng.random(10)
    base = spaces.lp_space(3.0)
    ws = spaces.weighted_space(base, w)
    x = rng.standard_normal(10)
    assert spaces.norm(ws, x) == pytest.approx(spaces.norm(base, w * x), rel=1e-12)
    g = rng.standard_normal(10)
    assert spaces.dual_norm(ws, g) == pytest.approx(
        spaces.dual_norm(base, g / w), rel=1e-12)


def test_product_norm_combines_factors():
    rng = np.random.default_rng(20)
    f1, f2 = spaces.lp_space(1.5), spaces.lp_space(4.0)
    prod = spaces.product_space([(f1, 6), (f2, 10)], p=3.0)
    x = rng.standard_normal(16)
    expected = (spaces.norm(f1, x[:6]) ** 3 + spaces.norm(f2, x[6:]) ** 3) ** (1 / 3)
    assert spaces.norm(prod, x) == pytest.approx(expected, rel=1e-12)


def product_inf():
    return spaces.product_space([(spaces.lp_space(2), 2), (spaces.lp_space(2), 2)],
                                p=np.inf)


def test_product_outer_inf_takes_max_of_factor_norms():
    space = product_inf()
    X = np.array([[3.0, 4.0, 0.0, 1.0], [0.0, 0.0, 5.0, 12.0]])
    np.testing.assert_array_equal(spaces.norm_batch(space, X), [5.0, 13.0])
    np.testing.assert_array_equal(
        spaces.pairwise_norms(space, X, np.zeros((1, 4)))[:, 0], [5.0, 13.0])


def test_product_outer_inf_hoelder_inequality_and_maximizer():
    space = product_inf()
    rng = np.random.default_rng(24)
    for _ in range(20):
        g = rng.standard_normal(4)
        dual = spaces.dual_norm(space, g)
        assert dual == pytest.approx(np.linalg.norm(g[:2]) + np.linalg.norm(g[2:]),
                                     rel=1e-12)
        x = rng.standard_normal(4)
        assert abs(spaces.pairing(g, x)) <= dual * spaces.norm(space, x) + 1e-12
        h = spaces.dual_norm_maximizer(space, g)
        attained = spaces.pairing(g, h) / spaces.norm(space, h)
        assert attained == pytest.approx(dual, rel=1e-12)


def label(space):
    """Test id of a space: its families and exponents, factors joined by x."""
    if space.family == "product":
        return "(" + "x".join(label(sub) for sub, _ in space.factors) + f")_{space.p:g}"
    if space.family == "weighted":
        return "w" + label(space.base)
    return f"{space.family}{space.p:g}"


def has_product(space):
    return space.family == "product" or (space.family == "weighted"
                                         and has_product(space.base))


THREE_FACTORS = spaces.product_space(
    [(spaces.lp_space(1.5), 5), (spaces.lp_space(4.0), 5),
     (spaces.weighted_space(spaces.lp_space(3.0), 0.5 + np.arange(6.0)), 6)], p=2.5)
PRODUCTS = [s for s in space_zoo() if has_product(s)] + [THREE_FACTORS]


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("space", PRODUCTS, ids=label)
def test_product_norms_are_finite_and_homogeneous_at_any_scale(space, k):
    # factor norms near 2^600 overflow at the outer power, near 2^-600
    # they underflow; the outer L^p norm rescales both
    rng = np.random.default_rng(30)
    X, Y = rng.standard_normal((6, 16)), rng.standard_normal((4, 16))
    c = 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (spaces.norm_batch(space, c * X), spaces.dual_norm_batch(space, c * X),
               spaces.pairwise_norms(space, c * X, c * Y))
    want = (spaces.norm_batch(space, X), spaces.dual_norm_batch(space, X),
            spaces.pairwise_norms(space, X, Y))
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g)) and np.all(g > 0.0)
        np.testing.assert_allclose(g / c, w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("space", [s for s in PRODUCTS if s.family == "product"],
                         ids=label)
def test_product_norms_equal_the_power_sum_of_factor_norms(space):
    rng = np.random.default_rng(31)
    X, Y = rng.standard_normal((6, 16)), rng.standard_normal((4, 16))
    edges = np.cumsum([0] + [size for _, size in space.factors])
    cols = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    def power_sum(norm, p, *args):
        parts = [norm(sub, *(a[:, c] for a in args))
                 for (sub, _), c in zip(space.factors, cols)]
        return sum(part ** p for part in parts) ** (1.0 / p)

    q = spaces.dual_exponent(space.p)
    np.testing.assert_array_equal(spaces.norm_batch(space, X),
                                  power_sum(spaces.norm_batch, space.p, X))
    np.testing.assert_array_equal(spaces.dual_norm_batch(space, X),
                                  power_sum(spaces.dual_norm_batch, q, X))
    np.testing.assert_array_equal(spaces.pairwise_norms(space, X, Y),
                                  power_sum(spaces.pairwise_norms, space.p, X, Y))


def test_normalized_measure_rescales_counting_norm():
    rng = np.random.default_rng(21)
    p = 2.5
    x = rng.standard_normal(32)
    counting = spaces.norm(spaces.lp_space(p), x)
    averaged = spaces.norm(spaces.lp_space(p, measure="normalized"), x)
    assert averaged == pytest.approx(counting * 32 ** (-1.0 / p), rel=1e-12)


def test_size_mismatch_rejected():
    sob = spaces.sobolev_space(1.0, 2.0, (8, 8))
    with pytest.raises(spaces.SpaceError):
        spaces.norm(sob, np.zeros(63))


@pytest.mark.parametrize("space", [spaces.lp_space(2.0), spaces.lp_space(np.inf),
                                   spaces.lp_space(2.0, measure="normalized")],
                         ids=["l2", "linf", "normalized"])
def test_empty_signal_rejected(space):
    with pytest.raises(spaces.SpaceError):
        spaces.norm(space, np.zeros(0))
    with pytest.raises(spaces.SpaceError):
        spaces.dual_norm(space, np.zeros(0))


# ---------------------------------------------------------------------------
# Graph builders agree with the numeric norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", space_zoo(), ids=lambda s: f"{s.family}-p{s.p}")
def test_graph_norms_match_numeric(space):
    rng = np.random.default_rng(22)
    X = rng.standard_normal((5, 16))
    x = ad.Input((5, 16), name="x")
    got = ad.evaluate(spaces.norm_rows(space, x), {x: X})
    np.testing.assert_allclose(got, spaces.norm_batch(space, X), rtol=1e-12)
    got_dual = ad.evaluate(spaces.dual_norm_rows(space, x), {x: X})
    np.testing.assert_allclose(got_dual, spaces.dual_norm_batch(space, X), rtol=1e-12)


def test_graph_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    space = spaces.sobolev_space(0.5, 3.0, (8,))
    X = rng.standard_normal((2, 8))
    x = ad.Input((2, 8), name="x")
    out = ad.Sum(spaces.norm_rows(space, x))
    got = ad.evaluate(ad.grad(out, x), {x: X})
    h = 1e-6
    fd = np.zeros_like(X)
    for i in range(2):
        for j in range(8):
            up, dn = X.copy(), X.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j] = (spaces.norm_batch(space, up).sum()
                        - spaces.norm_batch(space, dn).sum()) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# Random nested weighted and product spaces
# ---------------------------------------------------------------------------

EXPONENTS = st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0, 7.0])


@st.composite
def nested_spaces(draw, size, depth=2):
    """A space of flat ``size``: an L^p or Sobolev leaf, or a weighted
    space or product over smaller nested spaces."""
    kinds = ["lp", "sobolev"] + (["weighted", "product"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    measure = draw(st.sampled_from(spaces.MEASURES))
    if kind == "lp":
        return spaces.lp_space(draw(EXPONENTS), measure)
    if kind == "sobolev":
        return spaces.sobolev_space(draw(st.sampled_from([-1.0, 0.5, 1.0])),
                                    draw(EXPONENTS), (size,), measure=measure)
    if kind == "weighted":
        weight = draw(st.lists(st.floats(0.25, 4.0), min_size=size, max_size=size))
        return spaces.weighted_space(draw(nested_spaces(size, depth - 1)), weight)
    half = size // 2
    return spaces.product_space([(draw(nested_spaces(half, depth - 1)), half),
                                 (draw(nested_spaces(size - half, depth - 1)), size - half)],
                                p=draw(EXPONENTS))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(space=nested_spaces(8), seed=st.integers(0, 2 ** 32 - 1))
def test_nested_spaces_one_norm_algebra(space, seed):
    """Graph and numeric norms agree, pairwise norms are norms of
    differences, and Hoelder's inequality is attained by the maximizer."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 8))
    Y = rng.standard_normal((3, 8))
    x = ad.Input((4, 8), name="x")
    norms = spaces.norm_batch(space, X)
    duals = spaces.dual_norm_batch(space, X)
    np.testing.assert_allclose(ad.evaluate(spaces.norm_rows(space, x), {x: X}),
                               norms, rtol=1e-12)
    np.testing.assert_allclose(ad.evaluate(spaces.dual_norm_rows(space, x), {x: X}),
                               duals, rtol=1e-12)
    np.testing.assert_allclose(
        spaces.pairwise_norms(space, X, Y),
        [[spaces.norm_batch(space, (xi - yj)[None, :])[0] for yj in Y] for xi in X],
        rtol=1e-12)
    for g, dual, y in zip(X, duals, Y):
        assert spaces.pairing(g, y) <= dual * spaces.norm(space, y) * (1 + 1e-12)
        h = spaces.dual_norm_maximizer(space, g)
        attained = spaces.pairing(g, h) / spaces.norm(space, h)
        assert attained == pytest.approx(dual, rel=1e-10)
