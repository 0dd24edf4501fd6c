import numpy as np
import pytest

from bwgan import datasets


@pytest.mark.parametrize("name", sorted(datasets.SAMPLERS))
def test_sampler_shapes_and_determinism(name):
    sampler = datasets.make_sampler(name)
    dim = datasets.dataset_dim(name)
    a = sampler(np.random.default_rng(7), 100)
    b = sampler(np.random.default_rng(7), 100)
    assert a.shape == (100, dim)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_eight_gaussians_on_ring():
    pts = datasets.eight_gaussians(np.random.default_rng(0), 2000)
    radii = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(radii, 2.0, atol=0.15)
    # all 8 modes visited
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    mode = np.round(angles / (np.pi / 4)).astype(int) % 8
    assert len(np.unique(mode)) == 8


def test_rectangles_layout():
    imgs = datasets.rectangles(np.random.default_rng(1), 20)
    assert imgs.shape == (20, 256)
    # every image has zero background and a nonzero rectangle
    for row in imgs:
        assert np.any(row == 0.0) and np.any(row != 0.0)


def test_rectangles_match_per_pixel_loop():
    n = 50
    imgs = datasets.rectangles(np.random.default_rng(2), n).reshape(n, 16, 16)
    # the parameters, drawn in the sampler's order
    rng = np.random.default_rng(2)
    ys = np.sort(rng.integers(0, 16, size=(n, 2)), axis=1)
    xs = np.sort(rng.integers(0, 16, size=(n, 2)), axis=1)
    direction = rng.standard_normal((n, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True) + 1e-12
    amp = 0.5 + rng.random(n)
    for k in range(n):
        (y0, y1), (x0, x1) = ys[k], xs[k]
        y1, x1 = max(y1, y0 + 2), max(x1, x0 + 2)
        want = np.zeros((16, 16))
        for y in range(16):
            for x in range(16):
                if y0 <= y < y1 and x0 <= x < x1:
                    ramp = (direction[k, 0] * (y - y0) + direction[k, 1] * (x - x0)) / 16
                    want[y, x] = amp[k] * (0.5 + ramp)
        np.testing.assert_array_equal(imgs[k], want)
        outside = np.ones((16, 16), dtype=bool)
        outside[y0:y1, x0:x1] = False
        assert y1 - y0 >= 2 and x1 - x0 >= 2
        assert not np.any(imgs[k][outside])


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        datasets.make_sampler("mnist")
