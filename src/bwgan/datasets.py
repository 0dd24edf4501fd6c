"""Synthetic desk-scale datasets.

All samplers return (n, dim) arrays of flattened signals and take a numpy
Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

EIGHT_GAUSSIANS_RADIUS = 2.0
EIGHT_GAUSSIANS_SIGMA = 0.02
RECT_SHAPE = (16, 16)


def eight_gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixture of 8 isotropic Gaussians on a ring of radius 2, sigma 0.02."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    centers = EIGHT_GAUSSIANS_RADIUS * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    idx = rng.integers(0, 8, size=n)
    return centers[idx] + EIGHT_GAUSSIANS_SIGMA * rng.standard_normal((n, 2))


def swiss_roll(rng: np.random.Generator, n: int) -> np.ndarray:
    """2-D spiral with mild radial noise, scaled to roughly [-2, 2]^2."""
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
    x = t * np.cos(t)
    y = t * np.sin(t)
    pts = np.stack([x, y], axis=1) / (4.5 * np.pi) * 4.0
    return pts + 0.02 * rng.standard_normal((n, 2))


def rectangles(rng: np.random.Generator, n: int) -> np.ndarray:
    """16x16 single-channel images of axis-aligned rectangles with smooth
    intensity ramps; flattened to rows of 256.

    Image k covers rows [y0, y1) and columns [x0, x1), each side at least 2
    long, and holds amp * (0.5 + (d0 (y - y0) + d1 (x - x0)) / 16) there,
    for a unit direction d and an amplitude amp in [0.5, 1.5).  The
    parameters of all n images are drawn in one batch per kind.

    The ramps put energy in many frequencies, so Sobolev multipliers act on
    nontrivial spectra.
    """
    h, w = RECT_SHAPE
    ys = np.sort(rng.integers(0, h, size=(n, 2)), axis=1)
    xs = np.sort(rng.integers(0, w, size=(n, 2)), axis=1)
    direction = rng.standard_normal((n, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True) + 1e-12
    amp = 0.5 + rng.random(n)
    y0, x0 = ys[:, :1], xs[:, :1]
    y1 = np.maximum(ys[:, 1:], y0 + 2)
    x1 = np.maximum(xs[:, 1:], x0 + 2)
    yy, xx = np.arange(h), np.arange(w)
    out = (direction[:, :1] * (yy - y0))[:, :, None] \
        + (direction[:, 1:] * (xx - x0))[:, None, :]
    out /= max(h, w)
    out += 0.5
    out *= amp[:, None, None]
    inside = ((yy >= y0) & (yy < y1))[:, :, None] & ((xx >= x0) & (xx < x1))[:, None, :]
    np.copyto(out, 0.0, where=~inside)
    return out.reshape(n, h * w)


SAMPLERS = {
    "eight_gaussians": eight_gaussians,
    "swiss_roll": swiss_roll,
    "rectangles": rectangles,
}


def make_sampler(name: str):
    if name not in SAMPLERS:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(SAMPLERS)}")
    return SAMPLERS[name]


def signal_shape(name: str) -> tuple:
    """The layout of one sample: the image grid for rectangles, a point of
    the plane otherwise."""
    return RECT_SHAPE if name == "rectangles" else (2,)


def dataset_dim(name: str) -> int:
    return int(np.prod(signal_shape(name)))
