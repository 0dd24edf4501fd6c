"""Small fully connected networks as reusable graph templates.

Parameters live as numpy arrays bound to Input placeholders, so each
program is compiled on first use, once per kind and batch size, and
re-evaluated as the parameters change.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "softplus": ad.softplus}


class MLP:
    """Dense network with a fixed activation and a linear output layer."""

    def __init__(self, in_dim, widths, out_dim, activation="relu", rng=None,
                 name="mlp"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.nodes: dict[str, ad.Input] = {}
        dims = [self.in_dim, *widths, self.out_dim]
        n_layers = len(dims) - 1
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            scale = np.sqrt(2.0 / a) if activation == "relu" else np.sqrt(1.0 / a)
            if i == n_layers - 1:
                # small output init: the map starts near zero, which keeps
                # early critic scores tame and early samples near the mean
                scale *= 0.05
            self._add_param(f"{name}.w{i}", rng.normal(0.0, scale, size=(a, b)))
            self._add_param(f"{name}.b{i}", np.zeros(b))
        self.n_layers = len(dims) - 1

    def _add_param(self, key, value):
        value = np.asarray(value, dtype=np.float64)
        self.params[key] = value
        self.nodes[key] = ad.Input(value.shape, name=key)

    def apply(self, x: ad.Node) -> ad.Node:
        """Build the forward graph for a (batch, in_dim) operand."""
        act = ACTIVATIONS[self.activation]
        h = x
        for i in range(self.n_layers):
            h = ad.affine(h, self.nodes[f"{self.name}.w{i}"],
                          self.nodes[f"{self.name}.b{i}"])
            if i < self.n_layers - 1:
                h = act(h)
        return h

    def env(self) -> dict:
        return {self.nodes[k]: v for k, v in self.params.items()}

    def param_names(self):
        return list(self.params)

    def set_params(self, values: dict):
        for k, v in values.items():
            if k not in self.params:
                raise KeyError(f"unknown parameter {k}")
            if self.params[k].shape != np.shape(v):
                raise ValueError(f"shape mismatch for parameter {k}")
            self.params[k] = np.asarray(v, dtype=np.float64)


class GraphCritic:
    """Scalar map on flattened signals, defined by a graph template.

    ``build_scores`` maps a (batch, in_dim) node to a (batch,) node of
    per-sample scores.  The value and input-gradient programs are compiled
    separately on first use and cached per (kind, batch size).
    ``extra_env`` supplies parameter bindings, if any.
    """

    def __init__(self, in_dim, build_scores, extra_env=None):
        self.in_dim = int(in_dim)
        self.build_scores = build_scores
        self.extra_env = extra_env if extra_env is not None else dict
        self._cache = {}

    def _run(self, kind, X):
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[0]
        if (kind, batch) not in self._cache:
            x = ad.Input((batch, self.in_dim), name="x")
            scores = self.build_scores(x)
            if scores.shape != (batch,):
                raise ad.ShapeError(
                    f"critic scores must have shape ({batch},), got {scores.shape}")
            out = scores if kind == "value" else ad.grad(ad.sum_all(scores), x)
            self._cache[kind, batch] = (x, ad.Program(out))
        x, program = self._cache[kind, batch]
        env = dict(self.extra_env())
        env[x] = X
        return program(env)

    def value_batch(self, X) -> np.ndarray:
        return self._run("value", X)

    def input_gradient_batch(self, X) -> np.ndarray:
        """Per-row gradients d score_k / d x_k, stacked as rows."""
        return self._run("gradient", X)


class Critic(GraphCritic):
    """MLP critic: flattened signal -> real score."""

    def __init__(self, in_dim, widths=(128, 128, 128), activation="relu", rng=None):
        self.mlp = MLP(in_dim, widths, 1, activation=activation, rng=rng,
                       name="critic")
        super().__init__(
            in_dim,
            lambda x: ad.reshape(self.mlp.apply(x), (x.shape[0],)),
            extra_env=self.mlp.env)


class Generator:
    """MLP generator: latent vector -> flattened signal."""

    def __init__(self, latent_dim, out_dim, widths=(128, 128, 128),
                 activation="relu", rng=None):
        self.latent_dim = int(latent_dim)
        self.out_dim = int(out_dim)
        self.mlp = MLP(latent_dim, widths, out_dim, activation=activation,
                       rng=rng, name="gen")
        self._cache = {}

    def _graphs(self, batch):
        if batch not in self._cache:
            z = ad.Input((batch, self.latent_dim), name="z")
            self._cache[batch] = (z, ad.Program(self.mlp.apply(z)))
        return self._cache[batch]

    def sample(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.float64)
        z, out = self._graphs(Z.shape[0])
        env = self.mlp.env()
        env[z] = Z
        return out(env)
