"""Small fully connected networks as reusable graph templates.

Parameters live as numpy arrays, bound at each call to Input placeholders,
so each program is compiled on first use, once per architecture, kind and
batch size, and shared by every network of that architecture.
"""

from __future__ import annotations

from functools import cache

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
        self.architecture = (*dims, activation)
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

    def apply(self, x: ad.Node, nodes=None) -> ad.Node:
        """Build the forward graph for a (batch, in_dim) operand on
        ``nodes`` (parameter name -> Input), the network's own by default."""
        nodes = self.nodes if nodes is None else nodes
        act = ACTIVATIONS[self.activation]
        h = x
        for i in range(self.n_layers):
            h = ad.affine(h, nodes[f"{self.name}.w{i}"], nodes[f"{self.name}.b{i}"])
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


@cache
def _shared_programs(role, architecture) -> dict:
    """Programs of every network of one role and architecture; an entry is
    a few KB, one per kind and batch size used, and is never evicted."""
    return {}


def _call(programs, kind, X, in_dim, build, params):
    """Evaluate the program of ``kind`` at X's batch size, compiling
    ``build(x, nodes)`` on a miss, where ``nodes`` are fresh Inputs for the
    arrays in ``params``.  The arrays are bound by position, never by name,
    so networks of one architecture share a program but no Input nodes."""
    key = (kind, X.shape[0])
    if key not in programs:
        x = ad.Input((X.shape[0], in_dim), name="x")
        nodes = {k: ad.Input(v.shape, name=k) for k, v in params.items()}
        programs[key] = (x, list(nodes.values()), ad.Program(build(x, nodes)))
    x, inputs, program = programs[key]
    env = dict(zip(inputs, params.values()))
    env[x] = X
    return program(env)


class GraphCritic:
    """Scalar map on flattened signals, defined by a graph template.

    ``build_scores`` maps a (batch, in_dim) node to a (batch,) node of
    per-sample scores.  The value and input-gradient programs are compiled
    separately on first use and cached per (kind, batch size) in a cache
    of this critic's own.
    """

    def __init__(self, in_dim, build_scores):
        self.in_dim = int(in_dim)
        self.build_scores = build_scores
        self._cache = {}

    def _scores(self, x, nodes):
        return self.build_scores(x)

    def _params(self):
        """Parameter arrays by name, bound at each call."""
        return {}

    def _run(self, kind, X):
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[0]

        def build(x, nodes):
            scores = self._scores(x, nodes)
            if scores.shape != (batch,):
                raise ad.ShapeError(
                    f"critic scores must have shape ({batch},), got {scores.shape}")
            return scores if kind == "value" else ad.grad(ad.sum_all(scores), x)

        return _call(self._cache, kind, X, self.in_dim, build, self._params())

    def value_batch(self, X) -> np.ndarray:
        return self._run("value", X)

    def input_gradient_batch(self, X) -> np.ndarray:
        """Per-row gradients d score_k / d x_k, stacked as rows."""
        return self._run("gradient", X)


class Critic(GraphCritic):
    """MLP critic: flattened signal -> real score.  It shares its programs
    with every Critic of the same ``in_dim``, ``widths`` and ``activation``."""

    def __init__(self, in_dim, widths=(128, 128, 128), activation="relu", rng=None):
        self.mlp = MLP(in_dim, widths, 1, activation=activation, rng=rng,
                       name="critic")
        super().__init__(in_dim, self._scores)
        self._cache = _shared_programs("critic", self.mlp.architecture)

    def _scores(self, x, nodes=None):
        return ad.reshape(self.mlp.apply(x, nodes), (x.shape[0],))

    def _params(self):
        return self.mlp.params


class Generator:
    """MLP generator: latent vector -> flattened signal."""

    def __init__(self, latent_dim, out_dim, widths=(128, 128, 128),
                 activation="relu", rng=None):
        self.latent_dim = int(latent_dim)
        self.out_dim = int(out_dim)
        self.mlp = MLP(latent_dim, widths, out_dim, activation=activation,
                       rng=rng, name="gen")
        self._cache = _shared_programs("generator", self.mlp.architecture)

    def sample(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.float64)
        return _call(self._cache, "sample", Z, self.latent_dim, self.mlp.apply,
                     self.mlp.params)
