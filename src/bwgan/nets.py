"""Small fully connected networks as reusable graph templates.

Parameters live as numpy arrays, bound at each call to Input placeholders.
Every network of one name and architecture shares those Inputs and its
programs, each compiled on first use, once per kind and input shape.  So
one graph holds at most one network per name and architecture: a second
would bind the same Inputs.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import autodiff as ad

ACTIVATIONS = {"relu": ad.Relu, "tanh": ad.Tanh, "softplus": ad.Softplus}


@cache
def _shared(name, architecture):
    """The parameter Inputs and the programs of every network of one name
    and architecture.  A program is a few KB, one per kind and input shape
    used, and is never evicted."""
    dims = architecture[:-1]
    nodes = {}
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        nodes[f"{name}.w{i}"] = ad.Input((a, b), name=f"{name}.w{i}")
        nodes[f"{name}.b{i}"] = ad.Input((b,), name=f"{name}.b{i}")
    return nodes, {}


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
        dims = [self.in_dim, *widths, self.out_dim]
        self.architecture = (*dims, activation)
        self.nodes, self.programs = _shared(name, self.architecture)
        self.n_layers = len(dims) - 1
        self.params: dict[str, np.ndarray] = {}
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            scale = np.sqrt(2.0 / a) if activation == "relu" else np.sqrt(1.0 / a)
            if i == self.n_layers - 1:
                # small output init: the map starts near zero, which keeps
                # early critic scores tame and early samples near the mean
                scale *= 0.05
            self.params[f"{name}.w{i}"] = rng.normal(0.0, scale, size=(a, b))
            self.params[f"{name}.b{i}"] = np.zeros(b)

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
        """Copy ``values`` into the existing parameter arrays, so views of
        them, such as an ``Adam`` buffer's, stay live."""
        for k, v in values.items():
            if k not in self.params:
                raise KeyError(f"unknown parameter {k}")
            if self.params[k].shape != np.shape(v):
                raise ValueError(f"shape mismatch for parameter {k}")
            np.copyto(self.params[k], v)


def _call(programs, kind, X, build, env):
    """Evaluate the program of ``kind`` at X's shape, compiling ``build(x)``
    on a miss, with X bound to its ``x`` Input and the parameters bound by
    ``env``."""
    key = (kind, X.shape)
    if key not in programs:
        x = ad.Input(X.shape, name="x")
        programs[key] = (x, ad.Program(build(x)))
    x, program = programs[key]
    env[x] = X
    return program(env)


class GraphCritic:
    """Scalar map on flattened signals, defined by a graph template.

    ``build_scores`` maps a (batch, in_dim) node to a (batch,) node of
    per-sample scores.  The value and input-gradient programs are compiled
    separately on first use and cached per (kind, input shape) in a cache
    of this critic's own.
    """

    def __init__(self, in_dim, build_scores):
        self.in_dim = int(in_dim)
        self.build_scores = build_scores
        self._cache = {}

    def env(self) -> dict:
        """Parameter values by Input; a plain graph critic has none."""
        return {}

    def _run(self, kind, X):
        X = np.asarray(X, dtype=np.float64)
        batch = X.shape[0]

        def build(x):
            scores = self.build_scores(x)
            if scores.shape != (batch,):
                raise ad.ShapeError(
                    f"critic scores must have shape ({batch},), got {scores.shape}")
            return scores if kind == "value" else ad.grad(ad.Sum(scores), x)

        return _call(self._cache, kind, X, build, self.env())

    def value_batch(self, X) -> np.ndarray:
        return self._run("value", X)

    def input_gradient_batch(self, X) -> np.ndarray:
        """Per-row gradients d score_k / d x_k, stacked as rows."""
        return self._run("gradient", X)


class Critic(GraphCritic):
    """MLP critic: flattened signal -> real score.  It shares its Inputs and
    programs with every Critic of the same ``in_dim``, ``widths`` and
    ``activation``."""

    def __init__(self, in_dim, widths=(128, 128, 128), activation="relu", rng=None):
        mlp = self.mlp = MLP(in_dim, widths, 1, activation=activation, rng=rng,
                             name="critic")
        # closes over the network, not the critic, which reference
        # counting alone then frees
        super().__init__(in_dim, lambda x: ad.Reshape(mlp.apply(x), (x.shape[0],)))
        self._cache = mlp.programs

    def env(self) -> dict:
        return self.mlp.env()


class Generator:
    """MLP generator: latent vector -> flattened signal."""

    def __init__(self, latent_dim, out_dim, widths=(128, 128, 128),
                 activation="relu", rng=None):
        self.latent_dim = int(latent_dim)
        self.out_dim = int(out_dim)
        self.mlp = MLP(latent_dim, widths, out_dim, activation=activation,
                       rng=rng, name="gen")
        self._cache = self.mlp.programs

    def sample(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.float64)
        return _call(self._cache, "sample", Z, self.mlp.apply, self.mlp.env())
