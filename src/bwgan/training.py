"""Gradient-penalty GAN training with an arbitrary Banach-space norm.

The critic loss is

    (E D(fake) - E D(real)) / gamma
    + lambda * E ((||dD(xhat)||_B* / gamma) - 1)^2
    + drift * E D(real)^2

with xhat drawn uniformly on segments between real and fake samples.  The
penalty term is differentiated with respect to the critic parameters by
double backpropagation through the graph-valued gradient.  The generator
minimizes -E D(G(Z)) / gamma, the adversarial counterpart.

Parameter heuristics: lambda ~ E ||X||_B and gamma ~ E ||X||_B* over the
data distribution, which keep the loss scale norm-independent.

``Adam`` keeps the parameters it optimizes in one flat buffer, updated in
place, and the networks' parameter arrays become views of it.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import datasets
from .nets import ACTIVATIONS, Critic, Generator
from .spaces import (SpaceError, SpaceSpec, dual_norm_batch, dual_norm_rows, is_count,
                     norm_batch)
from .transport import DiscreteMeasure, wasserstein_1


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, iteration, metrics):
        super().__init__(f"non-finite loss at iteration {iteration}")
        self.iteration = iteration
        self.metrics = metrics


# ---------------------------------------------------------------------------
# Parameter heuristics
# ---------------------------------------------------------------------------

def heuristic_lambda(sample, space: SpaceSpec) -> float:
    """Empirical mean of ||X||_B over a dataset sample."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(norm_batch(space, sample)))


def heuristic_stats(sampler, rng: np.random.Generator, n: int, space: SpaceSpec):
    """(lambda, gamma) heuristics with Monte-Carlo standard errors over
    ``n`` rows of ``sampler(rng, k)``, drawn at most 2048 at a time so that
    memory stays flat for large ``n`` times the signal size."""
    if not is_count(n):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    norms, duals = [], []
    for start in range(0, n, 2048):
        chunk = np.asarray(sampler(rng, min(n - start, 2048)), dtype=np.float64)
        norms.append(norm_batch(space, chunk))
        duals.append(dual_norm_batch(space, chunk))
    norms, duals = np.concatenate(norms), np.concatenate(duals)
    return (float(norms.mean()), float(norms.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            float(duals.mean()), float(duals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)


def optimal_constant_c(gamma: float, lam: float, mean_norm: float) -> float:
    """Minimizer of the zero-generator critic objective.

    The scale of the best constant-slope critic f(x) = c ||x||_B under the
    penalized loss; equals gamma * (1 + mean_norm / (2 lambda)).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return gamma * (1.0 + mean_norm / (2.0 * lam))


def constant_objective(c, gamma: float, lam: float, mean_norm: float):
    """The 1-D objective that ``optimal_constant_c`` minimizes.

    E[-c ||X|| / gamma + lambda (c - gamma)^2 / gamma^2], vectorized in c.
    """
    c = np.asarray(c, dtype=np.float64)
    return -c * mean_norm / gamma + lam * (c - gamma) ** 2 / gamma ** 2


def interpolate(real_batch, fake_batch, u) -> np.ndarray:
    """Per-sample segment points u * real + (1 - u) * fake."""
    real_batch = np.asarray(real_batch, dtype=np.float64)
    fake_batch = np.asarray(fake_batch, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).ravel()
    if not (len(real_batch) == len(fake_batch) == len(u)):
        raise ValueError("batch size mismatch")
    return u[:, None] * real_batch + (1.0 - u[:, None]) * fake_batch


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam over a dict of named parameter arrays, updated in place.

    Construction copies the parameters into one contiguous float64 buffer
    and replaces each dict entry with a view of it, so whoever holds the
    dict, such as an ``MLP``, sees every step.  A step copies the
    gradients into one flat buffer and runs the textbook per-tensor update
    as in-place ufuncs over one preallocated scratch buffer and the
    gradient buffer, once the moments have consumed it, operation for
    operation in the same order, so its results are bit-identical to that
    expression and allocate nothing.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.0,
                 beta2: float = 0.9, eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.flat = np.empty(sum(np.size(v) for v in params.values()))
        self._grad = np.empty_like(self.flat)
        self._grad_views = {}
        offset = 0
        for k, v in list(params.items()):
            end = offset + np.size(v)
            view = self.flat[offset:end].reshape(np.shape(v))
            view[...] = v
            params[k] = view
            self._grad_views[k] = self._grad[offset:end].reshape(np.shape(v))
            offset = end
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = np.empty_like(self.flat)
        self.t = 0

    def step(self, grads: dict, lr: float | None = None):
        """One update; ``grads`` holds a gradient for every parameter."""
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for k, view in self._grad_views.items():
            np.copyto(view, grads[k])
        g, m, v, a = self._grad, self.m, self.v, self._scratch
        np.multiply(m, b1, out=m)            # m = b1 m + (1 - b1) g
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, b2, out=v)            # v = b2 v + (1 - b2) g g
        np.multiply(g, 1.0 - b2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, corr1, out=a)           # lr m / corr1
        np.multiply(a, lr, out=a)
        np.divide(v, corr2, out=g)           # sqrt(v / corr2) + eps
        np.sqrt(g, out=g)
        np.add(g, self.eps, out=g)
        np.divide(a, g, out=a)
        np.subtract(self.flat, a, out=self.flat)


# ---------------------------------------------------------------------------
# Loss graphs
# ---------------------------------------------------------------------------

class CriticLossGraph:
    """Critic loss, metrics and parameter gradients as one shared graph,
    compiled once."""

    def __init__(self, critic: Critic, space: SpaceSpec, lam: float,
                 gamma: float, drift: float, batch: int):
        self.critic = critic
        d = critic.in_dim
        self.x_real = ad.Input((batch, d), name="x_real")
        self.x_fake = ad.Input((batch, d), name="x_fake")
        self.x_hat = ad.Input((batch, d), name="x_hat")

        s_real = critic.build_scores(self.x_real)
        s_fake = critic.build_scores(self.x_fake)
        s_hat = critic.build_scores(self.x_hat)

        gx = ad.grad(ad.Sum(s_hat), self.x_hat)
        dn = dual_norm_rows(space, gx)
        excess = ad.Sub(ad.Mul(dn, ad.Constant(1.0 / gamma)), ad.Constant(1.0))
        self.penalty = ad.mean_all(ad.Mul(excess, excess))
        self.dn_mean = ad.mean_all(dn)
        self.drift = ad.Mul(ad.mean_all(ad.Mul(s_real, s_real)),
                            ad.Constant(drift))
        wasserstein_part = ad.Mul(
            ad.Sub(ad.mean_all(s_fake), ad.mean_all(s_real)),
            ad.Constant(1.0 / gamma))
        self.loss = ad.Add(
            ad.Add(wasserstein_part, ad.Mul(self.penalty, ad.Constant(lam))),
            self.drift)

        self.param_names = critic.mlp.param_names()
        param_nodes = [critic.mlp.nodes[k] for k in self.param_names]
        self.grad_nodes = ad.grad(self.loss, param_nodes)
        self._program = ad.Program([self.loss, self.penalty, self.dn_mean, self.drift,
                                    *self.grad_nodes])

    def _env(self, real, fake, xhat):
        env = self.critic.mlp.env()
        env[self.x_real] = real
        env[self.x_fake] = fake
        env[self.x_hat] = xhat
        return env

    def _run(self, real, fake, xhat):
        """The metrics dict and the parameter gradient dict."""
        vals = self._program(self._env(real, fake, xhat))
        metrics = dict(zip(("loss", "penalty", "dn_mean", "drift"), map(float, vals[:4])))
        return metrics, dict(zip(self.param_names, vals[4:]))

    def losses(self, real, fake, xhat) -> dict:
        return self._run(real, fake, xhat)[0]

    def losses_and_grads(self, real, fake, xhat):
        return self._run(real, fake, xhat)


class GeneratorLossGraph:
    """Generator loss and parameter gradients, critic held fixed."""

    def __init__(self, generator: Generator, critic: Critic, gamma: float,
                 batch: int):
        self.generator = generator
        self.critic = critic
        self.z = ad.Input((batch, generator.latent_dim), name="z")
        fake = generator.mlp.apply(self.z)
        scores = critic.build_scores(fake)
        self.loss = ad.Mul(ad.Neg(ad.mean_all(scores)),
                           ad.Constant(1.0 / gamma))
        self.param_names = generator.mlp.param_names()
        param_nodes = [generator.mlp.nodes[k] for k in self.param_names]
        self.grad_nodes = ad.grad(self.loss, param_nodes)
        self._loss_and_grads = ad.Program([self.loss, *self.grad_nodes])

    def _env(self, Z):
        env = self.generator.mlp.env()
        env.update(self.critic.mlp.env())
        env[self.z] = Z
        return env

    def loss_and_grads(self, Z):
        vals = self._loss_and_grads(self._env(Z))
        return float(vals[0]), dict(zip(self.param_names, vals[1:]))


def penalty_term(critic: Critic, xhat_batch, space: SpaceSpec,
                 gamma: float) -> float:
    """Mean squared penalty E ((||dD(xhat)||_B* / gamma) - 1)^2 alone."""
    xhat_batch = np.asarray(xhat_batch, dtype=np.float64)
    dn = dual_norm_batch(space, critic.input_gradient_batch(xhat_batch))
    return float(np.mean((dn / gamma - 1.0) ** 2))


# ---------------------------------------------------------------------------
# Configuration and metrics
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    space: SpaceSpec
    lam: float | str = "auto"
    gamma: float | str = "auto"
    latent_dim: int = 32
    critic_widths: tuple = (128, 128, 128)
    gen_widths: tuple = (128, 128, 128)
    activation: str = "relu"
    n_critic: int = 5
    batch_size: int = 64
    total_iterations: int = 3000
    lr: float = 1e-3
    beta1: float = 0.0
    beta2: float = 0.9
    linear_lr_decay: bool = True
    drift_coefficient: float = 1e-5
    seed: int = 0
    dataset: str = "eight_gaussians"
    w1_every: int = 50
    heuristic_samples: int = 1024

    def __post_init__(self):
        for name in ("critic_widths", "gen_widths"):
            widths = getattr(self, name)
            if isinstance(widths, (list, tuple)):
                setattr(self, name, tuple(widths))
        for name, (valid, expected) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        dim = datasets.dataset_dim(self.dataset)
        if self.space.size not in (None, dim):
            raise SpaceError(f"space size {self.space.size} does not match "
                             f"the {self.dataset} dimension {dim}")


def _is_real(v):
    return not isinstance(v, bool) and (isinstance(v, numbers.Integral) or (
        isinstance(v, numbers.Real) and np.isfinite(v)))


def _auto_or_positive(v):
    return (isinstance(v, str) and v == "auto") or (_is_real(v) and v > 0)


def _widths(v):
    return isinstance(v, tuple) and all(is_count(d) for d in v)


def _integer(lo):
    return lambda v: is_count(v, lo), f"an integer >= {lo}"


def _one_of(names):
    return lambda v: isinstance(v, str) and v in names, f"one of {sorted(names)}"


_UNIT_INTERVAL = (lambda v: _is_real(v) and 0 <= v < 1, "a number in [0, 1)")

# field -> (check, what the check expects); bools are not accepted as numbers
_FIELD_CHECKS = {
    "space": (lambda v: isinstance(v, SpaceSpec), "a SpaceSpec"),
    "lam": (_auto_or_positive, "a positive number or 'auto'"),
    "gamma": (_auto_or_positive, "a positive number or 'auto'"),
    "latent_dim": _integer(1),
    "critic_widths": (_widths, "a list of integers >= 1"),
    "gen_widths": (_widths, "a list of integers >= 1"),
    "activation": _one_of(ACTIVATIONS),
    "n_critic": _integer(1),
    "batch_size": _integer(1),
    "total_iterations": _integer(0),
    "lr": (lambda v: _is_real(v) and v > 0, "a positive number"),
    "beta1": _UNIT_INTERVAL,
    "beta2": _UNIT_INTERVAL,
    "linear_lr_decay": (lambda v: isinstance(v, bool), "true or false"),
    "drift_coefficient": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    "seed": _integer(0),
    "dataset": _one_of(datasets.SAMPLERS),
    "w1_every": _integer(0),
    "heuristic_samples": _integer(1),
}


@dataclass
class TrainMetrics:
    """Per-iteration training records plus resolved hyperparameters."""

    iterations: list = field(default_factory=list)
    critic_loss: list = field(default_factory=list)
    gen_loss: list = field(default_factory=list)
    penalty_mean: list = field(default_factory=list)
    grad_dual_norm_mean: list = field(default_factory=list)
    drift_term: list = field(default_factory=list)
    exact_w1: list = field(default_factory=list)  # None off monitoring steps
    lr: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    lambda_value: float = float("nan")
    gamma_value: float = float("nan")
    lambda_stderr: float = 0.0
    gamma_stderr: float = 0.0

    def append(self, iteration, c_loss, g_loss, penalty, dn_mean, drift,
               w1, lr, wall):
        self.iterations.append(iteration)
        self.critic_loss.append(c_loss)
        self.gen_loss.append(g_loss)
        self.penalty_mean.append(penalty)
        self.grad_dual_norm_mean.append(dn_mean)
        self.drift_term.append(drift)
        self.exact_w1.append(w1)
        self.lr.append(lr)
        self.wall_time.append(wall)

    def __len__(self):
        return len(self.iterations)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def resolve_parameters(config: TrainConfig, rng: np.random.Generator,
                       sampler) -> tuple[float, float, TrainMetrics]:
    """Resolve 'auto' lambda/gamma from data and record Monte-Carlo error."""
    metrics = TrainMetrics()
    need = config.lam == "auto" or config.gamma == "auto"
    if need:
        lam_mean, lam_se, gam_mean, gam_se = heuristic_stats(
            sampler, rng, config.heuristic_samples, config.space)
        if config.lam == "auto" and lam_mean <= 0.0:
            raise ValueError("dataset is degenerate: heuristic lambda is 0")
        metrics.lambda_stderr = lam_se
        metrics.gamma_stderr = gam_se
    lam = lam_mean if config.lam == "auto" else float(config.lam)
    gamma = gam_mean if config.gamma == "auto" else float(config.gamma)
    metrics.lambda_value = lam
    metrics.gamma_value = gamma
    return lam, gamma, metrics


def train(config: TrainConfig):
    """Run the adversarial loop; returns (generator, critic, metrics).

    Each generator step is preceded by ``n_critic`` critic steps on fresh
    batches.  Deterministic for a fixed seed.  The exact-W1 monitor draws
    from its own generator, so ``w1_every`` does not change the training
    trajectory.  Raises DivergenceError with metrics so far if the loss
    becomes non-finite.
    """
    rng = np.random.default_rng(config.seed)
    monitor_rng = np.random.default_rng([config.seed, 1])
    sampler = datasets.make_sampler(config.dataset)
    dim = datasets.dataset_dim(config.dataset)

    lam, gamma, metrics = resolve_parameters(config, rng, sampler)

    critic = Critic(dim, config.critic_widths, config.activation, rng=rng)
    generator = Generator(config.latent_dim, dim, config.gen_widths,
                          config.activation, rng=rng)
    if config.total_iterations == 0:
        return generator, critic, metrics

    c_graph = CriticLossGraph(critic, config.space, lam, gamma,
                              config.drift_coefficient, config.batch_size)
    g_graph = GeneratorLossGraph(generator, critic, gamma, config.batch_size)
    c_opt = Adam(critic.mlp.params, config.lr, config.beta1, config.beta2)
    g_opt = Adam(generator.mlp.params, config.lr, config.beta1, config.beta2)

    b = config.batch_size
    t0 = time.perf_counter()
    for it in range(config.total_iterations):
        frac = it / config.total_iterations if config.linear_lr_decay else 0.0
        lr = config.lr * (1.0 - frac)

        c_metrics = None
        for _ in range(config.n_critic):
            real = sampler(rng, b)
            z = rng.standard_normal((b, config.latent_dim))
            fake = generator.sample(z)
            u = rng.random(b)
            xhat = interpolate(real, fake, u)
            c_metrics, grads = c_graph.losses_and_grads(real, fake, xhat)
            c_opt.step(grads, lr=lr)

        z = rng.standard_normal((b, config.latent_dim))
        g_loss, g_grads = g_graph.loss_and_grads(z)
        g_opt.step(g_grads, lr=lr)

        if not (np.isfinite(c_metrics["loss"]) and np.isfinite(g_loss)):
            raise DivergenceError(it, metrics)

        w1 = None
        if config.w1_every > 0 and it % config.w1_every == 0:
            w1 = minibatch_w1(config, monitor_rng, sampler, generator)

        metrics.append(it, c_metrics["loss"], g_loss, c_metrics["penalty"],
                       c_metrics["dn_mean"], c_metrics["drift"], w1, lr,
                       time.perf_counter() - t0)
    return generator, critic, metrics


def minibatch_w1(config: TrainConfig, rng, sampler, generator,
                 n_points: int = 64) -> float:
    """Exact W1 between 64-point generated and data minibatch measures."""
    real = sampler(rng, n_points)
    z = rng.standard_normal((n_points, config.latent_dim))
    fake = generator.sample(z)
    w = np.full(n_points, 1.0 / n_points)
    return wasserstein_1(DiscreteMeasure(fake, w), DiscreteMeasure(real, w),
                         config.space)
