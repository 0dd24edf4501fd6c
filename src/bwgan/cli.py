"""Command-line front end.

Subcommands: ``norm``, ``heuristics``, ``train``, ``wasserstein``,
``verify``.  Exit codes: 0 success, 1 verification failure, 2 usage,
config or file error, 3 numerical divergence.  ``main`` alone maps
exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import checkpoint, datasets, lipschitz, spaces, training
from .nets import ACTIVATIONS, Critic
from .spaces import SpaceSpec
from .training import DivergenceError, TrainConfig
from .transport import DiscreteMeasure, TransportError, dual_estimate, wasserstein_p_exact

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# (CSV header name, TrainMetrics attribute), in column order
METRICS_COLUMNS = (("iter", "iterations"), ("critic_loss", "critic_loss"),
                   ("gen_loss", "gen_loss"), ("penalty_mean", "penalty_mean"),
                   ("grad_dual_norm_mean", "grad_dual_norm_mean"),
                   ("drift_term", "drift_term"), ("exact_w1", "exact_w1"),
                   ("lr", "lr"))
METRICS_HEADER = ",".join(name for name, _ in METRICS_COLUMNS)


class CliError(Exception):
    """User-facing error; message printed, exit code 2."""


# ---------------------------------------------------------------------------
# Space flags and config schema
# ---------------------------------------------------------------------------

def add_space_flags(parser):
    parser.add_argument("--space", choices=("lp", "sobolev"), default="lp")
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--s", type=float, default=0.0)
    parser.add_argument("--frequency-scale", type=float, default=5.0)
    parser.add_argument("--measure", choices=spaces.MEASURES, default="counting")
    parser.add_argument("--shape", type=str, default=None,
                        help="signal shape like 16x16 or 3x16x16 (sobolev)")


def parse_shape(raw: str | None, default: tuple):
    if raw is None:
        return default
    try:
        return tuple(int(d) for d in raw.lower().split("x"))
    except ValueError:
        raise CliError(f"bad --shape {raw!r}; expected e.g. 16x16")


def space_from_flags(args, default_shape: tuple) -> SpaceSpec:
    """The space the flags name; a Sobolev space without --shape takes the
    layout of the input, ``default_shape``."""
    if args.space == "lp":
        return spaces.lp_space(args.p, args.measure)
    return spaces.sobolev_space(args.s, args.p, parse_shape(args.shape, default_shape),
                                args.frequency_scale, args.measure)


SPACE_KEYS = {"family", "p", "s", "frequency_scale", "measure", "signal_shape"}
# the train section holds the TrainConfig fields except space, with lam spelled lambda
TRAIN_KEYS = {"lambda" if f.name == "lam" else f.name
              for f in dataclasses.fields(TrainConfig) if f.name != "space"}
OUTPUT_KEYS = {"directory", "log_every"}
TOP_KEYS = {"space", "train", "output"}


def _check_keys(section: dict, allowed: set, where: str):
    for key in section:
        if key not in allowed:
            raise CliError(f"unknown key {key!r} in {where} section")


def read_text(path) -> str:
    """The contents of a UTF-8 text input; other bytes raise a CliError
    that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def load_run_config(path):
    """Parse and strictly validate a JSON run configuration."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError("config root must be an object")
    _check_keys(doc, TOP_KEYS, "top-level")
    space_doc = doc.get("space", {})
    train_doc = doc.get("train", {})
    output_doc = doc.get("output", {})
    for section, allowed, where in ((space_doc, SPACE_KEYS, "space"),
                                    (train_doc, TRAIN_KEYS, "train"),
                                    (output_doc, OUTPUT_KEYS, "output")):
        if not isinstance(section, dict):
            raise CliError(f"{where} section must be an object")
        _check_keys(section, allowed, where)

    family = space_doc.setdefault("family", "lp")
    if family not in ("lp", "sobolev"):
        raise CliError(f"unsupported space family {family!r} in config")
    if family == "sobolev" and "signal_shape" not in space_doc:
        space_doc["signal_shape"] = datasets.signal_shape(
            train_doc.get("dataset", TrainConfig.dataset))
    space = SpaceSpec(**space_doc)

    try:
        config = TrainConfig(space=space, **{"lam" if k == "lambda" else k: v
                                             for k, v in train_doc.items()})
    except ValueError as exc:
        raise CliError(str(exc))
    out_dir = output_doc.get("directory", "runs")
    log_every = output_doc.get("log_every", 1)
    if not isinstance(out_dir, str):
        raise CliError(f"directory must be a string, got {out_dir!r}")
    if isinstance(log_every, bool) or not isinstance(log_every, int) or log_every < 1:
        raise CliError(f"log_every must be an integer >= 1, got {log_every!r}")
    return config, out_dir, log_every


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------

def format_value(v) -> str:
    return "" if v is None else f"{v:.12g}"


def write_metrics_csv(path, metrics, log_every: int = 1):
    series = [getattr(metrics, attr) for _, attr in METRICS_COLUMNS[1:]]
    with open(path, "w", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for i, iteration in enumerate(metrics.iterations):
            if iteration % log_every:
                continue
            row = [str(iteration)] + [format_value(s[i]) for s in series]
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Signal and measure file I/O
# ---------------------------------------------------------------------------

def read_signal(path) -> np.ndarray:
    text = read_text(path)
    try:
        values = [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise CliError(f"malformed signal file {path}: {exc}")
    if not values:
        raise CliError(f"empty signal file {path}")
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise CliError(f"{path}: non-finite signal value")
    return values


def read_measure(path) -> DiscreteMeasure:
    """One support point per line: weight then coordinates."""
    weights, points = [], []
    for ln, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        toks = line.split()
        if len(toks) < 2:
            raise CliError(f"{path}:{ln}: need weight and coordinates")
        try:
            row = [float(t) for t in toks]
        except ValueError:
            raise CliError(f"{path}:{ln}: non-numeric entry")
        if not np.all(np.isfinite(row)):
            raise CliError(f"{path}:{ln}: non-finite entry")
        weights.append(row[0])
        points.append(row[1:])
    if not points:
        raise CliError(f"empty measure file {path}")
    if len({len(p) for p in points}) != 1:
        raise CliError(f"{path}: inconsistent point dimensions")
    weights = np.asarray(weights)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise CliError(
            f"{path}: weights sum to {weights.sum():.12g}, expected 1")
    weights = weights / weights.sum()
    return DiscreteMeasure(np.asarray(points), weights)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_norm(args) -> int:
    x = read_signal(args.input)
    space = space_from_flags(args, (x.size,))
    value = format_value(spaces.norm(space, x))
    dual = format_value(spaces.dual_norm(space, x)) if space.p > 1.0 else "n/a"
    print(f"norm={value} dual={dual}")
    return EXIT_OK


def uniform_cube(dim):
    def sampler(rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, dim))
    return sampler


def cmd_heuristics(args) -> int:
    if args.samples < 1:
        raise CliError("need --samples >= 1")
    if args.seed < 0:
        raise CliError("need --seed >= 0")
    rng = np.random.default_rng(args.seed)
    if args.dataset == "uniform_cube":
        if args.dim < 1:
            raise CliError("need --dim >= 1")
        sampler = uniform_cube(args.dim)
        shape = (args.dim,)
    else:
        sampler = datasets.make_sampler(args.dataset)
        shape = datasets.signal_shape(args.dataset)
    space = space_from_flags(args, shape)
    lam, lam_se, gam, gam_se = training.heuristic_stats(sampler, rng, args.samples, space)
    print(f"lambda={lam:.12g} stderr={lam_se:.6g}")
    print(f"gamma={gam:.12g} stderr={gam_se:.6g}")
    print(f"samples={args.samples}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, out_dir, log_every = load_run_config(args.config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    try:
        generator, critic, metrics = training.train(config)
    except DivergenceError as exc:
        write_metrics_csv(csv_path, exc.metrics, log_every)
        raise
    write_metrics_csv(csv_path, metrics, log_every)
    checkpoint.save_tensors(os.path.join(out_dir, "generator.ckpt"),
                            generator.mlp.params)
    checkpoint.save_tensors(os.path.join(out_dir, "critic.ckpt"),
                            critic.mlp.params)
    summary = {
        "iterations": len(metrics),
        "lambda": metrics.lambda_value,
        "gamma": metrics.gamma_value,
        "lambda_stderr": metrics.lambda_stderr,
        "gamma_stderr": metrics.gamma_stderr,
        "final_critic_loss": metrics.critic_loss[-1] if len(metrics) else None,
        "activation": config.activation,
        "dataset": config.dataset,
    }
    with open(os.path.join(out_dir, "run_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path}")
    return EXIT_OK


def critic_from_checkpoint(path, activation="relu") -> Critic:
    """Rebuild a critic from checkpoint tensors; widths come from shapes.

    The checkpoint must hold exactly the rebuilt critic's tensors, with
    their shapes.
    """
    tensors = checkpoint.load_tensors(path)
    weights = []
    while f"critic.w{len(weights)}" in tensors:
        weights.append(tensors[f"critic.w{len(weights)}"])
    if not weights or any(w.ndim != 2 or 0 in w.shape for w in weights) \
            or weights[-1].shape[1] != 1:
        raise CliError(f"{path}: not a critic checkpoint")
    critic = Critic(weights[0].shape[0], tuple(w.shape[1] for w in weights[:-1]),
                    activation)
    params = critic.mlp.params
    for name in sorted(set(params) | set(tensors)):
        if name not in tensors:
            raise CliError(f"{path}: missing tensor {name}")
        if name not in params:
            raise CliError(f"{path}: unexpected tensor {name}")
        if tensors[name].shape != params[name].shape:
            raise CliError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                           f"expected {params[name].shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise CliError(f"{path}: tensor {name} has a non-finite entry")
    critic.mlp.set_params(tensors)
    return critic


def cmd_wasserstein(args) -> int:
    mu = read_measure(args.measure_a)
    nu = read_measure(args.measure_b)
    dim = mu.points.shape[1]
    space = space_from_flags(args, (dim,))
    if args.check_dual:
        critic = critic_from_checkpoint(args.check_dual, args.activation)
        if critic.in_dim != dim:
            raise CliError(f"{args.check_dual}: critic takes {critic.in_dim} "
                           f"inputs, the measures have dimension {dim}")
    value, _ = wasserstein_p_exact(mu, nu, space, args.wp)
    print(f"w{args.wp:g}={value:.12g}")
    if args.check_dual:
        est = dual_estimate(critic, mu, nu)
        print(f"dual_estimate={est:.12g}")
        print(f"gap={value - est:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites: each yields one verdict per check
# ---------------------------------------------------------------------------

def _suite_spaces():
    return [spaces.lp_space(1.3), spaces.lp_space(2.0), spaces.lp_space(10.0),
            spaces.sobolev_space(-1.0, 2.0, (8, 8)),
            spaces.sobolev_space(1.0, 2.0, (8, 8))]


def suite_lemma1(rng):
    """Difference quotients dominated by segment gradient suprema."""
    for space in _suite_spaces():
        dim = space.size or 64
        critic = Critic(dim, (24, 24), "tanh", rng=rng)
        for _ in range(40):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            quot = lipschitz.difference_quotient(critic, space, x, y)
            sup = lipschitz.segment_grad_sup(critic, space, x, y, samples=100)
            yield quot <= sup + 1e-6


def suite_holder(rng, perturb=0.0):
    """Dual-norm inequality plus exactness of the analytic maximizer; a
    non-finite dual norm fails."""
    for space in _suite_spaces():
        dim = space.size or 64
        for _ in range(40):
            g = rng.standard_normal(dim)
            dual = spaces.dual_norm(space, g) * (1.0 + perturb)
            x = rng.standard_normal(dim)
            ok = spaces.pairing(g, x) <= dual * spaces.norm(space, x) + 1e-10
            h = spaces.dual_norm_maximizer(space, g)
            attained = spaces.pairing(g, h) / spaces.norm(space, h)
            yield (ok and np.isfinite(dual)
                   and abs(attained - dual) <= 1e-10 * max(1.0, dual))


def suite_sobolev0(rng):
    """W^{0,p} norms agree with L^p norms."""
    for p in (1.3, 2.0, 4.0):
        lp = spaces.lp_space(p)
        w0 = spaces.sobolev_space(0.0, p, (16, 16))
        for _ in range(50):
            x = rng.standard_normal(256)
            a = spaces.norm(w0, x)
            b = spaces.norm(lp, x)
            yield abs(a - b) <= 1e-8 * max(1.0, b)


def suite_doublebackprop(rng):
    """Penalty parameter gradients match central finite differences."""
    from .training import CriticLossGraph
    space = spaces.lp_space(2.0)
    critic = Critic(6, (12,), "softplus", rng=rng)
    graph = CriticLossGraph(critic, space, 10.0, 1.0, 0.0, 4)
    real = rng.standard_normal((4, 6))
    fake = rng.standard_normal((4, 6))
    xhat = training.interpolate(real, fake, rng.random(4))
    _, grads = graph.losses_and_grads(real, fake, xhat)
    eps = 1e-5
    for name, grad in grads.items():
        params = critic.mlp.params[name]
        flat = params.reshape(-1)
        idxs = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = graph.losses(real, fake, xhat)["loss"]
            flat[idx] = orig - eps
            lo = graph.losses(real, fake, xhat)["loss"]
            flat[idx] = orig
            fd = (hi - lo) / (2.0 * eps)
            scale = max(abs(fd), 1e-6)
            yield abs(grad.reshape(-1)[idx] - fd) <= 1e-4 * scale


SUITES = {
    "lemma1": suite_lemma1,
    "holder": suite_holder,
    "sobolev0": suite_sobolev0,
    "doublebackprop": suite_doublebackprop,
}


def cmd_verify(args) -> int:
    perturb = args.perturb_dual_norm
    if args.seed < 0:
        raise CliError("need --seed >= 0")
    if not np.isfinite(perturb):
        raise CliError(f"--perturb-dual-norm must be finite, got {perturb}")
    if perturb and args.suite not in (None, "holder"):
        raise CliError(f"--perturb-dual-norm acts only on the holder suite, "
                       f"not {args.suite}")
    suites = dict(SUITES, holder=functools.partial(suite_holder, perturb=perturb))
    if args.config is not None:
        load_run_config(args.config)  # strict validation only
    names = [args.suite] if args.suite else list(SUITES)
    any_failed = False
    for name in names:
        verdicts = list(map(bool, suites[name](np.random.default_rng(args.seed))))
        passed = sum(verdicts)
        failed = len(verdicts) - passed
        status = "PASS" if failed == 0 else "FAIL"
        print(f"{name}: {status} ({passed} passed, {failed} failed)")
        any_failed = any_failed or failed
    return EXIT_VERIFY_FAIL if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parser whose errors, its subparsers' too, are one line and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="bwgan",
        description="Banach-norm GAN toolkit: norms, transport, training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norm and dual norm of a signal file")
    p.add_argument("input")
    add_space_flags(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("heuristics", help="lambda/gamma parameter heuristics")
    p.add_argument("--dataset", default="eight_gaussians",
                   choices=sorted(datasets.SAMPLERS) + ["uniform_cube"])
    p.add_argument("--dim", type=int, default=3072,
                   help="dimension for uniform_cube")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    add_space_flags(p)
    p.set_defaults(func=cmd_heuristics)

    p = sub.add_parser("train", help="run a training configuration")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("wasserstein", help="exact W_p between measure files")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("--wp", type=float, default=1.0, metavar="P",
                   help="transport exponent")
    p.add_argument("--check-dual", metavar="CHECKPOINT",
                   help="also report the critic dual estimate and gap")
    p.add_argument("--activation", default="relu", choices=sorted(ACTIVATIONS))
    add_space_flags(p)
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("verify", help="run property verification suites")
    p.add_argument("--config", default=None)
    p.add_argument("--suite", choices=sorted(SUITES), default=None)
    p.add_argument("--perturb-dual-norm", type=float, default=0.0,
                   help="fault injection for the Hoelder suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CliError, checkpoint.CheckpointError, spaces.SpaceError,
            TransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a bare MemoryError() has an empty message
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
