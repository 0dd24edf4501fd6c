"""The four benchmark workloads, driven through bwgan's public API.

Each workload is built from a seed alone; the same seed gives the same
inputs and the same sequence of rounds.  A round is a fixed batch of
operations (training iterations, W1 solves or audited point pairs), so
every run attempts whole rounds.  ``run_round`` returns timing samples,
pairs of (operations completed, seconds of timed work) that together
cover the round.  An operation that raises one of the program's own
errors counts in ``failed`` and the run goes on; ``failures`` lists every
correctness check that did not hold, against computations in
``reference`` or properties the method must have.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time

import numpy as np

from bwgan import autodiff, datasets, lipschitz, nets, spaces, training, transport

from reference import RefSpace, central_difference, w1_by_assignment

FREQUENCY_SCALE = 5.0  # the Sobolev frequency scale bwgan uses by default

# Errors the program raises for an operation it cannot complete.
PROGRAM_ERRORS = (autodiff.GraphError, autodiff.ShapeError, spaces.SpaceError,
                  training.DivergenceError, transport.TransportError)


class Workload:
    name = ""
    op = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.operation_errors: list[str] = []  # the first few, for the log
        # the traced run sets this so that checks stay out of the trace
        self.unobserved = contextlib.nullcontext

    def first_unit_start(self) -> float:
        """Finish set-up; return the perf_counter time the first timed unit
        of work starts (the set-up probe stops its clock there)."""
        raise NotImplementedError

    def run_round(self) -> list[tuple[int, float]]:
        raise NotImplementedError

    def failures(self) -> list[str]:
        return list(self.errors)

    def fail(self, message: str):
        self.errors.append(message)

    def operation_failed(self, ops: int, exc: Exception):
        self.failed += ops
        if len(self.operation_errors) < 5:
            self.operation_errors.append(
                f"{ops} {self.op}(s): {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# train-*: the adversarial loop, one whole training run per round
# ---------------------------------------------------------------------------

class TrainWorkload(Workload):
    """``training.train`` on a default TrainConfig except dataset and space.

    Every round repeats the same seeded run, so rounds must give
    bit-identical loss digests.  Loop time is the run's own
    ``TrainMetrics.wall_time``, which starts at iteration 0 and includes
    the exact-W1 monitor.  A round is timed in chunks of ``w1_every``
    iterations, each with one monitor solve, so that every sample holds
    the same work.
    """

    op = "iteration"
    dataset = ""
    iterations = 0
    w1_end_ratio = None  # end/start bound on the monitored W1, if checked
    fd_entries = 6
    fd_step = 1e-6

    def __init__(self, seed):
        super().__init__(seed)
        self.config = training.TrainConfig(
            space=self.make_space(), dataset=self.dataset,
            total_iterations=self.iterations, seed=self.seed)
        self.digests = []

    def make_space(self):
        raise NotImplementedError

    def first_unit_start(self):
        probe = dataclasses.replace(self.config, total_iterations=1)
        _, _, metrics = training.train(probe)
        return time.perf_counter() - metrics.wall_time[-1]

    def run_round(self):
        self.attempted += self.iterations
        try:
            generator, critic, metrics = training.train(self.config)
        except PROGRAM_ERRORS as exc:
            self.operation_failed(self.iterations, exc)
            return []
        self.check_run(metrics)
        if not self.digests:
            with self.unobserved():
                self.check_gradients(generator, critic, metrics)
        self.digests.append(digest(metrics))
        if self.digests[-1] != self.digests[0]:
            self.fail(f"round {len(self.digests)} loss digest differs from round 1")
        chunk = self.config.w1_every
        ends = np.concatenate([[0.0], metrics.wall_time[chunk - 1::chunk]])
        return [(chunk, t) for t in np.diff(ends)]

    def check_run(self, m):
        if len(m) != self.iterations:
            self.fail(f"{len(m)} iterations recorded, {self.iterations} run")
            return
        series = np.array([m.critic_loss, m.gen_loss, m.penalty_mean,
                           m.grad_dual_norm_mean, m.drift_term])
        if not np.all(np.isfinite(series)):
            self.fail("non-finite loss")
        if self.config.space.family == "lp" and self.config.space.p == 2.0:
            # L2 is self-dual, so the two heuristics average the same norms
            if abs(m.lambda_value - m.gamma_value) > 1e-12 * m.gamma_value:
                self.fail(f"L2 lambda {m.lambda_value!r} != gamma {m.gamma_value!r}")
        quarter = np.asarray(m.grad_dual_norm_mean[-(self.iterations // 4):])
        ratio = float(np.mean(quarter) / m.gamma_value)
        if not 0.5 <= ratio <= 1.5:
            self.fail(f"mean dn/gamma over the last quarter is {ratio:.3f}")
        w1 = [v for v in m.exact_w1 if v is not None]
        if not w1 or not np.all(np.isfinite(w1)):
            self.fail(f"monitored W1 values {w1}")
        elif self.w1_end_ratio is not None and w1[-1] > self.w1_end_ratio * w1[0]:
            self.fail(f"monitored W1 went from {w1[0]:.4f} to {w1[-1]:.4f}")

    def check_gradients(self, generator, critic, m):
        """Critic-loss gradients of the trained critic against central
        differences, on output-layer entries: the loss is smooth in them
        even for a ReLU critic, whose activation pattern they cannot flip."""
        cfg = self.config
        rng = np.random.default_rng([self.seed, 1])
        b, dim = cfg.batch_size, critic.in_dim
        real = rng.normal(0.0, 2.0, size=(b, dim))
        fake = generator.sample(rng.standard_normal((b, cfg.latent_dim)))
        xhat = training.interpolate(real, fake, rng.random(b))
        graph = training.CriticLossGraph(critic, cfg.space, m.lambda_value,
                                         m.gamma_value, cfg.drift_coefficient, b)
        _, grads = graph.losses_and_grads(real, fake, xhat)
        params = critic.mlp.params
        last = critic.mlp.n_layers - 1
        keys = [f"critic.w{last}", f"critic.b{last}"]

        def loss():
            return graph.losses(real, fake, xhat)["loss"]

        for i in range(self.fd_entries):
            key = keys[i % 2]
            index = tuple(int(rng.integers(n)) for n in params[key].shape)
            fd = central_difference(loss, params, key, index, self.fd_step)
            g = float(grads[key][index])
            if not abs(fd - g) <= 1e-6 * max(1.0, abs(g)):
                self.fail(f"d loss / d {key}{list(index)}: graph {g!r}, "
                          f"central difference {fd!r}")


def digest(m) -> str:
    h = hashlib.sha256()
    for series in (m.critic_loss, m.gen_loss, m.penalty_mean,
                   m.grad_dual_norm_mean, m.drift_term,
                   [v for v in m.exact_w1 if v is not None]):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
    return h.hexdigest()


class Train8GaussL2(TrainWorkload):
    name = "train-8gauss-l2"
    dataset = "eight_gaussians"
    iterations = 300
    # over seeds 0-29 the end/start ratio of the monitored W1 was 0.41-0.70
    w1_end_ratio = 0.85

    def make_space(self):
        return spaces.lp_space(2.0)


class TrainRectSobolev(TrainWorkload):
    name = "train-rect-sobolev"
    dataset = "rectangles"
    iterations = 50   # short rounds: the speed factor is measured between rounds
    # No W1-decrease check: the 64-point monitor cannot show progress here.
    # W1 between two independent 64-image data batches is about 6.1 in
    # W^{1,2}, above the 4.9 between data and near-zero images, and over
    # 400 iterations the monitored values stayed between 6.7 and 8.2.  So a
    # round is one chunk, whose single monitor solve is only checked finite.

    def make_space(self):
        return spaces.sobolev_space(1.0, 2.0, datasets.RECT_SHAPE, FREQUENCY_SCALE)


# ---------------------------------------------------------------------------
# w1-exact: exact transport solves, uniform and weighted, L2 and W^{1,2}
# ---------------------------------------------------------------------------

ATOMS = 64            # weights are integer multiples of 1 / ATOMS
WEIGHTED_SIZES = (40, 25)
# HiGHS stops at its default feasibility tolerance, 1e-7; most solves match
# the assignment optimum to 1e-15, but some miss it by up to 8e-10 relative.
W1_RTOL = 1e-7


def random_counts(rng, size):
    """``size`` positive integers summing to ATOMS."""
    cuts = np.sort(rng.choice(np.arange(1, ATOMS), size - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [ATOMS]]))


class W1Exact(Workload):
    """Four solves a round: {L2 on R^2, W^{1,2} on 16x16} x {uniform 64 vs
    64, weighted 40 vs 25}.  Each value is checked against an assignment
    solve on a cost matrix computed here."""

    name = "w1-exact"
    op = "solve"

    def __init__(self, seed):
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        shape = datasets.RECT_SHAPE
        self.cases = [
            ("L2", spaces.lp_space(2.0), RefSpace("lp", 2.0), 2),
            ("W1,2", spaces.sobolev_space(1.0, 2.0, shape, FREQUENCY_SCALE),
             RefSpace("sobolev2", 2.0, 1.0, shape, FREQUENCY_SCALE),
             int(np.prod(shape))),
        ]

    def make_inputs(self):
        rng = self.rng
        inputs = []
        for label, space, ref, dim in self.cases:
            shift = rng.normal(0.0, 1.0, size=dim)
            for sizes in ((ATOMS, ATOMS), WEIGHTED_SIZES):
                if sizes[0] == ATOMS:
                    counts = (np.ones(ATOMS, int), np.ones(ATOMS, int))
                else:
                    counts = (random_counts(rng, sizes[0]), random_counts(rng, sizes[1]))
                X = rng.normal(0.0, 1.0, size=(sizes[0], dim))
                Y = rng.normal(0.0, 1.5, size=(sizes[1], dim)) + shift
                mu = transport.DiscreteMeasure(X, counts[0] / ATOMS)
                nu = transport.DiscreteMeasure(Y, counts[1] / ATOMS)
                inputs.append((label, space, ref, mu, nu, counts))
        return inputs

    def first_unit_start(self):
        self.make_inputs()
        return time.perf_counter()

    def run_round(self):
        inputs = self.make_inputs()
        timed, ops = 0.0, 0
        for label, space, ref, mu, nu, counts in inputs:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                value, plan = transport.wasserstein_p_exact(mu, nu, space, 1.0)
            except PROGRAM_ERRORS as exc:
                self.operation_failed(1, exc)
                continue
            finally:
                timed += time.perf_counter() - t0
            ops += 1
            self.check_solve(label, ref, mu, nu, counts, value, plan)
        return [(ops, timed)]

    def check_solve(self, label, ref, mu, nu, counts, value, plan):
        m, n = len(mu), len(nu)
        # one row at a time, so that the check's memory stays far below the
        # program's (the run's peak_rss_mb is the program's peak)
        C = np.stack([ref.norm(x - nu.points) for x in mu.points])
        expected = w1_by_assignment(C, counts[0], counts[1])
        case = f"{label} {m}v{n}"
        if not abs(value - expected) <= W1_RTOL * max(1.0, expected):
            self.fail(f"{case}: W1 {value!r}, assignment {expected!r}")
        P = plan.matrix
        if P.shape != (m, n) or P.min() < -1e-12:
            self.fail(f"{case}: coupling has shape {P.shape}, min {P.min():.3e}")
            return
        marginal = max(np.abs(P.sum(axis=1) - mu.weights).max(),
                       np.abs(P.sum(axis=0) - nu.weights).max())
        if marginal > 1e-9:
            self.fail(f"{case}: coupling misses its marginals by {marginal:.3e}")
        if not abs(float(np.sum(P * C)) - expected) <= W1_RTOL * max(1.0, expected):
            self.fail(f"{case}: coupling cost {np.sum(P * C)!r}, optimum {expected!r}")


# ---------------------------------------------------------------------------
# lipschitz-audit: fresh tanh critics audited in the criterion-1 space zoo
# ---------------------------------------------------------------------------

AUDIT_DIM = 64
AUDIT_WIDTHS = (24, 24)
ESTIMATE_PAIRS = 16
AUDITED_PAIRS = 8
HOLDER_POINTS = 4


def space_zoo(rng):
    """(label, bwgan space, reference space) for each space of the zoo."""
    shape = (8, 8)
    weight = 0.5 + rng.random(AUDIT_DIM)
    half = AUDIT_DIM // 2
    zoo = [(f"L^{p}", spaces.lp_space(p), RefSpace("lp", p))
           for p in (1.3, 2.0, 10.0)]
    zoo += [(f"W^{s:+g},2", spaces.sobolev_space(s, 2.0, shape, FREQUENCY_SCALE),
             RefSpace("sobolev2", 2.0, s, shape, FREQUENCY_SCALE))
            for s in (1.0, -1.0)]
    zoo.append(("weighted L^3", spaces.weighted_space(spaces.lp_space(3.0), weight),
                RefSpace("weighted", 3.0, weight=weight)))
    zoo.append(("L^1.5 x L^4",
                spaces.product_space([(spaces.lp_space(1.5), half),
                                      (spaces.lp_space(4.0), half)], p=2.0),
                RefSpace("product", 2.0, parts=((RefSpace("lp", 1.5), half),
                                                (RefSpace("lp", 4.0), half)))))
    return zoo


class LipschitzAudit(Workload):
    """Per round and space: a fresh critic, ``estimate_lipschitz`` over
    ESTIMATE_PAIRS pairs, then ``difference_quotient`` and
    ``segment_grad_sup`` on AUDITED_PAIRS pairs, the counted operations."""

    name = "lipschitz-audit"
    op = "pair"

    def __init__(self, seed):
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        self.zoo = space_zoo(self.rng)

    def make_inputs(self):
        rng = self.rng
        draw = lambda n: rng.normal(0.0, 1.0, size=(n, AUDIT_DIM))  # noqa: E731
        return [(int(rng.integers(2 ** 32)), draw(ESTIMATE_PAIRS), draw(ESTIMATE_PAIRS),
                 draw(AUDITED_PAIRS), draw(AUDITED_PAIRS), draw(HOLDER_POINTS))
                for _ in self.zoo]

    def first_unit_start(self):
        self.make_inputs()
        return time.perf_counter()

    def run_round(self):
        inputs = self.make_inputs()
        timed, ops = 0.0, 0
        for (label, space, ref), (critic_seed, EX, EY, PX, PY, H) in zip(self.zoo, inputs):
            self.attempted += AUDITED_PAIRS
            t0 = time.perf_counter()
            try:
                critic = nets.Critic(AUDIT_DIM, AUDIT_WIDTHS, "tanh",
                                     rng=np.random.default_rng(critic_seed))
                report = lipschitz.estimate_lipschitz(critic, space, lambda n: (EX, EY),
                                                      ESTIMATE_PAIRS)
            except PROGRAM_ERRORS as exc:
                timed += time.perf_counter() - t0
                self.operation_failed(AUDITED_PAIRS, exc)
                continue
            audited = []
            for x, y in zip(PX, PY):
                try:
                    audited.append((lipschitz.difference_quotient(critic, space, x, y),
                                    lipschitz.segment_grad_sup(critic, space, x, y)))
                except PROGRAM_ERRORS as exc:
                    self.operation_failed(1, exc)
            timed += time.perf_counter() - t0
            ops += len(audited)
            with self.unobserved():
                self.check_space(label, space, ref, critic, report, audited, H)
        return [(ops, timed)]

    def check_space(self, label, space, ref, critic, report, audited, H):
        for k, (quotient, sup) in enumerate(audited):
            # Lemma 1: a difference quotient is dominated by the dual norm
            # of the gradient somewhere on the segment
            if not quotient <= sup + 1e-6:
                self.fail(f"{label} pair {k}: quotient {quotient!r} > segment sup {sup!r}")
        if not report.max_dual_gradient_norm >= report.max_difference_quotient:
            self.fail(f"{label}: estimate max dual gradient norm "
                      f"{report.max_dual_gradient_norm!r} < max quotient "
                      f"{report.max_difference_quotient!r}")
        G = critic.input_gradient_batch(H)
        got = spaces.dual_norm_batch(space, G)
        want = ref.dual_norm(G)
        if not np.allclose(got, want, rtol=1e-9, atol=0.0):
            self.fail(f"{label}: dual norms {got} != Hoelder formula {want}")
        for g, d in zip(G, want):
            h = spaces.dual_norm_maximizer(space, g)
            attained = float(np.dot(g, h) / ref.norm(h)[0])
            if not abs(attained - d) <= 1e-9 * d:
                self.fail(f"{label}: maximizer attains {attained!r}, dual norm {d!r}")


WORKLOADS = {w.name: w for w in (Train8GaussL2, TrainRectSobolev, W1Exact, LipschitzAudit)}
