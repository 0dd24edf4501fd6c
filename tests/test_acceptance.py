"""Acceptance gate: ten quantitative criteria, one pass/fail line each.

Each test prints its verdict through ``capsys.disabled`` so the line is
visible even under captured output, then asserts, so a red criterion shows
up both in the printed line and the pytest summary.
"""

import time

import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan import spaces, training, transport
from bwgan.nets import Critic
from bwgan.training import Adam, CriticLossGraph, interpolate
from ot_vertices import min_cost_by_enumeration

L2 = spaces.lp_space(2.0)


def verdict(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Difference quotients dominated by segment gradient suprema
# ---------------------------------------------------------------------------

def test_criterion_01_quotient_domination(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    dim = 64
    w = 0.5 + rng.random(dim)
    zoo = [spaces.lp_space(1.3), L2, spaces.lp_space(10.0),
           spaces.sobolev_space(-1.0, 2.0, (8, 8)),
           spaces.sobolev_space(1.0, 2.0, (8, 8)),
           spaces.weighted_space(spaces.lp_space(3.0), w),
           spaces.product_space([(spaces.lp_space(1.5), 32),
                                 (spaces.lp_space(4.0), 32)], p=2.0)]
    pairs = 1429  # 7 spaces x 1429 pairs > 10^4 total
    worst = -np.inf
    for space in zoo:
        critic = Critic(dim, (24, 24), "tanh", rng=rng)
        X = rng.standard_normal((pairs, dim))
        Y = rng.standard_normal((pairs, dim))
        quot = (np.abs(critic.value_batch(X) - critic.value_batch(Y))
                / spaces.norm_batch(space, X - Y))
        sups = np.full(pairs, -np.inf)
        for t in np.linspace(0.0, 1.0, 102):
            pts = t * X + (1.0 - t) * Y
            dn = spaces.dual_norm_batch(space, critic.input_gradient_batch(pts))
            sups = np.maximum(sups, dn)
        worst = max(worst, float(np.max(quot - sups)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    verdict(capsys, 1, "quotient domination", ok,
            f"worst excess {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. L2 penalty reduces to the euclidean gradient penalty
# ---------------------------------------------------------------------------

def test_criterion_02_euclidean_reduction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(10):
        critic = Critic(8, (16, 16), "softplus", rng=rng)
        gamma = 0.5 + rng.random() * 2.0
        graph = CriticLossGraph(critic, L2, lam=1.0, gamma=gamma, drift=0.0,
                                batch=16)
        for _ in range(10):
            real = rng.standard_normal((16, 8))
            fake = rng.standard_normal((16, 8))
            xhat = interpolate(real, fake, rng.random(16))
            got = graph.losses(real, fake, xhat)["penalty"]
            # independent euclidean formula on the raw gradient rows
            g = critic.input_gradient_batch(xhat)
            want = float(np.mean((np.sqrt(np.sum(g * g, axis=1)) / gamma - 1.0) ** 2))
            worst = max(worst, abs(got - want))
            direct = training.penalty_term(critic, xhat, L2, gamma)
            worst = max(worst, abs(direct - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(capsys, 2, "euclidean reduction", ok,
            f"max deviation {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Order-zero Sobolev norm reduces to the Lp norm
# ---------------------------------------------------------------------------

def test_criterion_03_sobolev_reduction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for p in (1.3, 2.0, 4.0):
        w0 = spaces.sobolev_space(0.0, p, (16, 16))
        lp = spaces.lp_space(p)
        X = rng.standard_normal((1000, 256))
        a = spaces.norm_batch(w0, X)
        b = spaces.norm_batch(lp, X)
        worst = max(worst, float(np.max(np.abs(a - b) / b)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    verdict(capsys, 3, "sobolev reduction", ok,
            f"max rel err {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Hoelder duality against the random-direction supremum oracle
# ---------------------------------------------------------------------------

def test_criterion_04_hoelder_duality(capsys):
    # The direction oracle needs exponentially many samples per dimension
    # to approach the supremum, so it is sharp only in dimension 2; the
    # analytic maximizer supplies the exact equality check.
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    zoo = [spaces.lp_space(1.3), L2, spaces.lp_space(4.0),
           spaces.sobolev_space(-1.0, 2.0, (2,)),
           spaces.sobolev_space(1.0, 2.0, (2,)),
           spaces.sobolev_space(0.5, 3.0, (2,))]
    worst_frac = 1.0
    worst_exact = 0.0
    for space in zoo:
        for _ in range(20):
            g = rng.standard_normal(2)
            dual = spaces.dual_norm(space, g)
            X = rng.standard_normal((10_000, 2))
            sup = float(np.max((X @ g) / spaces.norm_batch(space, X)))
            assert sup <= dual + 1e-10  # oracle approaches from below
            worst_frac = min(worst_frac, sup / dual)
            h = spaces.dual_norm_maximizer(space, g)
            attained = spaces.pairing(g, h) / spaces.norm(space, h)
            worst_exact = max(worst_exact,
                              abs(attained - dual) / max(1.0, dual))
    elapsed = time.perf_counter() - t0
    ok = worst_frac >= 0.995 and worst_exact <= 1e-10 and elapsed < 30.0
    verdict(capsys, 4, "hoelder duality", ok,
            f"oracle frac {worst_frac:.5f}, maximizer err {worst_exact:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Double backprop: penalty parameter gradients vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_05_double_backprop(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    critic = Critic(16, (28,), "softplus", rng=rng)  # 505 parameters
    n_params = sum(v.size for v in critic.mlp.params.values())
    assert n_params == 505
    space = spaces.lp_space(3.0)
    batch = 8
    x = ad.Input((batch, 16), name="x")
    scores = critic.build_scores(x)
    gx = ad.grad(ad.Sum(scores), x)
    dn = spaces.dual_norm_rows(space, gx)
    excess = ad.Sub(dn, ad.Constant(1.0))
    penalty = ad.mean_all(ad.Mul(excess, excess))
    names = critic.mlp.param_names()
    grad_nodes = ad.grad(penalty, [critic.mlp.nodes[k] for k in names])
    X = rng.standard_normal((batch, 16))

    def penalty_value():
        env = critic.mlp.env()
        env[x] = X
        return float(ad.evaluate(penalty, env))

    env = critic.mlp.env()
    env[x] = X
    grads = ad.evaluate(grad_nodes, env)

    eps = 1e-5
    worst = 0.0
    for name, grad in zip(names, grads):
        flat = critic.mlp.params[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = penalty_value()
            flat[i] = orig - eps
            lo = penalty_value()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(np.ravel(grad)[i] - fd) / max(abs(fd), 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(capsys, 5, "double backprop", ok,
            f"max rel err {worst:.3e} over {n_params} params, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. LP transport vs exhaustive vertex enumeration, plus metric axioms
# ---------------------------------------------------------------------------

def test_criterion_06_transport_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def measure(m, dim):
        w = rng.random(m) + 0.05
        return transport.DiscreteMeasure(rng.standard_normal((m, dim)), w / w.sum())

    worst = 0.0
    for _ in range(200):
        m, n = rng.integers(2, 5, size=2)
        dim = int(rng.integers(1, 4))
        mu, nu = measure(m, dim), measure(n, dim)
        p = float(rng.choice([1.0, 2.0]))
        dist, _ = transport.wasserstein_p_exact(mu, nu, L2, p)
        cost = transport.cost_matrix(mu, nu, L2, p)
        brute = min_cost_by_enumeration(cost, mu.weights, nu.weights) ** (1.0 / p)
        worst = max(worst, abs(dist - brute))

    axioms_ok = True
    for _ in range(100):
        p = float(rng.choice([1.0, 2.0]))
        a, b, c = measure(4, 2), measure(3, 2), measure(4, 2)
        dab = transport.wasserstein_p_exact(a, b, L2, p)[0]
        dba = transport.wasserstein_p_exact(b, a, L2, p)[0]
        dac = transport.wasserstein_p_exact(a, c, L2, p)[0]
        dcb = transport.wasserstein_p_exact(c, b, L2, p)[0]
        daa = transport.wasserstein_p_exact(a, a, L2, p)[0]
        axioms_ok = axioms_ok and dab >= 0.0 and abs(dab - dba) <= 1e-9
        axioms_ok = axioms_ok and dab <= dac + dcb + 1e-9 and daa <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and axioms_ok and elapsed < 30.0
    verdict(capsys, 6, "transport oracle", ok,
            f"max lp-vs-enum gap {worst:.2e}, axioms {axioms_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Kantorovich duality at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_kantorovich_duality(capsys):
    # Two fixed 32-point 2D clouds away from the origin, the regime the
    # lambda heuristic targets: the data norm scale (~13.5) dominates W1
    # (~1.17), so the two-sided penalty's equilibrium Lipschitz constant
    # 1 + W1 / (2 lambda) stays within a few percent of 1.
    t0 = time.perf_counter()
    rng0 = np.random.default_rng(123)
    A = rng0.standard_normal((32, 2)) + np.array([10.0, 8.0])
    B = rng0.standard_normal((32, 2)) + np.array([11.0, 8.5])
    w = np.full(32, 1.0 / 32.0)
    mu = transport.DiscreteMeasure(A, w)
    nu = transport.DiscreteMeasure(B, w)
    w1 = transport.wasserstein_1(mu, nu, L2)
    lam = training.heuristic_lambda(np.concatenate([A, B]), L2)
    gamma = 1.0

    errs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        critic = Critic(2, (64, 64, 64), "relu", rng=rng)
        graph = CriticLossGraph(critic, L2, lam, gamma, drift=0.0, batch=32)
        opt = Adam(critic.mlp.params, 1e-3, 0.0, 0.9)
        for step in range(2000):
            perm = rng.permutation(32)
            xhat = interpolate(A, B[perm], rng.random(32))
            _, grads = graph.losses_and_grads(A, B[perm], xhat)
            opt.step(grads, lr=1e-3 * (1.0 - step / 2000.0))
        est = transport.dual_estimate(critic, mu, nu)
        errs.append(abs(est - w1) / w1)
    median = float(np.median(errs))
    elapsed = time.perf_counter() - t0
    ok = median <= 0.10 and elapsed < 300.0
    verdict(capsys, 7, "kantorovich duality", ok,
            f"median rel err {median:.4f} vs W1 {w1:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Parameter heuristics on the high-dimensional cube
# ---------------------------------------------------------------------------

def test_criterion_08_heuristics(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    dim, total = 3072, 10_000
    norms, duals = [], []
    remaining = total
    while remaining:
        chunk = rng.uniform(-1.0, 1.0, size=(min(remaining, 1000), dim))
        norms.append(spaces.norm_batch(L2, chunk))
        duals.append(spaces.dual_norm_batch(L2, chunk))
        remaining -= len(chunk)
    lam = float(np.concatenate(norms).mean())
    gam = float(np.concatenate(duals).mean())
    # E ||X||_2 with iid uniform coordinates concentrates at sqrt(dim / 3)
    target = np.sqrt(dim / 3.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(lam - gam) <= 1e-10 * lam
          and abs(lam - target) <= 0.01 * target
          and elapsed < 30.0)
    verdict(capsys, 8, "heuristics", ok,
            f"lambda {lam:.3f} gamma {gam:.3f} target {target:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Closed-form optimal constant vs grid search
# ---------------------------------------------------------------------------

def test_criterion_09_optimal_constant(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        gamma = 0.1 + rng.random() * 5.0
        lam = 0.1 + rng.random() * 10.0
        m = rng.random() * 8.0
        c_star = training.optimal_constant_c(gamma, lam, m)
        grid = np.linspace(0.0, 2.0 * c_star + 1.0, 100_000)
        obj = training.constant_objective(grid, gamma, lam, m)
        best = grid[int(np.argmin(obj))]
        spacing = grid[1] - grid[0]
        worst = max(worst, abs(c_star - best) / spacing)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 5.0
    verdict(capsys, 9, "optimal constant", ok,
            f"worst offset {worst:.3f} grid steps, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. End-to-end training on the eight-Gaussian ring
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_end_to_end(capsys):
    t0 = time.perf_counter()
    ratios, bands = [], []
    for seed in range(5):
        config = training.TrainConfig(space=L2, seed=seed)
        _, _, metrics = training.train(config)
        w1s = [w for w in metrics.exact_w1 if w is not None]
        ratios.append(w1s[-1] / w1s[0])
        q = len(metrics.iterations) * 3 // 4
        dn = float(np.mean(metrics.grad_dual_norm_mean[q:]))
        bands.append(dn / metrics.gamma_value)
    median_ratio = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = (median_ratio <= 0.5
          and all(0.5 <= b <= 1.5 for b in bands)
          and elapsed < 1200.0)
    verdict(capsys, 10, "end-to-end training", ok,
            f"median final/initial W1 {median_ratio:.3f}, "
            f"dn/gamma {min(bands):.2f}..{max(bands):.2f}, {elapsed:.0f}s")
