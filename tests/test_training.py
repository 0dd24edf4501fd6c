import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan import spaces, training
from bwgan.nets import Critic, Generator
from bwgan.training import Adam, CriticLossGraph, GeneratorLossGraph, TrainConfig

L2 = spaces.lp_space(2.0)


def tiny_config(**overrides):
    base = dict(space=L2, lam=1.0, gamma=1.0, latent_dim=4,
                critic_widths=(8, 8), gen_widths=(8, 8), n_critic=2,
                batch_size=8, total_iterations=5, lr=1e-3, w1_every=3,
                heuristic_samples=64, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def mean_dual_norm(X, space):
    """gamma from heuristic_stats over a sampler that returns exactly X."""
    return training.heuristic_stats(lambda rng, k: X, None, len(X), space)[2]


def zeroed(critic):
    critic.mlp.set_params({k: np.zeros_like(v) for k, v in critic.mlp.params.items()})
    return critic


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------

def test_heuristic_lambda_one_hot_rows():
    X = np.eye(6)  # every row has unit norm in any L^p
    for p in (1.0, 2.0, 5.0):
        assert training.heuristic_lambda(X, spaces.lp_space(p)) == pytest.approx(1.0)


def test_heuristic_lambda_matches_mean_norm():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 8))
    space = spaces.lp_space(3.0)
    expected = np.mean([spaces.norm(space, x) for x in X])
    assert training.heuristic_lambda(X, space) == pytest.approx(expected, rel=1e-12)


def test_heuristics_coincide_for_euclidean_space():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 10))
    lam = training.heuristic_lambda(X, L2)
    gam = mean_dual_norm(X, L2)
    assert lam == pytest.approx(gam, rel=1e-14)


def test_heuristic_conjugate_pair():
    # In L^4 the dual norm is the 4/3-norm, so gamma is the mean 4/3-norm.
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 8))
    gam = mean_dual_norm(X, spaces.lp_space(4.0))
    expected = np.mean(np.sum(np.abs(X) ** (4 / 3), axis=1) ** (3 / 4))
    assert gam == pytest.approx(expected, rel=1e-12)


def test_heuristics_reject_empty_sample():
    with pytest.raises(ValueError):
        training.heuristic_lambda(np.zeros((0, 4)), L2)
    with pytest.raises(ValueError):
        training.heuristic_stats(normal_rows, np.random.default_rng(0), 0, L2)


@pytest.mark.parametrize("n", [True, 2.5, 0, -1])
def test_heuristic_stats_rejects_non_count_n(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        training.heuristic_stats(normal_rows, np.random.default_rng(0), n, L2)


def test_heuristic_stats_accepts_numpy_integer_n():
    got = training.heuristic_stats(normal_rows, np.random.default_rng(0), np.int64(3), L2)
    assert got == training.heuristic_stats(normal_rows, np.random.default_rng(0), 3, L2)


def normal_rows(rng, n):
    return rng.standard_normal((n, 4))


def test_heuristic_stats_stderr_shrinks():
    rng = np.random.default_rng(3)
    _, se_small, _, _ = training.heuristic_stats(normal_rows, rng, 100, L2)
    _, se_large, _, _ = training.heuristic_stats(normal_rows, rng, 10000, L2)
    assert 0.0 < se_large < se_small


def test_heuristic_stats_draws_at_most_2048_rows_per_call():
    calls = []

    def sampler(rng, n):
        calls.append(n)
        return normal_rows(rng, n)

    lam, lam_se, gam, gam_se = training.heuristic_stats(
        sampler, np.random.default_rng(4), 5000, L2)
    assert calls == [2048, 2048, 904]
    X = normal_rows(np.random.default_rng(4), 5000)
    norms = np.linalg.norm(X, axis=1)
    assert lam == gam  # L2 is self-dual
    assert lam == pytest.approx(norms.mean(), rel=1e-12)
    assert lam_se == pytest.approx(norms.std(ddof=1) / np.sqrt(5000), rel=1e-12)
    with pytest.raises(ValueError):
        training.heuristic_stats(sampler, np.random.default_rng(4), 0, L2)


# ---------------------------------------------------------------------------
# Constant-critic objective
# ---------------------------------------------------------------------------

def test_optimal_constant_c_formula():
    assert training.optimal_constant_c(1.0, 2.0, 4.0) == pytest.approx(2.0)
    assert training.optimal_constant_c(3.0, 1.0, 2.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        training.optimal_constant_c(1.0, 0.0, 1.0)


def test_optimal_constant_c_minimizes_objective():
    rng = np.random.default_rng(4)
    for _ in range(25):
        gamma = 0.1 + rng.random() * 5.0
        lam = 0.1 + rng.random() * 10.0
        m = rng.random() * 8.0
        c_star = training.optimal_constant_c(gamma, lam, m)
        grid = np.linspace(0.0, 2.0 * c_star + 1.0, 4001)
        obj = training.constant_objective(grid, gamma, lam, m)
        best = grid[np.argmin(obj)]
        assert abs(c_star - best) <= grid[1] - grid[0]


def test_constant_objective_value():
    # c = gamma makes the quadratic term vanish.
    assert training.constant_objective(2.0, 2.0, 5.0, 3.0) == pytest.approx(-3.0)


# ---------------------------------------------------------------------------
# Interpolation and optimizer
# ---------------------------------------------------------------------------

def test_interpolate_endpoints():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((4, 3))
    fake = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(training.interpolate(real, fake, np.ones(4)), real)
    np.testing.assert_array_equal(training.interpolate(real, fake, np.zeros(4)), fake)
    mid = training.interpolate(real, fake, np.full(4, 0.5))
    np.testing.assert_allclose(mid, 0.5 * (real + fake))


def test_interpolate_rejects_mismatch():
    with pytest.raises(ValueError):
        training.interpolate(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3))


def test_adam_minimizes_quadratic():
    params = {"x": np.array([5.0, -3.0])}
    target = np.array([1.0, 2.0])
    opt = Adam(params, lr=0.1, beta1=0.9, beta2=0.999)
    for _ in range(500):
        opt.step({"x": 2.0 * (params["x"] - target)})
    np.testing.assert_allclose(params["x"], target, atol=1e-4)


def test_adam_lr_override():
    params = {"x": np.array([1.0])}
    opt = Adam(params, lr=1.0)
    opt.step({"x": np.array([1.0])}, lr=0.0)
    np.testing.assert_array_equal(params["x"], [1.0])


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------

def test_zero_critic_loss_is_lambda():
    # D identically 0: difference term and drift vanish, the penalty is
    # (0 / gamma - 1)^2 = 1 per sample, so the loss equals lambda.
    rng = np.random.default_rng(6)
    critic = zeroed(Critic(3, (8,), "relu", rng=rng))
    batch = rng.standard_normal((5, 3))
    for lam in (0.5, 7.0):
        graph = CriticLossGraph(critic, L2, lam, gamma=2.0, drift=0.1, batch=5)
        loss = graph.losses(batch, batch, batch)["loss"]
        assert loss == pytest.approx(lam)


def test_penalty_reduces_to_euclidean_gradient_penalty():
    rng = np.random.default_rng(7)
    critic = Critic(6, (16, 16), "tanh", rng=rng)
    for gamma in (1.0, 3.0):
        xhat = rng.standard_normal((10, 6))
        got = training.penalty_term(critic, xhat, L2, gamma)
        g = critic.input_gradient_batch(xhat)
        want = np.mean((np.linalg.norm(g, axis=1) / gamma - 1.0) ** 2)
        assert got == pytest.approx(want, abs=1e-12)


def test_penalty_zero_for_exactly_calibrated_gradient():
    # f(x) = gamma * x_1 has gradient dual norm gamma everywhere.
    gamma = 2.5
    critic = Critic(2, (4,), "relu", rng=np.random.default_rng(8))
    critic.mlp.set_params({
        "critic.w0": np.array([[gamma], [0.0]]) * np.ones((2, 4)) / 2.0,
        "critic.b0": np.full(4, 10.0),  # keep all units active
        "critic.w1": np.full((4, 1), 0.5),
        "critic.b1": np.zeros(1),
    })
    xhat = np.random.default_rng(9).standard_normal((6, 2))
    assert training.penalty_term(critic, xhat, L2, gamma) == pytest.approx(0.0, abs=1e-12)


def test_generator_loss_matches_graph():
    rng = np.random.default_rng(10)
    critic = Critic(3, (8,), "tanh", rng=rng)
    gen = Generator(4, 3, (8,), "tanh", rng=rng)
    graph = GeneratorLossGraph(gen, critic, gamma=1.7, batch=6)
    Z = rng.standard_normal((6, 4))
    assert graph.loss_and_grads(Z)[0] == pytest.approx(
        -np.mean(critic.value_batch(gen.sample(Z))) / 1.7, abs=1e-12)


def test_critic_loss_graph_matches_oneoff():
    rng = np.random.default_rng(11)
    critic = Critic(4, (8, 8), "softplus", rng=rng)
    graph = CriticLossGraph(critic, L2, lam=2.0, gamma=1.5, drift=0.01, batch=5)
    real = rng.standard_normal((5, 4))
    fake = rng.standard_normal((5, 4))
    xhat = training.interpolate(real, fake, rng.random(5))
    got = graph.losses(real, fake, xhat)["loss"]
    d_real = critic.value_batch(real)
    d_fake = critic.value_batch(fake)
    want = ((np.mean(d_fake) - np.mean(d_real)) / 1.5
            + 2.0 * training.penalty_term(critic, xhat, L2, 1.5)
            + 0.01 * np.mean(d_real ** 2))
    assert got == pytest.approx(want, abs=1e-12)


def test_losses_and_grads_consistent_with_losses():
    rng = np.random.default_rng(12)
    critic = Critic(3, (6,), "tanh", rng=rng)
    graph = CriticLossGraph(critic, L2, 1.0, 1.0, 0.0, 4)
    real, fake = rng.standard_normal((2, 4, 3))
    xhat = training.interpolate(real, fake, rng.random(4))
    m1 = graph.losses(real, fake, xhat)
    m2, grads = graph.losses_and_grads(real, fake, xhat)
    assert m1 == m2
    assert set(grads) == set(critic.mlp.param_names())


# ---------------------------------------------------------------------------
# Configuration and the loop
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(n_critic=0)
    with pytest.raises(ValueError):
        tiny_config(batch_size=0)
    with pytest.raises(ValueError):
        tiny_config(lam=-1.0)
    with pytest.raises(ValueError):
        tiny_config(lam="later")
    with pytest.raises(ValueError):
        tiny_config(lam=True)
    with pytest.raises(ValueError):
        tiny_config(gamma=True)
    with pytest.raises(spaces.SpaceError, match="size 256"):
        tiny_config(space=spaces.sobolev_space(0.0, 2.0, (16, 16)))  # data is 2-D


def test_resolve_parameters_passthrough_and_auto():
    rng = np.random.default_rng(14)
    sampler = lambda r, n: r.standard_normal((n, 2)) + 5.0
    lam, gamma, metrics = training.resolve_parameters(
        tiny_config(lam=3.0, gamma=4.0), rng, sampler)
    assert (lam, gamma) == (3.0, 4.0)
    lam, gamma, metrics = training.resolve_parameters(
        tiny_config(lam="auto", gamma="auto"), rng, sampler)
    assert lam > 0 and gamma > 0
    assert metrics.lambda_value == lam
    assert metrics.lambda_stderr > 0


def test_resolve_parameters_rejects_degenerate_data():
    rng = np.random.default_rng(15)
    sampler = lambda r, n: np.zeros((n, 2))
    with pytest.raises(ValueError):
        training.resolve_parameters(tiny_config(lam="auto"), rng, sampler)


def test_train_zero_iterations():
    gen, critic, metrics = training.train(tiny_config(total_iterations=0))
    assert len(metrics) == 0
    assert gen.sample(np.zeros((1, 4))).shape == (1, 2)


def test_train_records_every_iteration():
    gen, critic, metrics = training.train(tiny_config())
    assert metrics.iterations == list(range(5))
    assert all(np.isfinite(metrics.critic_loss))
    assert all(np.isfinite(metrics.gen_loss))
    # w1 monitored on iterations 0 and 3 only
    monitored = [i for i, w in enumerate(metrics.exact_w1) if w is not None]
    assert monitored == [0, 3]
    assert all(w > 0 for w in (metrics.exact_w1[0], metrics.exact_w1[3]))


def test_train_is_deterministic():
    runs = []
    for _ in range(2):
        _, _, metrics = training.train(tiny_config(seed=42))
        runs.append((metrics.critic_loss, metrics.gen_loss, metrics.exact_w1))
    assert runs[0] == runs[1]


def test_w1_monitor_leaves_trajectory_unchanged():
    _, _, monitored = training.train(tiny_config(total_iterations=60, w1_every=50))
    _, _, plain = training.train(tiny_config(total_iterations=60, w1_every=0))
    assert monitored.exact_w1[0] is not None and monitored.exact_w1[50] is not None
    assert monitored.critic_loss == plain.critic_loss


def test_relu_critic_graph_has_no_zero_constants():
    critic = Critic(2, activation="relu", rng=np.random.default_rng(3))
    graph = CriticLossGraph(critic, L2, 1.0, 1.0, 1e-5, 16)
    order = ad.topo_order([graph.loss, graph.penalty, graph.dn_mean,
                           graph.drift, *graph.grad_nodes])
    assert any(isinstance(n, ad.Step) for n in order)
    zeros = [n for n in order if isinstance(n, ad.Constant) and not np.any(n.value)]
    assert zeros == []


def reference_walk(roots, env):
    """The roots' values from a plain walk: sort the graph, compute every
    node in order and keep every value."""
    values = {}
    for node in ad.topo_order(roots):
        if isinstance(node, ad.Input):
            values[node] = np.asarray(env[node], dtype=np.float64)
        else:
            values[node] = node.compute(*(values[p] for p in node.parents))
    return [values[r] for r in roots]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("space", [L2, spaces.sobolev_space(1.0, 2.0, (4, 4)),
                                   spaces.lp_space(np.inf)],
                         ids=["L2", "W12", "Linf"])
def test_loss_graphs_bit_equal_to_reference_walk(activation, space):
    rng = np.random.default_rng(8)
    b, dim = 8, 16
    critic = Critic(dim, (16, 16), activation, rng=rng)
    generator = Generator(4, dim, (16, 16), activation, rng=rng)
    c_graph = CriticLossGraph(critic, space, 2.0, 1.5, 1e-3, b)
    real, fake, xhat = rng.standard_normal((3, b, dim))
    metrics, grads = c_graph.losses_and_grads(real, fake, xhat)
    want = reference_walk([c_graph.loss, c_graph.penalty, c_graph.dn_mean,
                           c_graph.drift, *c_graph.grad_nodes],
                          c_graph._env(real, fake, xhat))
    assert [metrics[k] for k in ("loss", "penalty", "dn_mean", "drift")] == \
        [float(v) for v in want[:4]]
    for name, value in zip(c_graph.param_names, want[4:]):
        assert np.array_equal(grads[name], value)
    assert c_graph.losses(real, fake, xhat) == metrics

    g_graph = GeneratorLossGraph(generator, critic, 1.5, b)
    z = rng.standard_normal((b, 4))
    loss, g_grads = g_graph.loss_and_grads(z)
    want = reference_walk([g_graph.loss, *g_graph.grad_nodes], g_graph._env(z))
    assert loss == float(want[0])
    for name, value in zip(g_graph.param_names, want[1:]):
        assert np.array_equal(g_grads[name], value)


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_loss_graph_calls_do_not_sort_the_graph(monkeypatch):
    rng = np.random.default_rng(9)
    critic = Critic(2, (8, 8), rng=rng)
    graph = CriticLossGraph(critic, L2, 1.0, 1.0, 1e-5, 8)
    sorts = counting(monkeypatch, ad, "topo_order")
    for _ in range(3):
        graph.losses_and_grads(*rng.standard_normal((3, 8, 2)))
    assert sorts == []


@pytest.mark.parametrize("w1_every", [0, 1])
def test_training_iteration_runs_eleven_programs(monkeypatch, w1_every):
    runs = counting(monkeypatch, ad.Program, "__call__")
    evaluations = counting(monkeypatch, ad, "evaluate")
    sorts = counting(monkeypatch, ad, "topo_order")
    per_iteration = []
    for iterations in (2, 4):
        del runs[:], sorts[:]
        training.train(tiny_config(n_critic=5, total_iterations=iterations,
                                   w1_every=w1_every))
        per_iteration.append((len(runs), len(sorts)))
    # 5 critic steps, 5 generator samples, 1 generator step, and one
    # generator sample per monitored iteration; graphs are sorted once
    extra = 1 if w1_every else 0
    assert per_iteration[1][0] - per_iteration[0][0] == 2 * (11 + extra)
    assert per_iteration[1][1] == per_iteration[0][1]
    assert evaluations == []


def test_train_linear_lr_decay():
    _, _, metrics = training.train(tiny_config(total_iterations=4, w1_every=0))
    np.testing.assert_allclose(metrics.lr, 1e-3 * (1.0 - np.arange(4) / 4.0))


def test_train_divergence_raises():
    config = tiny_config(lr=1e100, total_iterations=50, w1_every=0)
    with np.errstate(all="ignore"), pytest.raises(training.DivergenceError) as info:
        training.train(config)
    assert info.value.iteration < 50
    assert len(info.value.metrics) == info.value.iteration


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_adam_equals_per_tensor_expression_bit_for_bit(beta1):
    rng = np.random.default_rng(11)
    shapes = {"w": (3, 4), "b": (4,), "s": (), "v": (1, 5)}
    start = {k: rng.standard_normal(s) for k, s in shapes.items()}
    params = {k: v.copy() for k, v in start.items()}
    opt = Adam(params, lr=1e-2, beta1=beta1, beta2=0.9)
    want = {k: v.copy() for k, v in start.items()}
    m = {k: np.zeros_like(v) for k, v in start.items()}
    v = {k: np.zeros_like(x) for k, x in start.items()}
    b1, b2, eps = beta1, 0.9, 1e-8
    for t in range(1, 51):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        lr = None if t % 3 == 0 else 1e-2 * (1.0 - t / 50.0)
        opt.step(grads, lr=lr)
        step_lr = 1e-2 if lr is None else lr
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            mhat = m[k] / (1.0 - b1 ** t)
            vhat = v[k] / (1.0 - b2 ** t)
            want[k] = want[k] - step_lr * mhat / (np.sqrt(vhat) + eps)
        for k in shapes:
            assert params[k].tobytes() == want[k].tobytes(), (t, k)


def test_adam_parameters_are_views_of_one_buffer():
    params = {"w": np.ones((2, 3)), "b": np.arange(3.0), "c": np.array(7.0)}
    opt = Adam(params, lr=0.1)
    offset = 0
    for k, shape in (("w", (2, 3)), ("b", (3,)), ("c", ())):
        assert params[k].shape == shape and params[k].base is not None
        assert np.shares_memory(params[k], opt.flat[offset:offset + params[k].size])
        offset += params[k].size
    assert offset == opt.flat.size and opt.flat.flags.c_contiguous
    np.testing.assert_array_equal(opt.flat, [1, 1, 1, 1, 1, 1, 0, 1, 2, 7])
