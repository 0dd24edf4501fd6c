import numpy as np
import pytest

from bwgan import autodiff as ad
from bwgan.nets import MLP, Critic, GraphCritic


def independent(critic, X):
    """Value and input gradient from a fresh graph on the critic's own
    parameter Inputs, compiled for this call only."""
    x = ad.Input(X.shape, name="x")
    scores = critic.build_scores(x)
    env = critic.mlp.env()
    env[x] = X
    return ad.evaluate([scores, ad.grad(ad.Sum(scores), x)], env)


def test_value_batch_builds_no_gradient_graph(monkeypatch):
    calls = []
    real_grad = ad.grad

    def counting_grad(*args, **kwargs):
        calls.append(args)
        return real_grad(*args, **kwargs)

    monkeypatch.setattr(ad, "grad", counting_grad)
    rng = np.random.default_rng(0)
    critic = Critic(4, (6,), "tanh", rng=rng)
    critic.value_batch(rng.standard_normal((3, 4)))
    critic.value_batch(rng.standard_normal((1, 4)))
    assert calls == []
    critic.input_gradient_batch(rng.standard_normal((3, 4)))
    assert len(calls) == 1


def test_cache_grows_once_per_kind_and_batch_size():
    # programs are shared per architecture, so this one is used by no other
    # test: the growth then does not depend on which tests ran before
    rng = np.random.default_rng(1)
    critic = Critic(5, (7, 3), "softplus", rng=rng)
    steps = [("value_batch", 4, 1), ("value_batch", 4, 0),
             ("input_gradient_batch", 4, 1), ("input_gradient_batch", 4, 0),
             ("value_batch", 2, 1), ("input_gradient_batch", 7, 1),
             ("value_batch", 7, 1), ("value_batch", 2, 0)]
    for method, batch, growth in steps:
        before = len(critic._cache)
        getattr(critic, method)(rng.standard_normal((batch, 5)))
        assert len(critic._cache) - before == growth, (method, batch)


def test_same_architecture_critics_interleaved_match_independent_evaluation():
    rng = np.random.default_rng(2)
    a = Critic(4, (9,), "tanh", rng=np.random.default_rng(20))
    b = Critic(4, (9,), "tanh", rng=np.random.default_rng(21))
    assert a._cache is b._cache
    for critic, method in [(a, "value_batch"), (b, "input_gradient_batch"),
                           (b, "value_batch"), (a, "input_gradient_batch"),
                           (a, "value_batch"), (b, "value_batch")] * 2:
        X = rng.standard_normal((5, 4))
        value, gradient = independent(critic, X)
        want = value if method == "value_batch" else gradient
        assert np.array_equal(getattr(critic, method)(X), want), method
    X = rng.standard_normal((5, 4))
    assert not np.array_equal(a.value_batch(X), b.value_batch(X))


def count_calls(monkeypatch, name, calls):
    real = getattr(ad, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(ad, name, counting)


def test_second_critic_of_an_architecture_compiles_nothing(monkeypatch):
    calls = []
    for name in ("Program", "grad"):
        count_calls(monkeypatch, name, calls)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3))
    first = Critic(3, (5, 4), "tanh", rng=np.random.default_rng(30))
    first.value_batch(X)
    first.input_gradient_batch(X)
    assert sorted(calls) == ["Program", "Program", "grad"]
    calls.clear()
    second = Critic(3, (5, 4), "tanh", rng=np.random.default_rng(31))
    value = second.value_batch(X)
    gradient = second.input_gradient_batch(X)
    assert calls == []
    want_value, want_gradient = independent(second, X)
    assert np.array_equal(value, want_value)
    assert np.array_equal(gradient, want_gradient)


def test_custom_graph_critics_keep_their_own_programs():
    def linear(a):
        return GraphCritic(3, lambda x: ad.Reshape(
            ad.MatMul(x, ad.Constant(np.asarray(a, dtype=np.float64)[:, None])),
            (x.shape[0],)))

    first, second = linear([1.0, 2.0, 3.0]), linear([-1.0, 0.0, 0.5])
    X = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, -2.0]])
    assert np.array_equal(first.value_batch(X), [6.0, -2.0])
    assert np.array_equal(second.value_batch(X), [-0.5, -1.0])
    assert np.array_equal(second.input_gradient_batch(X), [[-1.0, 0.0, 0.5]] * 2)
    assert first._cache is not second._cache
    assert len(first._cache) == 1 and len(second._cache) == 2


def test_rebinding_after_set_params_uses_new_values():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 2))
    critic = Critic(2, (5, 5), "softplus", rng=np.random.default_rng(40))
    old = critic.value_batch(X), critic.input_gradient_batch(X)
    donor = Critic(2, (5, 5), "softplus", rng=np.random.default_rng(41))
    critic.mlp.set_params({k: v.copy() for k, v in donor.mlp.params.items()})
    value, gradient = critic.value_batch(X), critic.input_gradient_batch(X)
    want_value, want_gradient = independent(critic, X)
    assert np.array_equal(value, want_value)
    assert np.array_equal(gradient, want_gradient)
    assert not np.array_equal(value, old[0])
    assert not np.array_equal(gradient, old[1])


def test_unknown_activation_is_rejected():
    with pytest.raises(ValueError, match=r"^unknown activation 'elu'$"):
        MLP(2, (3,), 1, activation="elu")


@pytest.mark.parametrize("values, error, message", [
    ({"critic.w9": np.zeros((2, 5))}, KeyError, r"^'unknown parameter critic\.w9'$"),
    ({"critic.w0": np.zeros((5, 2))}, ValueError, r"^shape mismatch for parameter critic\.w0$"),
], ids=["unknown-key", "wrong-shape"])
def test_set_params_rejects_unknown_keys_and_wrong_shapes(values, error, message):
    critic = Critic(2, (5,), "tanh", rng=np.random.default_rng(42))
    before = {k: v.copy() for k, v in critic.mlp.params.items()}
    with pytest.raises(error, match=message):
        critic.mlp.set_params(values)
    assert all(np.array_equal(critic.mlp.params[k], v) for k, v in before.items())


def test_graph_critic_rejects_scores_that_are_not_one_per_row():
    critic = GraphCritic(3, lambda x: x)
    with pytest.raises(ad.ShapeError,
                       match=r"^critic scores must have shape \(2,\), got \(2, 3\)$"):
        critic.value_batch(np.zeros((2, 3)))


def test_adam_keeps_updating_the_network_after_set_params():
    from bwgan.training import Adam
    X = np.random.default_rng(5).standard_normal((4, 3))
    critic = Critic(3, (6,), "tanh", rng=np.random.default_rng(50))
    opt = Adam(critic.mlp.params, lr=0.5)
    donor = Critic(3, (6,), "tanh", rng=np.random.default_rng(51))
    critic.mlp.set_params({k: v.copy() for k, v in donor.mlp.params.items()})
    assert np.array_equal(critic.value_batch(X), donor.value_batch(X))
    opt.step({k: np.ones_like(v) for k, v in critic.mlp.params.items()})
    # a first step with beta1 = 0 moves each entry by lr g / (|g| + eps)
    for k, v in donor.mlp.params.items():
        assert np.shares_memory(critic.mlp.params[k], opt.flat)
        np.testing.assert_allclose(critic.mlp.params[k], v - 0.5, rtol=0, atol=1e-7)
    assert np.array_equal(critic.value_batch(X), independent(critic, X)[0])
    assert not np.array_equal(critic.value_batch(X), donor.value_batch(X))


def test_dropped_critic_is_freed_by_reference_counting():
    import gc
    import weakref
    X = np.random.default_rng(6).standard_normal((3, 4))
    gc.disable()
    try:
        critic = Critic(4, (5,), "tanh", rng=np.random.default_rng(60))
        critic.value_batch(X)
        critic.input_gradient_batch(X)
        ref = weakref.ref(critic)
        del critic
        assert ref() is None
    finally:
        gc.enable()


def test_networks_share_inputs_only_within_one_name_and_architecture():
    from bwgan.nets import Generator
    a = Critic(4, (6, 6), "tanh", rng=np.random.default_rng(70))
    b = Critic(4, (6, 6), "tanh", rng=np.random.default_rng(71))
    assert a.mlp.nodes is b.mlp.nodes and a._cache is b._cache
    assert not np.array_equal(a.mlp.params["critic.w0"], b.mlp.params["critic.w0"])
    generator = Generator(4, 4, (6, 6), "tanh", rng=np.random.default_rng(72))
    assert not set(generator.mlp.nodes.values()) & set(a.mlp.nodes.values())
    assert generator._cache is not a._cache
    for other in (Critic(4, (6, 7), "tanh"), Critic(4, (6, 6), "relu")):
        assert not set(other.mlp.nodes.values()) & set(a.mlp.nodes.values())
        assert other._cache is not a._cache
