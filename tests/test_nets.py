import numpy as np

from bwgan import autodiff as ad
from bwgan.nets import Critic


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
    rng = np.random.default_rng(1)
    critic = Critic(4, (6,), "tanh", rng=rng)
    steps = [("value_batch", 4, 1), ("value_batch", 4, 0),
             ("input_gradient_batch", 4, 1), ("input_gradient_batch", 4, 0),
             ("value_batch", 2, 1), ("input_gradient_batch", 7, 1),
             ("value_batch", 7, 1), ("value_batch", 2, 0)]
    for method, batch, growth in steps:
        before = len(critic._cache)
        getattr(critic, method)(rng.standard_normal((batch, 4)))
        assert len(critic._cache) - before == growth, (method, batch)
