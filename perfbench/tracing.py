"""Traced mode: spans around the calls into each bwgan module.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds each traced
public function in every bwgan module that holds it (callers look names up
in their own module: ``transport`` and ``lipschitz`` import ``norm_batch``
by name), replaces traced methods on their classes and the samplers in
``datasets.SAMPLERS``, and ``uninstall`` puts every original back.

A span records its name, start, end and parent; a layer's self time is
its span minus the time covered by its child spans.  The ``compute`` of
each autodiff node type is too fine-grained to keep as spans (a training
iteration runs thousands), so it is aggregated per node type and counted
as child time of the span that evaluated it.  Spans are kept in memory
and written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from bwgan import autodiff as ad
from bwgan import datasets, lipschitz, nets, spaces, training, transport

LAYERS = ("training", "datasets", "nets", "autodiff", "spaces", "transport",
          "lipschitz")

# Spans reported as ``<name>_ms`` (inclusive ms per operation of the
# workload) and ``<name>_calls`` (calls per operation).  Nested calls of a
# span by itself, as in the recursive norms of weighted and product spaces,
# count once, at the outermost call.
SPANS = (
    "training.critic_step", "training.generator_step", "training.adam",
    "training.interpolate", "training.w1_monitor", "training.heuristics",
    "training.graph_build",
    "datasets.sample",
    "nets.generator_sample", "nets.critic_eval",
    "autodiff.evaluate", "autodiff.topo_order", "autodiff.grad_build",
    "spaces.norm_batch", "spaces.dual_norm_batch",
    "transport.cost_matrix", "transport.linprog", "transport.uniform_solve",
    "transport.weighted_solve",
    "lipschitz.estimate", "lipschitz.segment_sup", "lipschitz.quotient",
)

# Node types whose ``compute`` runs on these workloads, reported as
# ``autodiff.op.<Type>_ms`` and ``autodiff.op.<Type>_calls``.
OP_TYPES = (
    "Constant", "Add", "Sub", "Mul", "Neg", "MatMul", "Transpose", "Reshape",
    "Tanh", "Relu", "Step", "AbsPow", "SignedAbsPow", "SumAll", "SumCols",
    "SumRows", "Fill", "ExpandCols", "FourierMultiplier",
)

# Work counters, per operation: rows drawn by the samplers, rows normed by
# ``norm_batch``/``dual_norm_batch`` (outermost calls), critic graph-cache
# misses in ``GraphCritic``.
COUNTS = ("datasets.rows", "spaces.rows", "nets.graph_builds")

# Counters of the loss graphs a training run builds; they depend on shapes
# and graph structure only, so they repeat exactly.
GRAPH_COUNTERS = ("autodiff.critic_graph_nodes", "autodiff.critic_matmuls",
                  "autodiff.critic_gflop", "autodiff.critic_zero_nodes",
                  "autodiff.critic_zero_share", "autodiff.generator_graph_nodes")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}_ms"] = "ms/op"
        units[f"{name}_calls"] = "calls/op"
    for name in OP_TYPES:
        units[f"autodiff.op.{name}_ms"] = "ms/op"
        units[f"autodiff.op.{name}_calls"] = "calls/op"
    units.update({"datasets.rows": "rows/op", "spaces.rows": "rows/op",
                  "nets.graph_builds": "builds/op"})
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/op"
    units.update({"autodiff.critic_graph_nodes": "count",
                  "autodiff.critic_matmuls": "count",
                  "autodiff.critic_gflop": "GFLOP",
                  "autodiff.critic_zero_nodes": "count",
                  "autodiff.critic_zero_share": "%",
                  "autodiff.generator_graph_nodes": "count",
                  "trace.overhead_ratio": "ratio"})
    return units


def _is_uniform(mu, nu):
    return len(mu) == len(nu) and np.all(mu.weights == mu.weights[0]) \
        and np.all(nu.weights == nu.weights[0])


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index]
        self._stack = []      # [span index, child seconds]
        self._depth = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.op_time = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.critic_graph = None
        self.critic_step = None
        self.generator_graph = None
        self.enabled = True
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the workloads' own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- spans -------------------------------------------------------------
    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._depth[name] += 1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), 0.0, parent])

    def exit(self):
        end = perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        duration = end - span[1]
        self.self_time[name.split(".", 1)[0]] += duration - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.inclusive[name] += duration
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def outermost(self, name):
        return self._depth[name] == 0

    def _span(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the
        arguments; ``before``/``after`` update counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            if before is not None:
                before(*args)
            tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    # -- installation ------------------------------------------------------
    def _rebind(self, fn, wrapper):
        """Replace ``fn`` wherever a bwgan module or the sampler table
        holds it."""
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "bwgan" and not modname.startswith("bwgan."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        for key, value in list(datasets.SAMPLERS.items()):
            if value is fn:
                self._undo.append((datasets.SAMPLERS.__setitem__, key, value))
                datasets.SAMPLERS[key] = wrapper
                found = True
        if not found:
            raise RuntimeError(f"{fn!r} is not bound in any bwgan module")

    def _method(self, cls, attr, wrapper_factory):
        original = cls.__dict__[attr]
        self._undo.append((setattr, cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def install(self):
        span, method = self._span, self._method
        # training
        self._rebind(training.resolve_parameters,
                     span("training.heuristics", training.resolve_parameters))
        self._rebind(training.interpolate,
                     span("training.interpolate", training.interpolate))
        self._rebind(training.minibatch_w1,
                     span("training.w1_monitor", training.minibatch_w1))
        self._rebind(training.train, span("training.train", training.train))
        method(training.CriticLossGraph, "__init__",
               lambda f: span("training.graph_build", f, after=self._keep_critic_graph))
        method(training.GeneratorLossGraph, "__init__",
               lambda f: span("training.graph_build", f,
                              after=self._keep_generator_graph))
        method(training.CriticLossGraph, "losses_and_grads",
               lambda f: span("training.critic_step", f, before=self._keep_critic_step))
        method(training.GeneratorLossGraph, "loss_and_grads",
               lambda f: span("training.generator_step", f))
        method(training.Adam, "step", lambda f: span("training.adam", f))
        # datasets
        for sampler in set(datasets.SAMPLERS.values()):
            self._rebind(sampler, span("datasets.sample", sampler,
                                       before=self._count_sampled))
        # nets
        method(nets.Generator, "sample", lambda f: span("nets.generator_sample", f))
        for attr in ("value_batch", "input_gradient_batch"):
            method(nets.GraphCritic, attr,
                   lambda f: self._critic_eval(span("nets.critic_eval", f)))
        # autodiff
        self._rebind(ad.evaluate, span("autodiff.evaluate", ad.evaluate))
        self._rebind(ad.topo_order, span("autodiff.topo_order", ad.topo_order))
        self._rebind(ad.grad, span("autodiff.grad_build", ad.grad))
        for cls in vars(ad).values():
            if isinstance(cls, type) and issubclass(cls, ad.Node) \
                    and "compute" in cls.__dict__:
                method(cls, "compute", self._op)
        # spaces
        for fn, label in ((spaces.norm_batch, "spaces.norm_batch"),
                          (spaces.dual_norm_batch, "spaces.dual_norm_batch")):
            self._rebind(fn, span(label, fn, before=self._row_counter(label)))
        # transport
        self._rebind(transport.cost_matrix,
                     span("transport.cost_matrix", transport.cost_matrix))
        self._rebind(transport.linprog, span("transport.linprog", transport.linprog))
        self._rebind(transport.wasserstein_p_exact, span(
            lambda mu, nu, *a, **k: "transport.uniform_solve"
            if _is_uniform(mu, nu) else "transport.weighted_solve",
            transport.wasserstein_p_exact))
        # lipschitz
        for fn, label in ((lipschitz.estimate_lipschitz, "lipschitz.estimate"),
                          (lipschitz.segment_grad_sup, "lipschitz.segment_sup"),
                          (lipschitz.difference_quotient, "lipschitz.quotient")):
            self._rebind(fn, span(label, fn))

    def uninstall(self):
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)

    # -- counters ----------------------------------------------------------
    def _count_sampled(self, rng, n, *rest):
        if self.outermost("datasets.sample"):
            self.counts["datasets.rows"] += n

    def _row_counter(self, label):
        def count(space, X, *rest):
            if self.outermost(label):
                self.counts["spaces.rows"] += len(X)
        return count

    def _critic_eval(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(critic, X):
            if not tracer.enabled:
                return wrapped(critic, X)
            before = len(critic._cache)
            result = wrapped(critic, X)
            tracer.counts["nets.graph_builds"] += len(critic._cache) - before
            return result
        return wrapper

    def _op(self, compute):
        tracer = self
        name = compute.__qualname__.split(".")[0]

        @functools.wraps(compute)
        def wrapper(node, *values):
            if not tracer.enabled:
                return compute(node, *values)
            t0 = perf_counter()
            result = compute(node, *values)
            duration = perf_counter() - t0
            tracer.op_time[name] += duration
            tracer.op_calls[name] += 1
            tracer.self_time["autodiff"] += duration
            if tracer._stack:
                tracer._stack[-1][1] += duration
            return result
        return wrapper

    def _keep_critic_graph(self, result, graph, *args):
        if self.critic_graph is None:
            self.critic_graph = graph

    def _keep_generator_graph(self, result, graph, *args):
        if self.generator_graph is None:
            self.generator_graph = graph

    def _keep_critic_step(self, graph, real, fake, xhat):
        if self.critic_step is None and graph is self.critic_graph:
            params = {k: v.copy() for k, v in graph.critic.mlp.params.items()}
            self.critic_step = (params, real.copy(), fake.copy(), xhat.copy())

    # -- results -----------------------------------------------------------
    def graph_counters(self) -> dict:
        """Counters of the first critic and generator loss graphs built;
        zeros on workloads that build none.  Call after ``uninstall``."""
        out = dict.fromkeys(GRAPH_COUNTERS, 0)
        c = self.critic_graph
        if c is not None:
            roots = [c.loss, c.penalty, c.dn_mean, c.drift, *c.grad_nodes]
            order = ad.topo_order(roots)
            matmuls = [n for n in order if isinstance(n, ad.MatMul)]
            out["autodiff.critic_graph_nodes"] = len(order)
            out["autodiff.critic_matmuls"] = len(matmuls)
            out["autodiff.critic_gflop"] = sum(
                2 * n.parents[0].shape[0] * n.parents[0].shape[1] * n.shape[1]
                for n in matmuls) / 1e9
            if self.critic_step is not None:
                params, real, fake, xhat = self.critic_step
                env = {c.critic.mlp.nodes[k]: v for k, v in params.items()}
                env.update({c.x_real: real, c.x_fake: fake, c.x_hat: xhat})
                values = {}
                ad.evaluate(roots, env, values)
                zero = sum(1 for n in order
                           if not isinstance(n, ad.Input) and not np.any(values[n]))
                out["autodiff.critic_zero_nodes"] = zero
                out["autodiff.critic_zero_share"] = 100.0 * zero / len(order)
        g = self.generator_graph
        if g is not None:
            out["autodiff.generator_graph_nodes"] = len(ad.topo_order([g.loss, *g.grad_nodes]))
        return out

    def metrics(self, ops: int) -> dict:
        """Per-layer values, times and call counts per operation."""
        per_op = 1.0 / ops
        values = {}
        for name in SPANS:
            values[f"{name}_ms"] = 1e3 * self.inclusive[name] * per_op
            values[f"{name}_calls"] = self.calls[name] * per_op
        for name in OP_TYPES:
            values[f"autodiff.op.{name}_ms"] = 1e3 * self.op_time[name] * per_op
            values[f"autodiff.op.{name}_calls"] = self.op_calls[name] * per_op
        for name in COUNTS:
            values[name] = self.counts[name] * per_op
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = 1e3 * self.self_time[layer] * per_op
        values.update(self.graph_counters())
        return values

    def write(self, path):
        """Spans as JSON: a name table and [name, start, end, parent] rows,
        times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                for n, a, b, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                       "spans": rows, "op_seconds": dict(self.op_time),
                       "op_calls": dict(self.op_calls)}, fh)
