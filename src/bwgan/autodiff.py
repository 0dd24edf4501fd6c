"""Reverse-mode automatic differentiation with graph-valued gradients.

Graphs are built by calling the node classes, such as ``Mul(x, 2.0)``,
whose constructors lift number and array operands to ``Constant`` nodes.
Each operation has one class: negation is ``Mul(x, -1.0)``, and
sign(x) |x|^a is ``AbsPow(x, a, signed=True)``.
Nodes are immutable and hold dense float64 tensors.  The key
design choice is that ``grad`` returns new graph *nodes*, not detached
numbers, so a gradient expression can itself be differentiated again
(double backpropagation).  A ``Program`` compiles a graph with fixed roots
once into a topologically ordered schedule and, on its first call, into
generated straight-line Python code; each call evaluates every shared
subexpression once, keeps results bit-identical across runs and releases
each intermediate value after its last use.

Supported broadcasting is deliberately narrow: equal shapes, scalar with
anything, and a (n,) row vector against an (m, n) matrix (bias addition).
The engine uses numpy alone.  Linear operators such as the Sobolev
multipliers of ``spaces`` are ``MatMul`` nodes against constant matrices,
and so is the column selection of a product space: a 0/1 matrix.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class GraphError(ValueError):
    """Raised for structural misuse (non-scalar output, missing input, ...)."""


class Node:
    """One vertex of a computation graph.

    Subclasses implement ``compute`` (forward value from parent values) and
    ``vjp`` (vector-Jacobian product *as a new graph node*).
    """

    _ids = itertools.count()

    __slots__ = ("shape", "parents", "id")

    def __init__(self, shape, parents=()):
        self.shape = tuple(int(d) for d in shape)
        self.parents = tuple(parents)
        self.id = next(Node._ids)

    def compute(self, *values):
        raise NotImplementedError

    def vjp(self, g: "Node", index: int) -> "Node | None":
        """Cotangent for parent ``index``; None when it is identically zero."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}#{self.id} shape={self.shape}>"


class Input(Node):
    """Placeholder leaf; its value is supplied at evaluation time."""

    __slots__ = ("name",)

    def __init__(self, shape, name=""):
        super().__init__(shape)
        self.name = name

    def __repr__(self):
        return f"<Input#{self.id} {self.name!r} shape={self.shape}>"


class Constant(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        value = np.asarray(value, dtype=np.float64)
        super().__init__(value.shape)
        self.value = value

    def compute(self):
        return self.value


def wrap(x) -> Node:
    """Lift a number or array to a Constant node; pass nodes through."""
    if isinstance(x, Node):
        return x
    return Constant(x)


# ---------------------------------------------------------------------------
# Operand shapes: elementwise, and broadcasting (narrow, explicit)
# ---------------------------------------------------------------------------

class _Elementwise(Node):
    """A node of one operand, with that operand's shape."""

    __slots__ = ()

    def __init__(self, a):
        a = wrap(a)
        super().__init__(a.shape, (a,))


class _Broadcasting(Node):
    """A node of two operands under the narrow broadcasting rule; its
    errors name the op by its class name in lower case."""

    __slots__ = ()

    def __init__(self, a, b):
        a, b = wrap(a), wrap(b)
        sa, sb = a.shape, b.shape
        if sa == sb or sb == () or (len(sa) == 2 and sb == (sa[1],)):
            shape = sa
        elif sa == () or (len(sb) == 2 and sa == (sb[1],)):
            shape = sb
        else:
            raise ShapeError(f"{type(self).__name__.lower()}: incompatible shapes "
                             f"{sa} and {sb}")
        super().__init__(shape, (a, b))


def _unbroadcast(g: Node, shape) -> Node:
    """Reduce a cotangent back to an operand's (smaller) shape."""
    if g.shape == tuple(shape):
        return g
    if shape == ():
        return Sum(g)
    if len(g.shape) == 2 and tuple(shape) == (g.shape[1],):
        return Sum(g, 0)
    raise ShapeError(f"cannot reduce cotangent {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

class Add(_Broadcasting):
    def compute(self, a, b):
        return a + b

    def vjp(self, g, index):
        return _unbroadcast(g, self.parents[index].shape)


class Sub(_Broadcasting):
    def compute(self, a, b):
        return a - b

    def vjp(self, g, index):
        if index == 0:
            return _unbroadcast(g, self.parents[0].shape)
        return _unbroadcast(Mul(g, -1.0), self.parents[1].shape)


class Mul(_Broadcasting):
    def compute(self, a, b):
        return a * b

    def vjp(self, g, index):
        other = self.parents[1 - index]
        return _unbroadcast(Mul(g, other), self.parents[index].shape)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

class MatMul(Node):
    def __init__(self, a, b):
        a, b = wrap(a), wrap(b)
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
        super().__init__((a.shape[0], b.shape[1]), (a, b))

    def compute(self, a, b):
        if a.shape[1] == 1:
            # an outer product: one product per entry either way, and the
            # broadcast multiply skips the BLAS call
            return a * b
        return a @ b

    def vjp(self, g, index):
        a, b = self.parents
        if index == 0:
            return MatMul(g, Transpose(b))
        return MatMul(Transpose(a), g)


class Transpose(Node):
    def __init__(self, a):
        a = wrap(a)
        if len(a.shape) != 2:
            raise ShapeError(f"transpose: need 2-D, got {a.shape}")
        super().__init__((a.shape[1], a.shape[0]), (a,))

    def compute(self, a):
        return a.T

    def vjp(self, g, index):
        return Transpose(g)


class Reshape(Node):
    def __init__(self, a, shape):
        a = wrap(a)
        shape = tuple(int(d) for d in shape)
        if int(np.prod(shape)) != int(np.prod(a.shape)):
            raise ShapeError(f"reshape: {a.shape} -> {shape} changes size")
        super().__init__(shape, (a,))

    def compute(self, a):
        return a.reshape(self.shape)

    def vjp(self, g, index):
        return Reshape(g, self.parents[0].shape)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

class Tanh(_Elementwise):
    def compute(self, a):
        return np.tanh(a)

    def vjp(self, g, index):
        return Mul(g, Sub(1.0, Mul(self, self)))


class Softplus(_Elementwise):
    def compute(self, a):
        return np.logaddexp(0.0, a)

    def vjp(self, g, index):
        return Mul(g, Sigmoid(self.parents[0]))


class Sigmoid(_Elementwise):
    def compute(self, a):
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        ea = np.exp(a[~pos])
        out[~pos] = ea / (1.0 + ea)
        return out

    def vjp(self, g, index):
        return Mul(g, Mul(self, Sub(1.0, self)))


class Relu(_Elementwise):
    def compute(self, a):
        return np.maximum(a, 0.0)

    def vjp(self, g, index):
        return Mul(g, Step(self.parents[0]))


class Step(_Elementwise):
    """Heaviside step with the convention step(0) = 0; derivative taken as 0,
    so its vjp is a symbolic zero and ``grad`` propagates nothing through it."""

    def compute(self, a):
        return (a > 0.0).astype(np.float64)

    def vjp(self, g, index):
        return None


def _abs_pow_array(a, exponent, signed):
    """|a|^exponent elementwise, times sign(a) if ``signed``; the power 0 is
    1 everywhere.  Negative exponents only arise from differentiating roots;
    there the value at 0 is 0, the zero-subgradient convention, so a
    vanishing gradient row propagates zeros instead of infinities."""
    mag = np.abs(a)
    if exponent >= 0.0:
        out = mag ** exponent
    else:
        with np.errstate(divide="ignore"):
            out = np.where(mag == 0.0, 0.0, mag ** exponent)
    return np.sign(a) * out if signed else out


class AbsPow(_Elementwise):
    """|x|^a elementwise, or sign(x) |x|^a if ``signed``, kinked at 0 for
    a <= 1; the derivative of each form is the other form at a - 1."""

    __slots__ = ("exponent", "signed")

    def __init__(self, a, exponent, signed=False):
        super().__init__(a)
        self.exponent = float(exponent)
        self.signed = signed

    def compute(self, a):
        return _abs_pow_array(a, self.exponent, self.signed)

    def vjp(self, g, index):
        x = self.parents[0]
        return Mul(g, Mul(self.exponent, AbsPow(x, self.exponent - 1.0, not self.signed)))


# ---------------------------------------------------------------------------
# Reductions and broadcasts
# ---------------------------------------------------------------------------

class Sum(Node):
    """Sum of every entry (axis None), or over axis 0 or 1 of an (m, n)
    matrix, which yields (n,) or (m,)."""

    __slots__ = ("axis",)

    def __init__(self, a, axis=None):
        a = wrap(a)
        if axis is None:
            shape = ()
        elif len(a.shape) != 2:
            raise ShapeError(f"sum over axis {axis}: need 2-D, got {a.shape}")
        else:
            shape = (a.shape[1 - axis],)
        super().__init__(shape, (a,))
        self.axis = axis

    def compute(self, a):
        return np.asarray(np.sum(a, axis=self.axis))

    def vjp(self, g, index):
        return Broadcast(g, self.parents[0].shape, self.axis)


class Broadcast(Node):
    """Copy a scalar to every entry of ``shape`` (axis None), or a vector
    along axis 0 or 1 of an (m, n) matrix; the adjoint of ``Sum``."""

    __slots__ = ("axis",)

    def __init__(self, a, shape, axis=None):
        shape = tuple(int(d) for d in shape)
        if a.shape != (() if axis is None else shape[:axis] + shape[axis + 1:]):
            raise ShapeError(f"broadcast over axis {axis}: cannot copy {a.shape} "
                             f"to {shape}")
        super().__init__(shape, (a,))
        self.axis = axis

    def compute(self, a):
        out = np.empty(self.shape)
        out[...] = a if self.axis is None else np.expand_dims(a, self.axis)
        return out

    def vjp(self, g, index):
        return Sum(g, self.axis)


# ---------------------------------------------------------------------------
# Composite builders: more than one node each
# ---------------------------------------------------------------------------

def mean_all(a):
    a = wrap(a)
    n = int(np.prod(a.shape)) if a.shape else 1
    return Mul(Sum(a), Constant(1.0 / n))


def affine(x, w, b):
    """x @ w + b with the bias broadcast over rows."""
    return Add(MatMul(x, w), b)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def topo_order(roots):
    """Deterministic topological order of all ancestors of ``roots``."""
    if isinstance(roots, Node):
        roots = [roots]
    order = []
    seen = set()
    for root in roots:
        if root in seen:
            continue
        stack = [(root, iter(root.parents))]
        seen.add(root)
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if p not in seen:
                    seen.add(p)
                    stack.append((p, iter(p.parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    return order


class Program:
    """A graph with fixed roots, compiled once for repeated evaluation.

    Building it sorts the graph and numbers its nodes as slots.  Each step
    records its parents' slots and the slots whose last consumer it is.
    On its first call it generates and ``exec``s one straight-line Python
    function from that schedule, a line ``v12 = nodes[12].compute(v3, v7)``
    per step (the code generation of torch.fx, Reed et al.,
    arXiv:2112.08429).  Calling it with ``env: {Input: array}`` runs the
    same ``compute`` calls in the same order as a fresh walk would, so
    results are bit-identical.  ``compute`` is looked up on the node at
    each call, so a method rebound on a node class takes effect.  The
    line after a value's last consumer sets it to None, which bounds the
    memory live at once by the graph's width, not its size (the
    memory-sharing pass of Chen et al., arXiv:1604.06174, §3, without
    buffer reuse).  Roots are never dropped, so a Program with every node
    as a root, as ``evaluate`` builds to fill a cache, keeps every value.
    """

    def __init__(self, nodes):
        self.single = isinstance(nodes, Node)
        roots = [nodes] if self.single else list(nodes)
        self.order = topo_order(roots)
        slot = {node: i for i, node in enumerate(self.order)}
        self.roots = [slot[r] for r in roots]
        last_use = {}
        for i, node in enumerate(self.order):
            for p in node.parents:
                last_use[slot[p]] = i
        keep = set(self.roots)
        dead = [[] for _ in self.order]
        for j, i in last_use.items():
            if j not in keep:
                dead[i].append(j)
        self.inputs = [(i, node) for i, node in enumerate(self.order)
                       if isinstance(node, Input)]
        self.steps = [(i, tuple(slot[p] for p in node.parents), tuple(dead[i]))
                      for i, node in enumerate(self.order)
                      if not isinstance(node, Input)]
        self._run = None

    def _generate(self):
        """The schedule as a function of ``nodes`` and the Input values that
        drops dead values and returns the roots' values."""
        args = "".join(f", v{i}" for i, _ in self.inputs)
        lines = [f"def program(nodes{args}):"]
        for i, parents, dead in self.steps:
            lines.append(f"    v{i} = nodes[{i}].compute("
                         + ", ".join(f"v{p}" for p in parents) + ")")
            if dead:
                lines.append("    " + " = ".join(f"v{d}" for d in dead) + " = None")
        if self.single:
            result = f"v{self.roots[0]}"
        else:
            result = "[" + ", ".join(f"v{i}" for i in self.roots) + "]"
        lines.append(f"    return {result}")
        namespace = {}
        exec(compile("\n".join(lines), f"<Program of {len(self.order)} nodes>",
                     "exec"), namespace)
        return namespace["program"]

    def __call__(self, env):
        """The roots' values: one array, or a list in root order."""
        if self._run is None:
            self._run = self._generate()
        return self._run(self.order, *(_bind(node, env) for _, node in self.inputs))


def _bind(node: Input, env) -> np.ndarray:
    if node not in env:
        raise GraphError(f"no value bound for {node!r}")
    val = np.asarray(env[node], dtype=np.float64)
    if val.shape != node.shape:
        raise ShapeError(f"value of shape {val.shape} bound to {node!r}")
    return val


def evaluate(nodes, env, cache=None):
    """Evaluate one node or a list of nodes under ``env: {Input: array}``.

    A one-off ``Program``; code that evaluates the same graph repeatedly
    builds its Program once instead.  A ``cache`` dict, if given, receives
    the value of every node: the Program then has every node as a root, so
    it releases nothing.
    """
    if cache is None:
        return Program(nodes)(env)
    program = Program(topo_order(nodes))
    cache.update(zip(program.order, program(env)))
    return cache[nodes] if isinstance(nodes, Node) else [cache[n] for n in nodes]


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def grad(output: Node, wrt):
    """Build gradient nodes of a scalar ``output`` with respect to ``wrt``.

    ``wrt`` may be a node or a sequence of nodes; the result mirrors that
    structure.  The returned nodes are ordinary graph nodes and can be fed
    back into ``grad`` for higher derivatives.

    A vjp of None is a symbolic zero: it adds nothing to the adjoint of its
    parent, so a node whose cotangent is zero everywhere gets no gradient
    nodes at all.  A target that receives no adjoint gets a zeros Constant.
    """
    if output.shape != ():
        raise GraphError(f"grad: output must be scalar, got {output!r}")
    single = isinstance(wrt, Node)
    targets = [wrt] if single else list(wrt)

    order = topo_order(output)
    needs = set(targets)
    for node in order:
        if any(p in needs for p in node.parents):
            needs.add(node)

    adjoint = {output: Constant(np.ones(()))}
    for node in reversed(order):
        g = adjoint.get(node)
        if g is None or isinstance(node, (Input, Constant)):
            continue
        for i, p in enumerate(node.parents):
            if p not in needs:
                continue
            contrib = node.vjp(g, i)
            if contrib is None:
                continue
            prev = adjoint.get(p)
            adjoint[p] = contrib if prev is None else Add(prev, contrib)

    results = [adjoint.get(t, Constant(np.zeros(t.shape))) for t in targets]
    return results[0] if single else results
