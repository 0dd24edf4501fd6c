"""Reverse-mode automatic differentiation with graph-valued gradients.

Graphs are built from immutable nodes over dense float64 tensors.  The key
design choice is that ``grad`` returns new graph *nodes*, not detached
numbers, so a gradient expression can itself be differentiated again
(double backpropagation).  A ``Program`` compiles a graph with fixed roots
once into a topologically ordered schedule; each call evaluates every
shared subexpression once, keeps results bit-identical across runs and
releases each intermediate value after its last use.

Supported broadcasting is deliberately narrow: equal shapes, scalar with
anything, and a (n,) row vector against an (m, n) matrix (bias addition).
The engine uses numpy alone.  Linear operators such as the Sobolev
multipliers of ``spaces`` are ``MatMul`` nodes against constant matrices.
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

    def __mul__(self, other):
        # spaces._norm scales numpy rows and graph nodes with the same ``*``
        return mul(self, wrap(other))

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
# Broadcasting helpers (narrow, explicit)
# ---------------------------------------------------------------------------

def _broadcast_shape(a: Node, b: Node, opname: str):
    sa, sb = a.shape, b.shape
    if sa == sb:
        return sa
    if sa == ():
        return sb
    if sb == ():
        return sa
    if len(sa) == 2 and sb == (sa[1],):
        return sa
    if len(sb) == 2 and sa == (sb[1],):
        return sb
    raise ShapeError(f"{opname}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: Node, shape) -> Node:
    """Reduce a cotangent back to an operand's (smaller) shape."""
    if g.shape == tuple(shape):
        return g
    if shape == ():
        return sum_all(g)
    if len(g.shape) == 2 and tuple(shape) == (g.shape[1],):
        return sum_cols(g)
    raise ShapeError(f"cannot reduce cotangent {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

class Add(Node):
    def __init__(self, a, b):
        super().__init__(_broadcast_shape(a, b, "add"), (a, b))

    def compute(self, a, b):
        return a + b

    def vjp(self, g, index):
        return _unbroadcast(g, self.parents[index].shape)


class Sub(Node):
    def __init__(self, a, b):
        super().__init__(_broadcast_shape(a, b, "sub"), (a, b))

    def compute(self, a, b):
        return a - b

    def vjp(self, g, index):
        if index == 0:
            return _unbroadcast(g, self.parents[0].shape)
        return _unbroadcast(neg(g), self.parents[1].shape)


class Mul(Node):
    def __init__(self, a, b):
        super().__init__(_broadcast_shape(a, b, "mul"), (a, b))

    def compute(self, a, b):
        return a * b

    def vjp(self, g, index):
        other = self.parents[1 - index]
        return _unbroadcast(mul(g, other), self.parents[index].shape)


class Neg(Node):
    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        return -a

    def vjp(self, g, index):
        return neg(g)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

class MatMul(Node):
    def __init__(self, a, b):
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
        super().__init__((a.shape[0], b.shape[1]), (a, b))

    def compute(self, a, b):
        return a @ b

    def vjp(self, g, index):
        a, b = self.parents
        if index == 0:
            return matmul(g, transpose(b))
        return matmul(transpose(a), g)


class Transpose(Node):
    def __init__(self, a):
        if len(a.shape) != 2:
            raise ShapeError(f"transpose: need 2-D, got {a.shape}")
        super().__init__((a.shape[1], a.shape[0]), (a,))

    def compute(self, a):
        return a.T

    def vjp(self, g, index):
        return transpose(g)


class Reshape(Node):
    def __init__(self, a, shape):
        shape = tuple(int(d) for d in shape)
        if int(np.prod(shape)) != int(np.prod(a.shape)):
            raise ShapeError(f"reshape: {a.shape} -> {shape} changes size")
        super().__init__(shape, (a,))

    def compute(self, a):
        return a.reshape(self.shape)

    def vjp(self, g, index):
        return reshape(g, self.parents[0].shape)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

class Tanh(Node):
    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        return np.tanh(a)

    def vjp(self, g, index):
        return mul(g, sub(1.0, mul(self, self)))


class Softplus(Node):
    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        return np.logaddexp(0.0, a)

    def vjp(self, g, index):
        return mul(g, sigmoid(self.parents[0]))


class Sigmoid(Node):
    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        ea = np.exp(a[~pos])
        out[~pos] = ea / (1.0 + ea)
        return out

    def vjp(self, g, index):
        return mul(g, mul(self, sub(1.0, self)))


class Relu(Node):
    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        return np.maximum(a, 0.0)

    def vjp(self, g, index):
        return mul(g, step(self.parents[0]))


class Step(Node):
    """Heaviside step with the convention step(0) = 0; derivative taken as 0,
    so its vjp is a symbolic zero and ``grad`` propagates nothing through it."""

    def __init__(self, a):
        super().__init__(a.shape, (a,))

    def compute(self, a):
        return (a > 0.0).astype(np.float64)

    def vjp(self, g, index):
        return None


class AbsPow(Node):
    """|x|^a elementwise.  For a <= 1 the value is kinked at 0.

    Negative exponents only arise from differentiating roots; there the
    value at 0 is defined as 0, the zero-subgradient convention, so a
    vanishing gradient row propagates zeros instead of infinities.
    """

    __slots__ = ("exponent",)

    def __init__(self, a, exponent):
        super().__init__(a.shape, (a,))
        self.exponent = float(exponent)

    def compute(self, a):
        if self.exponent == 0.0:
            return np.ones_like(a)
        if self.exponent < 0.0:
            mag = np.abs(a)
            with np.errstate(divide="ignore"):
                out = mag ** self.exponent
            return np.where(mag == 0.0, 0.0, out)
        return np.abs(a) ** self.exponent

    def vjp(self, g, index):
        x = self.parents[0]
        return mul(g, mul(self.exponent, signed_abs_pow(x, self.exponent - 1.0)))


class SignedAbsPow(Node):
    """sign(x) * |x|^a elementwise; closed under differentiation with AbsPow."""

    __slots__ = ("exponent",)

    def __init__(self, a, exponent):
        super().__init__(a.shape, (a,))
        self.exponent = float(exponent)

    def compute(self, a):
        if self.exponent == 0.0:
            return np.sign(a)
        if self.exponent < 0.0:
            mag = np.abs(a)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.sign(a) * mag ** self.exponent
            return np.where(mag == 0.0, 0.0, out)
        return np.sign(a) * np.abs(a) ** self.exponent

    def vjp(self, g, index):
        x = self.parents[0]
        return mul(g, mul(self.exponent, abs_pow(x, self.exponent - 1.0)))


# ---------------------------------------------------------------------------
# Reductions and broadcasts
# ---------------------------------------------------------------------------

class Sum(Node):
    """Sum of every entry (axis None), or over axis 0 or 1 of an (m, n)
    matrix, which yields (n,) or (m,)."""

    __slots__ = ("axis",)

    def __init__(self, a, axis=None):
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
        if self.axis is not None:
            a = np.expand_dims(a, self.axis)
        return np.broadcast_to(a, self.shape).copy()

    def vjp(self, g, index):
        return Sum(g, self.axis)


class SliceCols(Node):
    """Columns [start, stop) of an (m, n) matrix."""

    __slots__ = ("start", "stop")

    def __init__(self, a, start, stop):
        if len(a.shape) != 2 or not (0 <= start < stop <= a.shape[1]):
            raise ShapeError(f"slice_cols: bad slice [{start}:{stop}) of {a.shape}")
        super().__init__((a.shape[0], stop - start), (a,))
        self.start, self.stop = int(start), int(stop)

    def compute(self, a):
        return a[:, self.start:self.stop]

    def vjp(self, g, index):
        n = self.parents[0].shape[1]
        return pad_cols(g, self.start, n - self.stop)


class PadCols(Node):
    """Zero-pad columns on the left/right of an (m, n) matrix."""

    __slots__ = ("before", "after")

    def __init__(self, a, before, after):
        if len(a.shape) != 2:
            raise ShapeError(f"pad_cols: need 2-D, got {a.shape}")
        super().__init__((a.shape[0], a.shape[1] + before + after), (a,))
        self.before, self.after = int(before), int(after)

    def compute(self, a):
        return np.pad(a, ((0, 0), (self.before, self.after)))

    def vjp(self, g, index):
        return slice_cols(g, self.before, self.before + self.parents[0].shape[1])


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------

def add(a, b):
    return Add(wrap(a), wrap(b))


def sub(a, b):
    return Sub(wrap(a), wrap(b))


def mul(a, b):
    return Mul(wrap(a), wrap(b))


def neg(a):
    return Neg(wrap(a))


def matmul(a, b):
    return MatMul(wrap(a), wrap(b))


def transpose(a):
    return Transpose(wrap(a))


def reshape(a, shape):
    return Reshape(wrap(a), shape)


def tanh(a):
    return Tanh(wrap(a))


def softplus(a):
    return Softplus(wrap(a))


def sigmoid(a):
    return Sigmoid(wrap(a))


def relu(a):
    return Relu(wrap(a))


def step(a):
    return Step(wrap(a))


def abs_pow(a, exponent):
    return AbsPow(wrap(a), exponent)


def signed_abs_pow(a, exponent):
    return SignedAbsPow(wrap(a), exponent)


def sum_all(a):
    return Sum(wrap(a))


def sum_cols(a):
    """Column sums of an (m, n) matrix: the sum over axis 0, shape (n,)."""
    return Sum(wrap(a), 0)


def sum_rows(a):
    """Row sums of an (m, n) matrix: the sum over axis 1, shape (m,)."""
    return Sum(wrap(a), 1)


def slice_cols(a, start, stop):
    return SliceCols(wrap(a), start, stop)


def pad_cols(a, before, after):
    return PadCols(wrap(a), before, after)


def mean_all(a):
    a = wrap(a)
    n = int(np.prod(a.shape)) if a.shape else 1
    return mul(sum_all(a), Constant(1.0 / n))


def affine(x, w, b):
    """x @ w + b with the bias broadcast over rows."""
    return add(matmul(x, w), b)


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
    Calling it with ``env: {Input: array}`` runs the same ``compute`` calls
    in the same order as a fresh walk would, so results are bit-identical.
    It drops each intermediate value as soon as its last consumer has run,
    which bounds the memory live at once by the graph's width, not its
    size (the memory-sharing pass of Chen et al., arXiv:1604.06174, §3,
    without buffer reuse).  Roots are never dropped.
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
        self.steps = [(i, node, tuple(slot[p] for p in node.parents), tuple(dead[i]))
                      for i, node in enumerate(self.order)
                      if not isinstance(node, Input)]

    def __call__(self, env, cache=None):
        """The roots' values: one array, or a list in root order.

        With a ``cache`` dict, nothing is released and every node's value
        is written into it.
        """
        values = [None] * len(self.order)
        for i, node in self.inputs:
            values[i] = _bind(node, env)
        release = cache is None
        for i, node, parents, dead in self.steps:
            values[i] = node.compute(*[values[p] for p in parents])
            if release:
                for d in dead:
                    values[d] = None
        if cache is not None:
            cache.update(zip(self.order, values))
        if self.single:
            return values[self.roots[0]]
        return [values[i] for i in self.roots]


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
    the value of every node.
    """
    return Program(nodes)(env, cache)


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
            adjoint[p] = contrib if prev is None else add(prev, contrib)

    results = [adjoint.get(t, Constant(np.zeros(t.shape))) for t in targets]
    return results[0] if single else results
