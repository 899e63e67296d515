"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

A Tape records an acyclic graph of matrix operations; ``forward`` evaluates
every node in insertion order and returns the terminal scalar, ``backward``
accumulates gradients for all input (parameter) nodes. The operation set is
fixed to what the encoder, projector and loss graphs need:

    input, constant, matmul, add, sub, mul_elem, div_elem, scalar_mul,
    exp, log, sum, mean, row_l2_normalize, tanh, relu, transpose,
    masked_sum, clamp_min, pick, vstack

``pick(a, cols)`` is the n x 1 column of ``a[i, cols[i]]``; ``vstack(a, b)``
stacks two row blocks. Masks (for masked_sum) and column indices (for pick)
are plain constant arrays, never nodes, so no gradient can flow into them.
Elementwise binaries support the usual numpy broadcasting between 2-D
shapes; gradients are reduced back over broadcast axes. Values and gradients
are deterministic functions of the graph and its inputs.

Gradients are computed only for parents that require one: constants, masks
and every node built from constants alone get none. A gradient array is
never written in place once made, so one array may be handed to several
parents: the first contribution to a node is kept as it is and later ones
are added out of place.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

class Node:
    __slots__ = ("idx", "op", "parents", "aux", "value", "grad",
                 "requires_grad", "name", "_norms")

    def __init__(self, idx, op, parents=(), aux=None, value=None,
                 requires_grad=False, name=""):
        self.idx = idx
        self.op = op
        self.parents = parents
        self.aux = aux
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._norms = None

    def __repr__(self):
        shape = None if self.value is None else self.value.shape
        return f"Node({self.idx}, {self.op}, {self.name or ''}, shape={shape})"


def _as_value(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"tape values must be 2-D, got shape {a.shape}")
    return a


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    if grad.shape == tuple(shape):
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


class Tape:
    """Single-owner operation recorder; build, forward, then backward."""

    def __init__(self):
        self.nodes: list[Node] = []

    # -- leaf nodes -------------------------------------------------------

    def input(self, value, name="") -> Node:
        return self._leaf("input", value, True, name)

    def constant(self, value, name="") -> Node:
        return self._leaf("constant", value, False, name)

    def _leaf(self, op, value, requires_grad, name) -> Node:
        node = Node(len(self.nodes), op, value=_as_value(value),
                    requires_grad=requires_grad, name=name)
        self.nodes.append(node)
        return node

    # -- operations -------------------------------------------------------

    def _record(self, op, parents, aux=None, name="") -> Node:
        req = any(p.requires_grad for p in parents)
        node = Node(len(self.nodes), op, parents=tuple(parents), aux=aux,
                    requires_grad=req, name=name)
        self.nodes.append(node)
        return node

    def matmul(self, a: Node, b: Node, name="") -> Node:
        return self._record("matmul", (a, b), name=name)

    def add(self, a: Node, b: Node, name="") -> Node:
        return self._record("add", (a, b), name=name)

    def sub(self, a: Node, b: Node, name="") -> Node:
        return self._record("sub", (a, b), name=name)

    def mul_elem(self, a: Node, b: Node, name="") -> Node:
        return self._record("mul_elem", (a, b), name=name)

    def div_elem(self, a: Node, b: Node, name="") -> Node:
        return self._record("div_elem", (a, b), name=name)

    def scalar_mul(self, a: Node, c: float, name="") -> Node:
        return self._record("scalar_mul", (a,), aux=float(c), name=name)

    def exp(self, a: Node, name="") -> Node:
        return self._record("exp", (a,), name=name)

    def log(self, a: Node, name="") -> Node:
        return self._record("log", (a,), name=name)

    def sum(self, a: Node, name="") -> Node:
        return self._record("sum", (a,), name=name)

    def mean(self, a: Node, name="") -> Node:
        return self._record("mean", (a,), name=name)

    def row_l2_normalize(self, a: Node, name="") -> Node:
        return self._record("row_l2_normalize", (a,), name=name)

    def tanh(self, a: Node, name="") -> Node:
        return self._record("tanh", (a,), name=name)

    def relu(self, a: Node, name="") -> Node:
        return self._record("relu", (a,), name=name)

    def transpose(self, a: Node, name="") -> Node:
        return self._record("transpose", (a,), name=name)

    def masked_sum(self, a: Node, mask, name="") -> Node:
        """Row-wise sum of the entries selected by a constant 0/1 mask."""
        m = _as_value(mask)
        return self._record("masked_sum", (a,), aux=m, name=name)

    def clamp_min(self, a: Node, bound: float, name="") -> Node:
        return self._record("clamp_min", (a,), aux=float(bound), name=name)

    def pick(self, a: Node, cols, name="") -> Node:
        """n x 1 column holding a[i, cols[i]] for each of a's n rows."""
        cols = np.asarray(cols, dtype=np.intp)
        if cols.ndim != 1:
            raise ValueError(f"pick needs one column index per row, got shape {cols.shape}")
        return self._record("pick", (a,), aux=(np.arange(cols.shape[0]), cols), name=name)

    def vstack(self, a: Node, b: Node, name="") -> Node:
        """a's rows followed by b's rows."""
        return self._record("vstack", (a, b), name=name)


def _compute(node: Node) -> np.ndarray:
    op = node.op
    p = node.parents
    if op == "matmul":
        return p[0].value @ p[1].value
    if op == "add":
        return p[0].value + p[1].value
    if op == "sub":
        return p[0].value - p[1].value
    if op == "mul_elem":
        return p[0].value * p[1].value
    if op == "div_elem":
        return p[0].value / p[1].value
    if op == "scalar_mul":
        return p[0].value * node.aux
    if op == "exp":
        return np.exp(p[0].value)
    if op == "log":
        return np.log(p[0].value)
    if op == "sum":
        return p[0].value.sum().reshape(1, 1)
    if op == "mean":
        return p[0].value.mean().reshape(1, 1)
    if op == "row_l2_normalize":
        x = p[0].value
        norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
        if (norms <= 1e-12).any():
            raise NonFinite(f"node {node.idx} ({node.name or op}): zero row in normalize")
        node._norms = norms
        return x / norms
    if op == "tanh":
        return np.tanh(p[0].value)
    if op == "relu":
        return np.maximum(p[0].value, 0.0)
    if op == "transpose":
        return p[0].value.T
    if op == "masked_sum":
        return (p[0].value * node.aux).sum(axis=1, keepdims=True)
    if op == "clamp_min":
        return np.maximum(p[0].value, node.aux)
    if op == "pick":
        rows, cols = node.aux
        if p[0].value.shape[0] != rows.shape[0]:
            raise ValueError(f"node {node.idx} ({node.name or op}): {rows.shape[0]} "
                             f"column indices for {p[0].value.shape[0]} rows")
        return p[0].value[rows, cols][:, None]
    if op == "vstack":
        return np.vstack((p[0].value, p[1].value))
    raise ValueError(f"unknown op {op!r}")


def forward(tape: Tape) -> float:
    """Evaluate all nodes in order; return the terminal scalar value.

    The last node recorded on the tape is the terminal and must be 1x1.
    Raises NonFinite naming the first node whose value is NaN/Inf.
    """
    if not tape.nodes:
        raise ValueError("empty tape")
    with np.errstate(all="ignore"):
        for node in tape.nodes:
            if node.op in ("input", "constant"):
                value = node.value
            else:
                value = _compute(node)
                node.value = value
            if not np.isfinite(value).all():
                raise NonFinite(f"non-finite value at node {node.idx} "
                                f"({node.name or node.op})")
    out = tape.nodes[-1].value
    if out.shape != (1, 1):
        raise ValueError(f"terminal node must be scalar (1x1), got {out.shape}")
    return float(out[0, 0])


def _accumulate(parent: Node, grad: np.ndarray):
    """Add one contribution to parent.grad; callers check requires_grad.

    Out of place: ``grad`` may also be held by another node."""
    grad = _unbroadcast(grad, parent.value.shape)
    if parent.grad is None:
        parent.grad = grad
    else:
        parent.grad = parent.grad + grad


def backward(tape: Tape):
    """Populate .grad for every node on a path from an input to the terminal.

    Must be called after forward. Constants, masks and nodes computed from
    constants alone receive no gradient, and none is computed for them.
    """
    terminal = tape.nodes[-1]
    if terminal.value is None:
        raise ValueError("run forward before backward")
    for node in tape.nodes:
        node.grad = None
    terminal.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        g = node.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NonFinite(f"non-finite gradient at node {node.idx} "
                            f"({node.name or node.op})")
        if node.op == "input" or not node.requires_grad:
            continue
        # A unary node requires a gradient only through its one parent;
        # binary ops check each parent.
        op = node.op
        p = node.parents
        if op == "matmul":
            if p[0].requires_grad:
                _accumulate(p[0], g @ p[1].value.T)
            if p[1].requires_grad:
                _accumulate(p[1], p[0].value.T @ g)
        elif op == "add":
            if p[0].requires_grad:
                _accumulate(p[0], g)
            if p[1].requires_grad:
                _accumulate(p[1], g)
        elif op == "sub":
            if p[0].requires_grad:
                _accumulate(p[0], g)
            if p[1].requires_grad:
                _accumulate(p[1], -g)
        elif op == "mul_elem":
            if p[0].requires_grad:
                _accumulate(p[0], g * p[1].value)
            if p[1].requires_grad:
                _accumulate(p[1], g * p[0].value)
        elif op == "div_elem":
            if p[0].requires_grad:
                _accumulate(p[0], g / p[1].value)
            if p[1].requires_grad:
                _accumulate(p[1], -g * node.value / p[1].value)
        elif op == "vstack":
            n_top = p[0].value.shape[0]
            if p[0].requires_grad:
                _accumulate(p[0], g[:n_top])
            if p[1].requires_grad:
                _accumulate(p[1], g[n_top:])
        elif op == "scalar_mul":
            _accumulate(p[0], g * node.aux)
        elif op == "exp":
            _accumulate(p[0], g * node.value)
        elif op == "log":
            _accumulate(p[0], g / p[0].value)
        elif op == "sum":
            _accumulate(p[0], np.full(p[0].value.shape, g[0, 0]))
        elif op == "mean":
            _accumulate(p[0], np.full(p[0].value.shape, g[0, 0] / p[0].value.size))
        elif op == "row_l2_normalize":
            y = node.value
            inner = (g * y).sum(axis=1, keepdims=True)
            _accumulate(p[0], (g - y * inner) / node._norms)
        elif op == "tanh":
            _accumulate(p[0], g * (1.0 - node.value * node.value))
        elif op == "relu":
            _accumulate(p[0], g * (p[0].value > 0.0))
        elif op == "transpose":
            _accumulate(p[0], g.T)
        elif op == "masked_sum":
            _accumulate(p[0], g * node.aux)
        elif op == "pick":
            rows, cols = node.aux
            scattered = np.zeros(p[0].value.shape)
            scattered[rows, cols] = g[:, 0]
            _accumulate(p[0], scattered)
        elif op == "clamp_min":
            _accumulate(p[0], g * (p[0].value > node.aux))
        else:
            raise ValueError(f"unknown op {op!r}")
