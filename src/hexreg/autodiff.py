"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

A Tape records an acyclic graph of matrix operations; ``forward`` evaluates
every node in insertion order and returns the terminal scalar, ``backward``
accumulates gradients for all input (parameter) nodes. The trainer is the
tape's one client, and the operation set is what its step records: the
model's layers and one loss kernel.

    input, constant, matmul, add, tanh, relu, kernel

``kernel(k, x)`` records a node on one parent: its value
is ``k.value(x)`` and its vjp ``k.vjp(g)``. A kernel is a plain numpy
object that knows nothing of the tape; it keeps what its forward saved, so
each kernel node has its own. Its masks and fixed rows are constant arrays
it holds, never nodes, so no gradient can flow into them. ``add`` supports
numpy broadcasting between 2-D shapes (a bias row on a batch); gradients
are reduced back over broadcast axes. Values and gradients are
deterministic functions of the graph and its inputs.

Gradients are computed only for parents that require one: constants and
every node built from constants alone get none. A gradient array is never
written in place once made, so one array may be handed to several parents:
the first contribution to a node is kept as it is and later ones are added
out of place.

The tape only computes: ``forward`` and ``backward`` run under
``np.errstate(all="ignore")`` and check nothing, so a NaN or Inf passes
through as numpy makes it. Its caller decides what is at fault; the
trainer checks the loss and each parameter gradient once per step.

An op is defined in two places: its ``Tape`` method, which records the node,
and its entry in ``_OPS``, which gives the node's value from its parents'
values and one vector-Jacobian product per parent. ``forward`` and
``backward`` only look ops up in that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False, slots=True)
class Node:
    op: str
    parents: tuple = ()
    aux: object = None          # a kernel node's kernel
    value: np.ndarray = None
    requires_grad: bool = False
    grad: np.ndarray = None


def _as_value(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
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

    def input(self, value) -> Node:
        return self._leaf("input", value, True)

    def constant(self, value) -> Node:
        return self._leaf("constant", value, False)

    def _leaf(self, op, value, requires_grad) -> Node:
        node = Node(op, value=_as_value(value), requires_grad=requires_grad)
        self.nodes.append(node)
        return node

    # -- operations -------------------------------------------------------

    def _record(self, op, parents, aux=None) -> Node:
        req = any(p.requires_grad for p in parents)
        node = Node(op, parents=tuple(parents), aux=aux, requires_grad=req)
        self.nodes.append(node)
        return node

    def matmul(self, a: Node, b: Node) -> Node:
        return self._record("matmul", (a, b))

    def add(self, a: Node, b: Node) -> Node:
        return self._record("add", (a, b))

    def tanh(self, a: Node) -> Node:
        return self._record("tanh", (a,))

    def relu(self, a: Node) -> Node:
        return self._record("relu", (a,))

    def kernel(self, k, x: Node) -> Node:
        return self._record("kernel", (x,), aux=k)


# op -> (value(node, *parent_values), one vjp(node, g) per parent). Every op
# a Tape method records has exactly one entry here.
_OPS = {
    "matmul": (lambda n, a, b: a @ b, (lambda n, g: g @ n.parents[1].value.T,
                                       lambda n, g: n.parents[0].value.T @ g)),
    "add": (lambda n, a, b: a + b, (lambda n, g: g, lambda n, g: g)),
    "tanh": (lambda n, a: np.tanh(a), (lambda n, g: g * (1.0 - n.value * n.value),)),
    "relu": (lambda n, a: np.maximum(a, 0.0), (lambda n, g: g * (n.parents[0].value > 0.0),)),
    "kernel": (lambda n, x: n.aux.value(x), (lambda n, g: n.aux.vjp(g),)),
}


def forward(tape: Tape) -> float:
    """Evaluate all nodes in order; return the terminal scalar value.

    The last node recorded on the tape is the terminal and must be 1x1.
    """
    with np.errstate(all="ignore"):
        for node in tape.nodes:
            if node.op not in ("input", "constant"):
                node.value = _OPS[node.op][0](node, *[p.value for p in node.parents])
    out = tape.nodes[-1].value
    if out.shape != (1, 1):
        raise ValueError(f"terminal node must be scalar (1x1), got {out.shape}")
    return float(out[0, 0])


def _accumulate(parent: Node, grad: np.ndarray):
    """Add one contribution to parent.grad, out of place, as another node
    may hold parent.grad; callers check requires_grad."""
    summand = _unbroadcast(grad, parent.value.shape)
    parent.grad = summand if parent.grad is None else parent.grad + summand


def backward(tape: Tape):
    """Populate .grad for every node on a path from an input to the terminal.

    Must be called after forward. Constants and nodes computed from
    constants alone receive no gradient, and none is computed for them.
    """
    terminal = tape.nodes[-1]
    for node in tape.nodes:
        node.grad = None
    terminal.grad = np.ones((1, 1))
    with np.errstate(all="ignore"):
        for node in reversed(tape.nodes):
            if node.grad is None or node.op in ("input", "constant"):
                continue
            for parent, vjp in zip(node.parents, _OPS[node.op][1]):
                if parent.requires_grad:
                    _accumulate(parent, vjp(node, node.grad))
