"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

A Tape records an acyclic graph of matrix operations; ``forward`` evaluates
every node in insertion order and returns the terminal scalar, ``backward``
accumulates gradients for all input (parameter) nodes. The trainer is the
tape's one client, and the operation set is what its step records: the
model's layers and one loss kernel.

    input, constant, matmul, add, tanh, relu, kernel

``kernel(k, x)`` records a node named ``k.name`` on one parent: its value
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

Finiteness is checked once per pass, on what a caller consumes: ``forward``
checks the terminal value and ``backward`` the gradient of each input node.
Only after a failed check are the nodes rescanned, so that NonFinite names
the first bad node, the one a check after every node would have named. A
NaN or Inf that reaches neither the loss nor a parameter gradient, such as
``relu(-inf) = 0``, does not raise.

An op is defined in two places: its ``Tape`` method, which records the node,
and its entry in ``_OPS``, which gives the node's value from its parents'
values and one vector-Jacobian product per parent. ``forward`` and
``backward`` only look ops up in that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite


@dataclass(eq=False, slots=True)
class Node:
    idx: int
    op: str
    parents: tuple = ()
    aux: object = None          # a kernel node's kernel
    value: np.ndarray = None
    requires_grad: bool = False
    name: str = ""
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

    def matmul(self, a: Node, b: Node) -> Node:
        return self._record("matmul", (a, b))

    def add(self, a: Node, b: Node) -> Node:
        return self._record("add", (a, b))

    def tanh(self, a: Node) -> Node:
        return self._record("tanh", (a,))

    def relu(self, a: Node) -> Node:
        return self._record("relu", (a,))

    def kernel(self, k, x: Node) -> Node:
        return self._record("kernel", (x,), aux=k, name=k.name)


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


def _all_finite(a: np.ndarray) -> bool:
    """The one finiteness test of a tape pass; every check goes through it."""
    return bool(np.isfinite(a).all())


def _first_non_finite(nodes, attr: str):
    """First node of ``nodes`` whose ``attr`` array holds a NaN or Inf."""
    for node in nodes:
        a = getattr(node, attr)
        if a is not None and not _all_finite(a):
            return node
    return None


def _non_finite(node: Node, what: str) -> NonFinite:
    return NonFinite(f"non-finite {what} at node {node.idx} ({node.name or node.op})")


def forward(tape: Tape) -> float:
    """Evaluate all nodes in order; return the terminal scalar value.

    The last node recorded on the tape is the terminal and must be 1x1.
    Only the terminal's value is checked. When it is NaN/Inf, the nodes are
    rescanned in recording order and NonFinite names the first bad one.
    When a kernel raises NonFinite itself (the HEX kernel's zero-row guard
    on y, or the combined loss naming its non-finite part), a non-finite
    node recorded before it is named instead, as it came first; otherwise
    the kernel's message is prefixed by its node.

    A non-finite value that never reaches the terminal does not raise:
    ``relu(-inf)`` is 0. The terms a loss kernel
    keeps from its forward are still checked, because each reaches the
    kernel's value only through sums, products, log and mean, and each of
    those turns a NaN or Inf operand into a NaN or Inf result: a finite
    terminal implies finite HEX terms (``pos_logits``, ``log_denominator``,
    ``q``) and finite Barlow/VICReg terms.
    """
    with np.errstate(all="ignore"):
        for node in tape.nodes:
            if node.op in ("input", "constant"):
                continue
            try:
                node.value = _OPS[node.op][0](node, *[p.value for p in node.parents])
            except NonFinite as err:
                bad = _first_non_finite(tape.nodes[:node.idx], "value")
                if bad is not None:
                    raise _non_finite(bad, "value") from None
                raise NonFinite(f"node {node.idx} ({node.name or node.op}): {err}") from None
    out = tape.nodes[-1].value
    if not _all_finite(out):
        raise _non_finite(_first_non_finite(tape.nodes, "value"), "value")
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

    Only the gradients of input nodes, which an optimizer reads, are
    checked. A node's gradient is final when the reverse loop reaches it,
    since every node that consumes it was recorded after it. When an input's
    gradient is NaN/Inf, the gradients are rescanned in reverse recording
    order, the order the loop visits them, and NonFinite names the first bad
    one. A NaN or Inf gradient that reaches no input does not raise.
    """
    terminal = tape.nodes[-1]
    for node in tape.nodes:
        node.grad = None
    terminal.grad = np.ones((1, 1))
    with np.errstate(all="ignore"):
        for node in reversed(tape.nodes):
            g = node.grad
            if g is None:
                continue
            if node.op == "input":
                if not _all_finite(g):
                    bad = _first_non_finite(reversed(tape.nodes), "grad")
                    raise _non_finite(bad, "gradient")
                continue
            if not node.requires_grad:
                continue
            for parent, vjp in zip(node.parents, _OPS[node.op][1]):
                if parent.requires_grad:
                    _accumulate(parent, vjp(node, g))
