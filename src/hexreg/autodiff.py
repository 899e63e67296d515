"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

A Tape records an acyclic graph of matrix operations; ``forward`` evaluates
every node in insertion order and returns the terminal scalar, ``backward``
accumulates gradients for all input (parameter) nodes. The operation set is
fixed to what the encoder, projector and loss graphs need:

    input, constant, matmul, add, sub, mul_elem, div_elem, scalar_mul,
    exp, log, sum, mean, row_l2_normalize, tanh, relu, transpose,
    masked_sum, clamp_min, pick, vstack, rows, kernel

``pick(a, cols)`` is the n x 1 column of ``a[i, cols[i]]``; ``vstack(a, b)``
stacks two row blocks and ``rows(a, lo, hi)`` takes the row block
``a[lo:hi]``. ``kernel(k, *parents)`` has the value ``k.value(node,
*parent_values)`` and the vjp ``k.vjp(node, g, i)`` for parent i; k keeps
what its forward saved, so each kernel node has its own, and none of its
arrays is pooled. Masks (for masked_sum) and column indices (for pick)
are plain constant arrays, never nodes, so no gradient can flow into them.
Elementwise binaries support the usual numpy broadcasting between 2-D
shapes; gradients are reduced back over broadcast axes. Values and gradients
are deterministic functions of the graph and its inputs.

Gradients are computed only for parents that require one: constants, masks
and every node built from constants alone get none. A gradient array is
never written in place once made, so one array may be handed to several
parents: the first contribution to a node is kept as it is and later ones
are added out of place.

A Tape built with a ``Buffers`` pool takes every array of at least 64 KiB
that one numpy call of a pass makes (node values, most vector-Jacobian
products, gradient sums, the product inside ``masked_sum``) from the pool
instead of from the allocator. A training loop builds the same graph on
the same shapes every step, so after the first step these arrays are never
freed. Without the pool each step allocates and frees megabytes of them,
and whenever glibc returns the freed top of the heap to the kernel, the
next step faults every page of it back in. Pooled arrays give bitwise the
same results as fresh ones: each is written by the same numpy call, through
``out=``, into an array of the shape and memory order the fresh one had.
The arrays of a pass stay valid until the next ``forward`` on the same pool.

Finiteness is checked once per pass, on what a caller consumes: ``forward``
checks the terminal value and ``backward`` the gradient of each input node.
Only after a failed check are the nodes rescanned, so that NonFinite names
the first bad node, the one a check after every node would have named. A
NaN or Inf that reaches neither the loss nor a parameter gradient, such as
``exp(-inf) = 0``, does not raise.

An op is defined in two places: its ``Tape`` method, which records the node,
and its entry in ``_OPS``, which gives the node's value from its parents'
values and one vector-Jacobian product per parent. ``forward`` and
``backward`` only look ops up in that table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NonFinite

class Node:
    __slots__ = ("idx", "op", "parents", "aux", "value", "grad",
                 "requires_grad", "name", "_norms", "buffers", "n_sums")

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
        self.buffers = None     # the Buffers its arrays come from, or None
        self.n_sums = 0         # gradient sums made for it this pass

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


# Smaller arrays are left to the allocator. At b = 64 the loss's 2b x 2b
# arrays are 128 KiB and the model's 2b-row hidden-layer arrays 64 KiB.
_POOL_BYTES = 1 << 16
_SMALL = "small"   # slot mark of a role whose array is left to the allocator


def _layout(a: np.ndarray):
    """(shape, order) of an array that numpy made; the order matters, as it
    sets the order in which a later reduction adds the elements up."""
    return a.shape, ("F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C")


def _signature(node: Node):
    """What the shapes of a node's arrays depend on."""
    if not node.parents:
        return node.op, node.value.shape
    return (node.op, [p.value.shape for p in node.parents],
            getattr(node.aux, "shape", None))


class Buffers:
    """A pool of arrays that successive passes of one graph reuse.

    ``forward`` hands every array of the last pass back to the pool. Each
    array of the new pass is taken from it, most recently taken first, so
    a pass first writes the arrays the last pass wrote last, which are the
    likeliest to be in cache. Slot i records, for the node recorded i-th,
    the ``_layout`` of each array it takes, by role (``_SMALL`` for one
    left to the allocator), and, once it holds a layout, under "sig" the
    ``_signature`` it had then. A node with nothing recorded for a role, or
    whose signature differs from its slot's, computes into a fresh array,
    which then joins the pool in place of a free one of its layout.
    """

    def __init__(self):
        self.slots: list = []
        self._free: dict = {}   # layout -> arrays no pass holds, last on top
        self._used: list = []   # arrays the current pass took, in order

    def __len__(self):
        """How many arrays the pool holds, free or taken."""
        return len(self._used) + sum(map(len, self._free.values()))

    def begin(self):
        """Hand every array of the last pass back to the pool."""
        for a in self._used:
            self._free.setdefault(_layout(a), []).append(a)
        self._used.clear()

    def clear(self):
        """Let go of every array, for the allocator to reuse elsewhere."""
        self.slots.clear()
        self._free.clear()
        self._used.clear()

    def attach(self, node: Node):
        i = node.idx
        if i == len(self.slots):
            self.slots.append({})
        elif "sig" in self.slots[i] and self.slots[i]["sig"] != _signature(node):
            self.slots[i] = {}
        node.buffers = self

    def take(self, layout) -> np.ndarray:
        stack = self._free.get(layout)
        out = stack.pop() if stack else np.empty(layout[0], order=layout[1])
        self._used.append(out)
        return out

    def adopt(self, node: Node, role: str, out: np.ndarray) -> np.ndarray:
        """Record a fresh array that node computed for role and pool it if
        it is large. The least recently used free array of its layout, if
        any, leaves the pool, so that a graph that changes does not make the
        pool grow."""
        slot = self.slots[node.idx]
        if out.nbytes < _POOL_BYTES:
            slot[role] = _SMALL
            return out
        if "sig" not in slot:
            slot["sig"] = _signature(node)
        slot[role] = layout = _layout(out)
        stack = self._free.get(layout)
        if stack:
            del stack[0]
        self._used.append(out)
        return out

    def mark(self) -> int:
        return len(self._used)

    def took_one(self, mark: int, a: np.ndarray) -> bool:
        """Whether a is the only array taken since ``mark()``."""
        return len(self._used) == mark + 1 and self._used[-1] is a

    def release(self, a: np.ndarray):
        """Hand back an array of this pass that nothing holds any more. Only
        the last three taken are looked at: a caller releases an array
        right after the one or two operations that read it."""
        for k in range(len(self._used) - 1, max(-1, len(self._used) - 4), -1):
            if self._used[k] is a:
                del self._used[k]
                self._free.setdefault(_layout(a), []).append(a)
                return


def _into(node: Node, role: str, fn, *args):
    """``fn(*args)``, written into an array of node's pool when it has one."""
    buffers = node.buffers
    if buffers is None:
        return fn(*args)
    layout = buffers.slots[node.idx].get(role)
    if layout is _SMALL:
        return fn(*args)
    if layout is None:
        return buffers.adopt(node, role, fn(*args))
    return fn(*args, out=buffers.take(layout))


def _empty(node: Node, role: str, shape) -> np.ndarray:
    """A C-order array of shape with stale contents, pooled as ``_into``
    pools."""
    buffers = node.buffers
    if buffers is None:
        return np.empty(shape)
    layout = buffers.slots[node.idx].get(role)
    if layout is _SMALL:
        return np.empty(shape)
    if layout is None:
        return buffers.adopt(node, role, np.empty(shape))
    return buffers.take(layout)


class Tape:
    """Single-owner operation recorder; build, forward, then backward."""

    def __init__(self, buffers: Buffers | None = None):
        self.nodes: list[Node] = []
        self.buffers = buffers

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

    def rows(self, a: Node, lo: int, hi: int, name="") -> Node:
        """The row block a[lo:hi]."""
        return self._record("rows", (a,), aux=(lo, hi), name=name)

    def kernel(self, k, *parents: Node, name="") -> Node:
        return self._record("kernel", parents, aux=k, name=name)


def _x(node: Node, i: int = 0) -> np.ndarray:
    """Value of the node's i-th parent."""
    return node.parents[i].value


def _normalize(node: Node, x):
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if (norms <= 1e-12).any():
        raise NonFinite(f"node {node.idx} ({node.name or node.op}): zero row in normalize")
    node._norms = norms
    return _into(node, "value", np.divide, x, norms)


def _normalize_vjp(node: Node, g):
    y = node.value
    inner = (g * y).sum(axis=1, keepdims=True)
    return (g - y * inner) / node._norms


def _pick(node: Node, a):
    rows, cols = node.aux
    if a.shape[0] != rows.shape[0]:
        raise ValueError(f"node {node.idx} ({node.name or node.op}): {rows.shape[0]} "
                         f"column indices for {a.shape[0]} rows")
    return a[rows, cols][:, None]


def _pick_vjp(node: Node, g):
    rows, cols = node.aux
    scattered = _empty(node, "vjp0", _x(node).shape)
    scattered.fill(0.0)
    scattered[rows, cols] = g[:, 0]
    return scattered


def _rows_vjp(node: Node, g):
    lo, hi = node.aux
    out = _empty(node, "vjp0", _x(node).shape)
    out.fill(0.0)
    out[lo:hi] = g
    return out


def _masked_sum(node: Node, a):
    product = _into(node, "product", np.multiply, a, node.aux)
    out = product.sum(axis=1, keepdims=True)
    if node.buffers is not None:
        node.buffers.release(product)
    return out


def _fill_vjp(node: Node, value: float):
    out = _empty(node, "vjp0", _x(node).shape)
    out.fill(value)
    return out


class _KernelVjps:
    """A kernel node's vjps: one per parent, however many it has."""
    def __iter__(self):
        return (lambda n, g, i=i: n.aux.vjp(n, g, i) for i in itertools.count())


# op -> (value(node, *parent_values), one vjp(node, g) per parent). Every op
# a Tape method records has exactly one entry here. Arrays that one numpy
# call makes go through _into or _empty, so that Buffers can pool them; the
# few vjps that chain several calls, on the loss's column vectors and the
# model's hidden layers, are left to the allocator.
_OPS = {
    "matmul": (lambda n, a, b: _into(n, "value", np.matmul, a, b),
               (lambda n, g: _into(n, "vjp0", np.matmul, g, _x(n, 1).T),
                lambda n, g: _into(n, "vjp1", np.matmul, _x(n, 0).T, g))),
    "add": (lambda n, a, b: _into(n, "value", np.add, a, b),
            (lambda n, g: g, lambda n, g: g)),
    "sub": (lambda n, a, b: _into(n, "value", np.subtract, a, b),
            (lambda n, g: g, lambda n, g: _into(n, "vjp1", np.negative, g))),
    "mul_elem": (lambda n, a, b: _into(n, "value", np.multiply, a, b),
                 (lambda n, g: _into(n, "vjp0", np.multiply, g, _x(n, 1)),
                  lambda n, g: _into(n, "vjp1", np.multiply, g, _x(n, 0)))),
    "div_elem": (lambda n, a, b: _into(n, "value", np.divide, a, b),
                 (lambda n, g: _into(n, "vjp0", np.divide, g, _x(n, 1)),
                  lambda n, g: -g * n.value / _x(n, 1))),
    "vstack": (lambda n, a, b: _into(n, "value", np.concatenate, (a, b)),
               (lambda n, g: g[:_x(n, 0).shape[0]],
                lambda n, g: g[_x(n, 0).shape[0]:])),
    "scalar_mul": (lambda n, a: _into(n, "value", np.multiply, a, n.aux),
                   (lambda n, g: _into(n, "vjp0", np.multiply, g, n.aux),)),
    "exp": (lambda n, a: _into(n, "value", np.exp, a),
            (lambda n, g: _into(n, "vjp0", np.multiply, g, n.value),)),
    "log": (lambda n, a: _into(n, "value", np.log, a),
            (lambda n, g: _into(n, "vjp0", np.divide, g, _x(n)),)),
    "sum": (lambda n, a: a.sum().reshape(1, 1),
            (lambda n, g: _fill_vjp(n, g[0, 0]),)),
    "mean": (lambda n, a: a.mean().reshape(1, 1),
             (lambda n, g: _fill_vjp(n, g[0, 0] / _x(n).size),)),
    "row_l2_normalize": (_normalize, (_normalize_vjp,)),
    "tanh": (lambda n, a: _into(n, "value", np.tanh, a),
             (lambda n, g: g * (1.0 - n.value * n.value),)),
    "relu": (lambda n, a: _into(n, "value", np.maximum, a, 0.0),
             (lambda n, g: _into(n, "vjp0", np.multiply, g, _x(n) > 0.0),)),
    "transpose": (lambda n, a: a.T, (lambda n, g: g.T,)),
    "masked_sum": (_masked_sum,
                   (lambda n, g: _into(n, "vjp0", np.multiply, g, n.aux),)),
    "clamp_min": (lambda n, a: _into(n, "value", np.maximum, a, n.aux),
                  (lambda n, g: _into(n, "vjp0", np.multiply, g, _x(n) > n.aux),)),
    "pick": (_pick, (_pick_vjp,)),
    "rows": (lambda n, a: a[n.aux[0]:n.aux[1]], (_rows_vjp,)),
    "kernel": (lambda n, *xs: n.aux.value(n, *xs), _KernelVjps()),
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
    When an op raises NonFinite itself (``row_l2_normalize``'s zero-row
    guard), a non-finite node recorded before it is named instead, as it
    came first.

    A non-finite value that never reaches the terminal does not raise:
    ``relu(log(0))`` is 0 and ``exp(-inf)`` is 0. Values read back from an
    evaluated loss graph are still checked, because each reaches the
    terminal only through add, sub, mean, log, scalar_mul and mul_elem, and
    each of those turns a NaN or Inf operand into a NaN or Inf result: a
    finite terminal implies a finite ``pos_logits``, ``log_denominator`` and
    ``q_clamped`` and finite Barlow/VICReg kernel terms.
    """
    if not tape.nodes:
        raise ValueError("empty tape")
    buffers = tape.buffers
    if buffers is not None:
        buffers.begin()
    with np.errstate(all="ignore"):
        for node in tape.nodes:
            if buffers is not None:
                buffers.attach(node)
            if node.op in ("input", "constant"):
                continue
            try:
                node.value = _OPS[node.op][0](node, *[p.value for p in node.parents])
            except NonFinite:
                bad = _first_non_finite(tape.nodes[:node.idx], "value")
                if bad is not None:
                    raise _non_finite(bad, "value") from None
                raise
    out = tape.nodes[-1].value
    if not _all_finite(out):
        raise _non_finite(_first_non_finite(tape.nodes, "value"), "value")
    if out.shape != (1, 1):
        raise ValueError(f"terminal node must be scalar (1x1), got {out.shape}")
    return float(out[0, 0])


def _accumulate(parent: Node, grad: np.ndarray, fresh: bool):
    """Add one contribution to parent.grad; callers check requires_grad.

    Out of place: another node may hold parent.grad. ``fresh`` says that
    grad was taken from the pool for this contribution alone, so it goes
    back to the pool once used."""
    summand = _unbroadcast(grad, parent.value.shape)
    if parent.grad is None:
        parent.grad = summand
    else:
        parent.n_sums += 1
        parent.grad = _into(parent, f"sum{parent.n_sums}", np.add, parent.grad, summand)
    if fresh and parent.grad is not grad:
        parent.buffers.release(grad)


def backward(tape: Tape):
    """Populate .grad for every node on a path from an input to the terminal.

    Must be called after forward. Constants, masks and nodes computed from
    constants alone receive no gradient, and none is computed for them.

    Only the gradients of input nodes, which an optimizer reads, are
    checked. A node's gradient is final when the reverse loop reaches it,
    since every node that consumes it was recorded after it. When an input's
    gradient is NaN/Inf, the gradients are rescanned in reverse recording
    order, the order the loop visits them, and NonFinite names the first bad
    one. A NaN or Inf gradient that reaches no input does not raise.
    """
    terminal = tape.nodes[-1]
    if terminal.value is None:
        raise ValueError("run forward before backward")
    buffers = tape.buffers
    for node in tape.nodes:
        node.grad = None
        node.n_sums = 0
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
                if not parent.requires_grad:
                    continue
                if buffers is None:
                    _accumulate(parent, vjp(node, g), False)
                else:
                    mark = buffers.mark()
                    grad = vjp(node, g)
                    _accumulate(parent, grad, buffers.took_one(mark, grad))
