"""Dense float32 tensors with reverse-mode automatic differentiation.

Holds only the differentiable ops that the causal convolutional classifier
and its attribution record: add, matmul, relu, sum and mean reductions and
getitem, plus ``make_op`` for the primitives defined elsewhere (the
convolution, relu fused with dropout in training, and the loss), the
backward pass and a finite-difference gradient checker. Tensors are
immutable after construction except for gradient accumulation.

The graph holds gradient routes, not values. A recorded op's node keeps
each leaf parent (a tensor no recorded op produced: a parameter, an
attribution input, a constant) as itself, and each other parent as that
tensor's handle: a data-less ``Tensor`` made once per tensor, sharing its
``node``, that receives its gradient in the backward. So no node keeps the
``data`` of a tensor an op produced. Its ``backward_fn`` closure captures
only the arrays its backward reads: relu a bool mask, add, the reductions
and getitem shapes only, matmul an operand only when the other one needs
a gradient. An activation that no backward reads is freed in the
forward, as soon as the code that computed it lets go of it.

``backward`` leaves gradients on leaves only, and on the scalar it started
from. It frees the graph as it replays it: each node drops its
``backward_fn`` and parents once that has run, and each handle its
gradient, so an op's saved state is released then, not when the whole pass
returns, and a tensor the caller still holds (the logits) pins nothing.

A recorded op's ``backward_fn(g)`` returns one gradient per parent, and
``None`` for a parent that needs no gradient (``needs_grad`` false when the
op was recorded): a frozen weight costs no work.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

Array = np.ndarray

# a context variable, so one thread's no_grad block leaves the graphs that
# other threads are recording untouched
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


@dataclass
class Node:
    """One recorded operation: kind, inputs (leaves and handles), and its
    vector-Jacobian rule; ``backward`` empties both once it has run it."""

    op: str
    parents: tuple["Tensor", ...]
    backward_fn: Optional[Callable[[Array], tuple[Optional[Array], ...]]]


class Tensor:
    """Dense n-dimensional array of float32 values, optionally differentiable.

    ``data`` is row-major float32. ``grad`` mirrors ``data``'s shape on a
    leaf (``node`` None) once ``backward`` has run through it. ``node``
    links into the (acyclic) graph of recorded operations; ``backward``
    empties it. ``handle`` is what the nodes of the ops reading this tensor
    keep of it, when an op produced it (see ``_route``).
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "exact", "handle")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self.node: Optional[Node] = None
        # scalar reductions stash their float64 accumulator here; values
        # stay float32, but precision-sensitive readers (the finite
        # difference checker) can avoid the final rounding
        self.exact: Optional[float] = None
        self.handle: Optional[Tensor] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"expected a one-element tensor, got shape {self.shape}")
        if self.exact is not None:
            return self.exact
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def needs_grad(t: Tensor) -> bool:
    """Whether an op recorded now must produce a gradient for ``t``: grad
    mode is on and ``t`` requires one, the rule ``_record`` applies."""
    return t.requires_grad and _grad_enabled.get()


def _route(t: Tensor) -> Tensor:
    """What a node keeps of its parent ``t``: a leaf itself, and a tensor
    an op produced as its handle, a ``Tensor`` without data that shares
    ``t``'s node and receives its gradient. Each tensor has one handle, so
    the ops reading ``t`` meet in one place in the graph."""
    if t.node is None:
        return t
    if t.handle is None:
        handle = Tensor.__new__(Tensor)
        handle.data, handle.requires_grad, handle.grad = None, True, None
        handle.node, handle.exact, handle.handle = t.node, None, None
        t.handle = handle
    return t.handle


def _record(data: Array, op: str, parents: tuple[Tensor, ...],
            backward_fn: Callable[[Array], tuple[Optional[Array], ...]]) -> Tensor:
    requires = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out.node = Node(op, tuple(_route(p) for p in parents), backward_fn)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    need_a, need_b = needs_grad(a), needs_grad(b)
    a_shape, b_shape = a.shape, b.shape

    def backward_fn(g: Array):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _record(data, "add", (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner extents differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    need_a, need_b = needs_grad(a), needs_grad(b)
    # each operand only for the other one's gradient
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def backward_fn(g: Array):
        return (g @ b_data.T if need_a else None,
                a_data.T @ g if need_b else None)

    return _record(data, "matmul", (a, b), backward_fn)


# ---------------------------------------------------------------------------
# activations

def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, np.float32(0))
    if not needs_grad(x):
        return Tensor(data)
    mask = data > 0  # x > 0, kept in place of x

    def backward_fn(g: Array):
        return (mask.astype(np.float32) * g,)

    return _record(data, "relu", (x,), backward_fn)


# ---------------------------------------------------------------------------
# reductions (float64 accumulators, float32 results)

def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    normalized = []
    for axis in axes:
        if not -ndim <= axis < ndim:
            raise ValueError(f"axis {axis} out of range for {ndim}-d tensor")
        normalized.append(axis % ndim)
    if len(set(normalized)) != len(normalized):
        raise ValueError(f"duplicate axes in {axes}")
    return tuple(sorted(normalized))


def _restore_shape(g: Array, in_shape: tuple[int, ...], axes: tuple[int, ...]) -> Array:
    kept = list(in_shape)
    for axis in axes:
        kept[axis] = 1
    return np.broadcast_to(g.reshape(kept), in_shape)


def reduce_sum(x: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, x.ndim)
    acc = x.data.sum(axis=axes, dtype=np.float64)
    shape = x.shape

    def backward_fn(g: Array):
        return (np.ascontiguousarray(_restore_shape(g, shape, axes)),)

    out = _record(acc.astype(np.float32), "sum", (x,), backward_fn)
    if out.size == 1:
        out.exact = float(acc.reshape(-1)[0]) if acc.ndim else float(acc)
    return out


def reduce_mean(x: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    acc = x.data.mean(axis=axes, dtype=np.float64)
    shape = x.shape

    def backward_fn(g: Array):
        return (np.ascontiguousarray(_restore_shape(g, shape, axes)) / count,)

    out = _record(acc.astype(np.float32), "mean", (x,), backward_fn)
    if out.size == 1:
        out.exact = float(acc.reshape(-1)[0]) if acc.ndim else float(acc)
    return out


# ---------------------------------------------------------------------------
# shape ops

def getitem(x: Tensor, key) -> Tensor:
    """Basic (non-fancy) indexing with a scatter backward."""
    data = x.data[key]
    shape = x.shape

    def backward_fn(g: Array):
        gx = np.zeros(shape, dtype=np.float32)
        gx[key] = g
        return (gx,)

    return _record(np.ascontiguousarray(data), "getitem", (x,), backward_fn)


def make_op(data: Array, op: str, parents: Iterable[Tensor],
            backward_fn: Callable[[Array], tuple[Optional[Array], ...]]) -> Tensor:
    """Register a custom primitive (used by convolution and loss kernels)."""
    return _record(np.asarray(data, dtype=np.float32), op, tuple(parents), backward_fn)


# ---------------------------------------------------------------------------
# backward pass

def backward(out: Tensor) -> None:
    """Accumulate into ``grad`` of every requires-grad leaf reachable from
    ``out``.

    ``out`` must hold exactly one element; its own gradient seeds to 1 and
    stays. The recorded graph is replayed once in reverse topological
    order, over ``out``, the handles of the tensors ops produced, and the
    leaves. Each entry leaves the tape once replayed. As soon as a node's
    ``backward_fn`` has run, the node drops it and its parents, and the
    handle (or ``out``) loses its ``node`` and its ``grad``: an op's saved
    arrays are freed during the pass, and a tensor the caller still holds
    keeps an empty node that reaches nothing. Only leaves keep the
    gradients they receive.
    """
    if out.data.size != 1:
        raise ValueError(f"backward needs a scalar, got shape {out.shape}")

    tape: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        tensor, expanded = stack.pop()
        if expanded:
            tape.append(tensor)
            continue
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        stack.append((tensor, True))
        if tensor.node is not None:
            for parent in tensor.node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

    out.grad = np.ones_like(out.data)
    while tape:
        tensor = tape.pop()
        node = tensor.node
        if node is None:
            continue
        tensor.node = None  # graph freed; no higher-order gradients
        parents, backward_fn = node.parents, node.backward_fn
        node.parents, node.backward_fn = (), None
        if tensor.grad is None or backward_fn is None:
            continue
        grads = backward_fn(tensor.grad)
        if tensor is not out:
            tensor.grad = None
        for parent, grad in zip(parents, grads):
            if grad is None or not parent.requires_grad:
                continue
            grad = np.asarray(grad, dtype=np.float32)
            if parent.grad is None:
                parent.grad = grad.copy() if grad.base is not None else grad
            else:
                parent.grad = parent.grad + grad


# ---------------------------------------------------------------------------
# gradient checking

def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            eps: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be deterministic and scalar-valued. The relative-error
    denominator is floored at 1e-8 so exact zeros compare cleanly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ValueError(f"f must be scalar-valued, got shape {out.shape}")
    backward(out)
    analytic = probe.grad.reshape(-1).astype(np.float64)

    numeric = np.empty_like(analytic)
    base = x.data.copy()
    with no_grad():
        for i in range(base.size):
            bumped = base.copy()
            bumped.reshape(-1)[i] = base.reshape(-1)[i] + eps
            hi = f(Tensor(bumped)).item()
            bumped.reshape(-1)[i] = base.reshape(-1)[i] - eps
            lo = f(Tensor(bumped)).item()
            numeric[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
