"""Dense-tensor reverse-mode differentiation engine.

Values are numpy arrays wrapped in :class:`Tensor`; every primitive records
its inputs and a backward closure, and ``backward()`` walks the graph in
reverse topological order.  Training runs in float32; gradient checking
re-runs the same graph in float64 (see :mod:`tncse.gradsuite`).  Some
kernels finish in place on an array they just allocated, never on an input
or a saved array; that keeps numpy's result dtype only while a graph holds
one float width throughout, as every graph here does.
"""

from __future__ import annotations

import zlib

import numpy as np


class Tensor:
    """A dense array with optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph traversal ---------------------------------------------------

    def _toposort(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return order

    def backward(self):
        """Accumulate gradients of this scalar into every reachable node."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        if self._backward_ran:
            raise RuntimeError("backward() already ran on this graph; "
                               "re-run the forward pass before differentiating again")
        self._backward_ran = True
        order = self._toposort()
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                # a copy: a backward may hand one array to several parents
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(as_tensor(other), -1.0))

    def __neg__(self):
        return scale(self, -1.0)


def _backward(roots, grads):
    """Backward pass seeded at several roots: accumulate the gradients of a
    scalar whose gradient at ``roots[i]`` is ``grads[i]`` (None: none).  A
    root may be another's ancestor.  It runs as the scalar ``backward`` of a
    node whose backward hands out ``grads``."""
    Tensor(np.zeros(()), _parents=tuple(roots), _backward_fn=lambda g: grads).backward()


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64)
                  if not isinstance(x, np.ndarray) else x)


def _needs_graph(*ts):
    return any(t.requires_grad or t._parents for t in ts)


def _node(data, parents, backward_fn):
    if _needs_graph(*parents):
        return Tensor(data, _parents=tuple(parents), _backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape))
                 if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                         _unbroadcast(g, b.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                         _unbroadcast(g * a.data, b.shape)))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def scale(a, c):
    """Multiply by a python scalar constant (no gradient w.r.t. ``c``)."""
    a = as_tensor(a)
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,))


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        d = out * out
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return _node(out, (a,), bw)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g / (2.0 * out),))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; gradient is zero strictly outside the interval."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)
    return _node(out, (a,), lambda g: (g * inside,))


# -- shape and reduction primitives ---------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    old = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes):
    a = as_tensor(a)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def getitem(a, key):
    a = as_tensor(a)

    basic = all(isinstance(k, (slice, int, np.integer))
                for k in (key if isinstance(key, tuple) else (key,)))

    def bw(g):
        full = np.zeros_like(a.data)
        if basic:  # picks each element at most once; an index array may repeat
            full[key] = g
        else:
            np.add.at(full, key, g)
        return (full,)

    return _node(a.data[key], (a,), bw)


def sum_(a, axis=None):
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def bw(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node(out, (a,), bw)


def mean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return scale(sum_(a, axis=axis), 1.0 / n)


# -- linear algebra --------------------------------------------------------

def matmul(a, b):
    """Matrix product of operands with 2 or more dims and equal leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    if (min(a.data.ndim, b.data.ndim) < 2 or a.shape[-1] != b.shape[-2]
            or a.shape[:-2] != b.shape[:-2]):
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _node(np.matmul(a.data, b.data), (a, b),
                 lambda g: (np.matmul(g, np.swapaxes(b.data, -1, -2)),
                            np.matmul(np.swapaxes(a.data, -1, -2), g)))


def linear(x, w, b):
    """``x @ w + b`` with the leading dims of ``x`` folded into one 2-D GEMM
    forward and backward.  A GEMM of fewer than 16 rows runs on a copy
    zero-padded to 16 rows, as OpenBLAS 0.3.31 rounds such short products
    apart from the same rows of a taller one; so a row of the output is the
    same bit for bit at any row count, and from 16 rows up it equals
    ``np.matmul(x, w) + b``.  The backward runs on the real rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    m = x2.shape[0]
    xp = x2 if m >= 16 else np.pad(x2, ((0, 16 - m), (0, 0)))
    out = (xp @ w.data)[:m]
    out += b.data

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0))

    return _node(out.reshape(*x.shape[:-1], w.shape[1]), (x, w, b), bw)


def embedding(table, ids):
    """Row gather from ``table`` by an integer id array; the backward sums
    the gradient rows of each id in one ``reduceat`` over the stably sorted
    ids."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"embedding id out of range for table of {table.shape[0]} rows")

    def bw(g):
        order = np.argsort(ids, axis=None, kind="stable")
        sorted_ids = ids.reshape(-1)[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        full = np.zeros_like(table.data)
        full[sorted_ids[starts]] = np.add.reduceat(
            g.reshape(ids.size, *table.shape[1:])[order], starts, axis=0)
        return (full,)

    return _node(table.data[ids], (table,), bw)


# -- neural-net primitives -------------------------------------------------

def _last_axis_max(z):
    """``z.max(axis=-1, keepdims=True)`` by a pairwise ``np.maximum`` tree,
    which is faster on short rows; a max is exact in any order."""
    while z.shape[-1] > 1:
        half = z.shape[-1] // 2
        top = np.maximum(z[..., :half], z[..., half:2 * half])
        if z.shape[-1] % 2:
            np.maximum(top[..., :1], z[..., -1:], out=top[..., :1])
        z = top
    return z


def softmax(a, additive_mask=None):
    """Softmax over the last axis; ``additive_mask`` is added to the logits.
    The row sum runs over the row zero-padded to a multiple of 8: numpy's sum
    at 8k keys, which trailing zero ``exp`` values do not regroup up to 128."""
    a = as_tensor(a)
    z = a.data
    if additive_mask is not None:
        z = z + additive_mask
    w = z.shape[-1]
    padded = np.zeros(z.shape[:-1] + (w + -w % 8,), dtype=z.dtype)
    e = np.exp(z - _last_axis_max(z), out=padded[..., :w])
    out = e / padded.sum(axis=-1, keepdims=True)

    def bw(g):
        gs = g * out
        return (gs - out * gs.sum(axis=-1, keepdims=True),)

    return _node(out, (a,), bw)


def layer_norm(x, gamma, beta):
    """Zero-mean unit-variance normalization over the last axis (eps 1e-5),
    then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if d < 2:
        raise ValueError(f"layer_norm needs a feature dimension >= 2, got {d}")
    # centered once, for the variance (as np.var computes it), then scaled
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv
    out = gamma.data * xhat
    out += beta.data

    def bw(g):
        red = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        dx = g * gamma.data
        # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gamma
        proj = (dx * xhat).mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= xhat * proj
        dx *= inv
        return (dx, dgamma, dbeta)

    return _node(out, (x, gamma, beta), bw)


def dropout(x, p, rng):
    """Inverted dropout driven by a named, seeded generator stream: one
    uniform per element of ``x``; the mask is captured by the backward
    closure, so replaying with the stream at the same position reproduces
    the output."""
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    # keep is 0 or 1, so x * (keep * s) rounds as x * keep * s does
    scaled_keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scaled_keep *= 1.0 / (1.0 - p)
    return _node(x.data * scaled_keep, (x,), lambda g: (g * scaled_keep,))


# -- vector geometry -------------------------------------------------------

def l2_norm(a, axis=None, eps=0.0):
    """Euclidean norm sqrt(sum(x^2) + eps); eps > 0 smooths the origin."""
    a = as_tensor(a)
    return sqrt(sum_(mul(a, a), axis=axis) + np.asarray(eps, dtype=a.dtype))


def rowwise_cosine(a, b):
    """Per-row cosine of two equally-shaped matrices, clamped to [-1, 1]."""
    a, b = as_tensor(a), as_tensor(b)
    for m in (a, b):
        if np.any(np.linalg.norm(m.data, axis=-1) == 0.0):
            raise ValueError("rowwise_cosine is undefined for a zero-norm row")
    num = sum_(mul(a, b), axis=-1)
    den = mul(l2_norm(a, axis=-1), l2_norm(b, axis=-1))
    return clip(div(num, den), -1.0, 1.0)


# -- seeded named streams --------------------------------------------------

class RngStreams:
    """Named, independently-seeded numpy generator streams.

    Each name maps deterministically to its own stream, so e.g. the
    dropout streams of two encoders decorrelate but replay exactly
    from the root seed.
    """

    def __init__(self, root_seed):
        self.root_seed = int(root_seed)
        self._gens = {}

    def get(self, name):
        gen = self._gens.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.root_seed, key]))
            self._gens[name] = gen
        return gen
