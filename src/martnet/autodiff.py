"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ndarray and records the operations applied to it.
Calling :meth:`Tensor.backward` on a scalar result walks the recorded graph
in reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

Only the operations needed by the martingale pipeline are implemented:
elementwise arithmetic with broadcasting, matrix products, ReLU, square
root, the mean, column concatenation and slicing, a row-wise max, and a
merge of two row subsets. Operands that are plain ndarrays or python
scalars are treated as constants and receive no gradient.
"""

import numpy as np

from .errors import NumericError


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _data(x):
    return x.data if isinstance(x, Tensor) else x


class Tensor:
    """An ndarray plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # Keep numpy from absorbing mixed expressions into object arrays, so
    # ndarray + Tensor falls back to the reflected Tensor operators.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        out._parents = tuple(p for p in parents if isinstance(p, Tensor))
        out._backward = backward
        return out

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
        else:
            self.grad += g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        od = _data(other)
        out_data = self.data + od

        def backward(g, a=self, b=other, ashape=self.data.shape, bshape=np.shape(od)):
            a._accumulate(_unbroadcast(g, ashape))
            if isinstance(b, Tensor):
                b._accumulate(_unbroadcast(g, bshape))

        return Tensor._node(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        od = _data(other)
        out_data = self.data - od

        def backward(g, a=self, b=other, ashape=self.data.shape, bshape=np.shape(od)):
            a._accumulate(_unbroadcast(g, ashape))
            if isinstance(b, Tensor):
                b._accumulate(_unbroadcast(-g, bshape))

        return Tensor._node(out_data, (self, other), backward)

    def __rsub__(self, other):
        od = _data(other)
        out_data = od - self.data

        def backward(g, a=self, ashape=self.data.shape):
            a._accumulate(_unbroadcast(-g, ashape))

        return Tensor._node(out_data, (self,), backward)

    def __mul__(self, other):
        od = _data(other)
        out_data = self.data * od

        def backward(g, a=self, b=other, ad=self.data, bd=od):
            a._accumulate(_unbroadcast(g * bd, ad.shape))
            if isinstance(b, Tensor):
                b._accumulate(_unbroadcast(g * ad, np.shape(bd)))

        return Tensor._node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def matmul(self, other):
        od = _data(other)
        out_data = self.data @ od

        def backward(g, a=self, b=other, ad=self.data, bd=od):
            a._accumulate(g @ bd.T)
            if isinstance(b, Tensor):
                b._accumulate(ad.T @ g)

        return Tensor._node(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- nonlinearities ----------------------------------------------------

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(g, a=self, od=out_data):
            a._accumulate(g * (od > 0.0))

        return Tensor._node(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g, a=self, od=out_data):
            a._accumulate(g / (2.0 * od))

        return Tensor._node(out_data, (self,), backward)

    def square(self):
        def backward(g, a=self, ad=self.data):
            a._accumulate(g * (2.0 * ad))

        return Tensor._node(self.data * self.data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def mean(self, axis=None, keepdims=False):
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size if axis is None else self.data.shape[axis]

        def backward(g, a=self, ax=axis, kd=keepdims, shape=self.data.shape, n=count):
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            a._accumulate(np.broadcast_to(g, shape) / n)

        return Tensor._node(out_data, (self,), backward)

    def max_rows(self):
        """Row-wise maximum of a 2-D tensor; gradient flows to the argmax."""
        idx = np.argmax(self.data, axis=1)
        rows = np.arange(self.data.shape[0])
        out_data = self.data[rows, idx]

        def backward(g, a=self, rows=rows, idx=idx, shape=self.data.shape):
            gx = np.zeros(shape)
            gx[rows, idx] = g
            a._accumulate(gx)

        return Tensor._node(out_data, (self,), backward)

    # -- shape ops -----------------------------------------------------------

    def __getitem__(self, key):
        out_data = self.data[key]
        parts = key if isinstance(key, tuple) else (key,)
        fancy = any(isinstance(k, (np.ndarray, list)) for k in parts)

        def backward(g, a=self, key=key, shape=self.data.shape, fancy=fancy):
            gx = np.zeros(shape)
            if fancy:
                np.add.at(gx, key, g)  # an index array may repeat an entry
            else:
                gx[key] = g
            a._accumulate(gx)

        return Tensor._node(out_data, (self,), backward)

    # -- reverse pass ----------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this node into all requires_grad leaves.

        Intermediate gradients and tape entries are released as the walk
        proceeds, so peak memory stays near the forward tape's size.
        """
        if not np.all(np.isfinite(self.data)):
            raise NumericError("backward called on a non-finite tensor")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            if not node.requires_grad:
                node.grad = None


def concat_cols(parts):
    """Concatenate 2-D blocks along axis 1; constants may be ndarrays."""
    datas = [_data(p) for p in parts]
    out_data = np.concatenate(datas, axis=1)
    widths = [d.shape[1] for d in datas]
    offsets = np.cumsum([0] + widths)

    def backward(g, parts=parts, offsets=offsets):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Tensor):
                p._accumulate(g[:, lo:hi])

    return Tensor._node(out_data, tuple(parts), backward)


def affine_relu(x, w, b):
    """Fused relu(x @ w + b); one tape node and one stored array per layer."""
    xd = _data(x)
    out_data = xd @ _data(w)
    out_data += _data(b)
    np.maximum(out_data, 0.0, out=out_data)

    def backward(g, x=x, w=w, b=b, xd=xd, wd=_data(w), od=out_data):
        gz = g * (od > 0.0)
        if isinstance(x, Tensor):
            x._accumulate(gz @ wd.T)
        if isinstance(w, Tensor):
            w._accumulate(xd.T @ gz)
        if isinstance(b, Tensor):
            b._accumulate(gz.sum(axis=0))

    return Tensor._node(out_data, (x, w, b), backward)


def merge_rows(ia, a, ib, b):
    """The batch whose rows ``ia`` are ``a`` and rows ``ib`` are ``b``; ndarrays merge off the tape."""
    out_data = np.empty((len(ia) + len(ib),) + _data(a).shape[1:])
    out_data[ia], out_data[ib] = _data(a), _data(b)
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return out_data

    def backward(g, a=a, b=b, ia=ia, ib=ib):
        for part, rows in ((a, ia), (b, ib)):
            if isinstance(part, Tensor):
                part._accumulate(g[rows])

    return Tensor._node(out_data, (a, b), backward)
