"""Coefficient-sequence algebra for local Taylor (differential transform) methods.

A node of the integration carries the scaled derivatives X(k) = x^(k)(t_i)/k!
of the solution at its expansion point.  Everything downstream (stepping,
error control, stability evaluation) is built from convolution products and
truncated series evaluation of these sequences.

Every sequence may carry a trailing batch axis: a table of shape
``(depth+1, dim, B)`` holds the expansions of B states about the same point,
and the products act column by column, so one table build serves B trial
states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError

__all__ = ["CoeffTable", "cauchy_product", "triple_product", "horner_eval"]


@dataclass(frozen=True)
class CoeffTable:
    """Dense Taylor coefficients of one expansion node.

    ``coeffs[k]`` is X(k), of shape ``(dim,)`` or, for a batch of B states,
    ``(dim, B)``; ``coeffs[0]`` is the state itself.  Tables are values:
    never mutated after construction.
    """

    base_time: float
    coeffs: np.ndarray  # shape (depth+1, dim) or (depth+1, dim, B)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (2, 3) or min(c.shape) < 1:
            raise ValueError(
                "coeffs must be a (depth+1, dim) or (depth+1, dim, B) array "
                "with depth >= 0 and dim, B >= 1"
            )
        if not np.isfinite(c).all():
            raise NonFiniteStateError(
                f"non-finite Taylor coefficient at t = {self.base_time!r}"
            )
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def depth(self) -> int:
        """Highest stored coefficient index."""
        return self.coeffs.shape[0] - 1

    @property
    def state(self) -> np.ndarray:
        return self.coeffs[0]


def _series_product(a, b) -> np.ndarray:
    """The first n = len(a) coefficients of the series product a*b, column
    by column.

    A batch is convolved in one pass: the outer products a(i) b(j) fill the
    left half of an (n, 2n) array of zeros.  Read back as rows of width
    2n - 1, row i is shifted right by i, so entry (i, l) is a(i) b(l-i), or 0
    for l < i, and the sums over i are the convolution.
    """
    n = a.shape[0]
    if a.ndim == 1:
        return np.convolve(a, b)[:n]
    batch = a.shape[1:]
    rows = np.zeros((n, 2 * n) + batch)
    rows[:, :n] = a[:, None] * b[None, :]
    skewed = rows.reshape((2 * n * n,) + batch)[: n * (2 * n - 1)]
    return skewed.reshape((n, 2 * n - 1) + batch)[:, :n].sum(axis=0)


def cauchy_product(a, b, k: int):
    """Convolution sum sum_{j=0}^{k} a(j) * b(k-j).

    This is the transform of a pointwise product of two series.  Sequences
    of shape ``(n,)`` give a float, ``(n, B)`` one value per batch column.
    Raises IndexError if either sequence is shorter than k+1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] <= k or b.shape[0] <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    if a.ndim == 1:
        return float(np.dot(a[: k + 1], b[k::-1]))
    return np.einsum("j...,j...->...", a[: k + 1], b[k::-1])


def triple_product(a, b, c, k: int):
    """Nested convolution sum_{l=0}^{k} sum_{n=0}^{l} a(n) b(l-n) c(k-l).

    Equals the Cauchy product applied twice; the transform of a*b*c.  Shapes
    as for cauchy_product.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.shape[0] <= k or b.shape[0] <= k or c.shape[0] <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    ab = _series_product(a[: k + 1], b[: k + 1])
    if ab.ndim == 1:
        return float(np.dot(ab, c[k::-1]))
    return np.einsum("j...,j...->...", ab, c[k::-1])


def horner_eval(table: CoeffTable, offset: float, order: int) -> np.ndarray:
    """Evaluate sum_{k=0}^{order} X(k) * offset^k componentwise, highest
    order first for stability."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > table.depth:
        raise IndexError(
            f"order {order} exceeds stored coefficient depth {table.depth}"
        )
    c = table.coeffs
    acc = c[order].copy()
    for k in range(order - 1, -1, -1):
        acc *= offset
        acc += c[k]
    return acc
