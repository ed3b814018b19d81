"""Coefficient-sequence algebra for local Taylor (differential transform) methods.

A node of the integration is its coefficient table: a plain array of
shape ``(depth+1, dim)`` whose row k is the scaled derivative
X(k) = x^(k)(t_i)/k! of the solution, so row 0 is the state.  The table does
not store t_i; whoever builds or reads it already holds that time.
Everything downstream (stepping, error control, stability evaluation) is
built from convolution products and truncated series evaluation of these
sequences.

Every sequence may carry a trailing batch axis: a table of shape
``(depth+1, dim, B)`` holds the expansions of B states about the same point,
and the products act column by column, so one table build serves B trial
states.  The products keep their inputs' dtype: complex tables stay complex.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cauchy_product", "triple_product", "horner_eval"]


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
    rows = np.zeros((n, 2 * n) + batch, dtype=np.result_type(a, b))
    rows[:, :n] = a[:, None] * b[None, :]
    skewed = rows.reshape((2 * n * n,) + batch)[: n * (2 * n - 1)]
    return skewed.reshape((n, 2 * n - 1) + batch)[:, :n].sum(axis=0)


def cauchy_product(a, b, k: int):
    """Convolution sum sum_{j=0}^{k} a(j) * b(k-j).

    This is the transform of a pointwise product of two series.  Sequences
    of shape ``(n,)`` give a scalar, ``(n, B)`` one value per batch column.
    Raises IndexError if either sequence is shorter than k+1.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] <= k or b.shape[0] <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    if a.ndim == 1:
        return np.dot(a[: k + 1], b[k::-1])
    return np.einsum("j...,j...->...", a[: k + 1], b[k::-1])


def triple_product(a, b, c, k: int):
    """Nested convolution sum_{l=0}^{k} sum_{n=0}^{l} a(n) b(l-n) c(k-l).

    Equals the Cauchy product applied twice; the transform of a*b*c.  Shapes
    as for cauchy_product.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    if a.shape[0] <= k or b.shape[0] <= k or c.shape[0] <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    ab = _series_product(a[: k + 1], b[: k + 1])
    if ab.ndim == 1:
        return np.dot(ab, c[k::-1])
    return np.einsum("j...,j...->...", ab, c[k::-1])


def horner_eval(table: np.ndarray, offset: float, order: int) -> np.ndarray:
    """Evaluate sum_{k=0}^{order} X(k) * offset^k componentwise, highest
    order first for stability."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order >= table.shape[0]:
        raise IndexError(
            f"order {order} exceeds stored coefficient depth {table.shape[0] - 1}"
        )
    acc = table[order].copy()
    for k in range(order - 1, -1, -1):
        acc *= offset
        acc += table[k]
    return acc
