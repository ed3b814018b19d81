"""Coefficient-sequence algebra for local Taylor (differential transform) methods.

A node of the integration is its coefficient table: a list of ``dim``
per-component lists, where ``table[j][k]`` is the scaled derivative
X_j(k) = x_j^(k)(t_i)/k! of the solution, so ``table[j][0]`` is the state.
The table does not store t_i; whoever builds or reads it already holds that
time.  ``stepper.build_coeff_table`` returns the problem's auxiliary series
after these lists (see ``problems``); readers pass ``table[:dim]``, so
everything here reads state lists only.
Everything downstream (stepping, error control, stability
evaluation) is built from convolution products and truncated series
evaluation of these sequences.

The systems are tiny (m <= 6, K <= 11), so the sequences are plain Python
lists of floats, or of complex numbers for the complex-step Jacobian: at
these sizes a numpy call costs more than the arithmetic it does.  The
products keep their inputs' type: complex sequences give complex values.
"""

from __future__ import annotations

from operator import mul

__all__ = ["cauchy_product", "horner_eval"]


def cauchy_product(a, b, k: int):
    """Convolution sum sum_{j=0}^{k} a(j) * b(k-j).

    This is the transform of a pointwise product of two series.  Raises
    IndexError if either sequence is shorter than k+1.
    """
    if len(a) <= k or len(b) <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    return sum(map(mul, a[: k + 1], b[k::-1]))


def horner_eval(table, offset: float, order: int) -> list:
    """Evaluate sum_{k=0}^{order} X_j(k) * offset^k for every component j,
    highest order first for stability."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order >= len(table[0]):
        raise IndexError(
            f"order {order} exceeds stored coefficient depth {len(table[0]) - 1}"
        )
    values = []
    for col in table:
        acc = col[order]
        for k in range(order - 1, -1, -1):
            acc = acc * offset + col[k]
        values.append(acc)
    return values
