"""Dense Newton solver with finite-difference Jacobian and partial-pivot LU.

Systems here are tiny (m <= 6), so the Jacobian is rebuilt every iteration
and factored densely.  Centred differences keep it accurate under strongly
scaled nonlinearities; the residual takes all 2m + 1 points they need (the
iterate and its +-h perturbations) as one batch, so each iteration's
Jacobian, and the first iteration's residual, cost one residual call.  The
residual is called with float arrays only: an ``(m,)`` point or that
``(m, 2m + 1)`` batch.  The LU runs on Python floats: at m <= 6 a numpy call
per pivot, swap and row update costs more than the arithmetic it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailureError, SingularMatrixError

__all__ = ["NewtonConfig", "newton_solve", "lu_solve"]

_PIVOT_REL_TOL = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-12        # residual inf-norm threshold
    step_tol: float = 1e-13       # update inf-norm threshold, relative to state scale
    max_iters: int = 25
    fd_epsilon: float = 1e-7      # Jacobian perturbation scale
    damping: bool = True          # halving line-search on residual increase
    max_halvings: int = 8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.step_tol <= 0 or self.fd_epsilon <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def lu_solve(A, b) -> np.ndarray:
    """Solve A x = b by partial-pivot LU elimination.

    Raises SingularMatrixError when a pivot falls below 1e-14 times the
    inf-norm of its row.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError("A must be n x n and b length n")
    a, b = A.tolist(), b.tolist()
    row_scale = [sum(map(abs, row)) for row in a]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        pivot = a[pivot_row][col]
        if abs(pivot) <= _PIVOT_REL_TOL * max(row_scale[pivot_row], 1e-300):
            raise SingularMatrixError(f"pivot underflow in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
        upper = a[col]
        for i in range(col + 1, n):
            row = a[i]
            f = row[col] / pivot
            for j in range(col + 1, n):
                row[j] -= f * upper[j]
            b[i] -= f * b[col]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        # np.dot, not a Python sum: a BLAS dot may fuse its multiply-adds,
        # and the solution keeps the bits of the all-numpy elimination.
        x[i] = (b[i] - float(np.dot(a[i][i + 1:], x[i + 1:]))) / a[i][i]
    return np.array(x)


def _residual_and_jacobian(residual, y, eps):
    """r(y) and the central-difference Jacobian from one batched residual
    call on the points [y, y + h_j e_j, y - h_j e_j], h_j = eps max(1, |y_j|).

    Centred differences cancel quadratic terms exactly; with strongly scaled
    nonlinearities (e.g. 3e7 x^2 reaction terms at |x| ~ 1e-15) forward
    differences pick up enough curvature error to degrade Newton to slow
    linear convergence.
    """
    n = y.shape[0]
    h = eps * np.maximum(1.0, np.abs(y))
    points = np.repeat(y[:, None], 2 * n + 1, axis=1)
    cols = np.arange(n)
    points[cols, 1 + cols] += h
    points[cols, 1 + n + cols] -= h
    r = np.asarray(residual(points), dtype=float)
    return r[:, 0], (r[:, 1:n + 1] - r[:, n + 1:]) / (2.0 * h)


def newton_solve(residual, guess, cfg: NewtonConfig | None = None):
    """Root-find residual(y) = 0 starting from guess.

    ``residual`` is only ever called with float arrays: it maps an ``(n,)``
    point to its ``(n,)`` residual and an ``(n, B)`` stack of points, one per
    column, to the ``(n, B)`` stack of their residuals.

    Returns (root, iterations).  Converges when the residual inf-norm drops
    below abs_tol or the update inf-norm drops below step_tol * max(1, |y|);
    after the last iteration, a residual at or below abs_tol is accepted.
    """
    if cfg is None:
        cfg = NewtonConfig()
    y = np.array(guess, dtype=float)
    r, J = _residual_and_jacobian(residual, y, cfg.fd_epsilon)
    # Accept at abs_tol only once quadratic progress has stalled: while the
    # residual is still collapsing by orders of magnitude per step, one more
    # (cheap) iteration buys the round-off floor instead of an O(abs_tol)
    # defect frozen into the returned state.
    floor = 100.0 * np.finfo(float).eps * max(1.0, np.abs(y).max())
    prev_norm = np.inf
    for it in range(1, cfg.max_iters + 1):
        r_norm = np.abs(r).max()
        if r_norm <= floor:
            return y, it - 1
        if r_norm <= cfg.abs_tol and r_norm > 0.25 * prev_norm:
            return y, it - 1
        prev_norm = r_norm
        if it > 1:
            _, J = _residual_and_jacobian(residual, y, cfg.fd_epsilon)
        delta = lu_solve(J, -r)
        alpha = 1.0
        y_new = y + delta
        r_new = np.asarray(residual(y_new), dtype=float)
        if cfg.damping:
            halvings = 0
            while (not np.isfinite(r_new).all() or np.abs(r_new).max() > r_norm) \
                    and halvings < cfg.max_halvings:
                alpha *= 0.5
                halvings += 1
                y_new = y + alpha * delta
                r_new = np.asarray(residual(y_new), dtype=float)
        y, r = y_new, r_new
        scale = max(1.0, np.abs(y).max())
        if alpha * np.abs(delta).max() <= cfg.step_tol * scale:
            return y, it
    if np.abs(r).max() <= cfg.abs_tol:
        return y, cfg.max_iters
    raise NewtonFailureError(
        f"no convergence in {cfg.max_iters} iterations "
        f"(last residual inf-norm {np.abs(r).max():.3e})"
    )
