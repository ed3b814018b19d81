"""Dense Newton solver with finite-difference Jacobian and partial-pivot LU.

Systems here are tiny (m <= 6), so the Jacobian is rebuilt every iteration
and factored densely.  Centred differences keep it accurate under strongly
scaled nonlinearities; the residual takes all 2m + 1 points they need (the
iterate and its +-h perturbations) as one batch, so each iteration's
Jacobian, and the first iteration's residual, cost one residual call.
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
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError("A must be n x n and b length n")
    row_scale = np.abs(A).sum(axis=1)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(A[col:, col])))
        if np.abs(A[pivot_row, col]) <= _PIVOT_REL_TOL * max(row_scale[pivot_row], 1e-300):
            raise SingularMatrixError(f"pivot underflow in column {col}")
        if pivot_row != col:
            A[[col, pivot_row]] = A[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
            row_scale[[col, pivot_row]] = row_scale[[pivot_row, col]]
        factors = A[col + 1:, col] / A[col, col]
        A[col + 1:, col + 1:] -= np.outer(factors, A[col, col + 1:])
        b[col + 1:] -= factors * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - np.dot(A[row, row + 1:], x[row + 1:])) / A[row, row]
    return x


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

    ``residual`` maps an ``(n,)`` point to its ``(n,)`` residual and an
    ``(n, B)`` stack of points, one per column, to the ``(n, B)`` stack of
    their residuals.

    Returns (root, iterations).  Converges when the residual inf-norm drops
    below abs_tol or the update inf-norm drops below step_tol * max(1, |y|).
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
    raise NewtonFailureError(
        f"no convergence in {cfg.max_iters} iterations "
        f"(last residual inf-norm {np.abs(r).max():.3e})"
    )
