"""Independent references and comparators from scipy's ``solve_ivp``.

scipy is not a dependency of ieldtm: only the benchmark imports it, and only
outside every timed region and outside ``setup_s``.  DOP853 at rtol 1e-13 is
the accuracy reference for Van der Pol, which has no closed form.  Radau at
matched final error is a comparator printed by the traced run (Hairer &
Wanner, Solving ODEs II, section IV.10); it is neither a metric nor a gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_RTOL = 1e-13
RADAU_RTOLS = tuple(10.0 ** -e for e in range(4, 13))


def vdp_rhs(epsilon: float):
    def rhs(t, y):
        u, v = y
        return [v, -u + epsilon * (1.0 - u * u) * v]

    def jac(t, y):
        u, v = y
        return [[0.0, 1.0], [-1.0 - 2.0 * epsilon * u * v, epsilon * (1.0 - u * u)]]

    return rhs, jac


def robertson_rhs():
    """Right-hand side of ieldtm.problems.robertson_modified."""
    def rhs(t, y):
        x1, x2, x3 = y
        f = math.exp(-t)
        return [-0.04 * x1 + 1e4 * x2 * x3 - 0.96 * f,
                0.04 * x1 - 1e4 * x2 * x3 - 3e7 * x2 * x2 - 0.04 * f,
                3e7 * x2 * x2 + f]

    def jac(t, y):
        x1, x2, x3 = y
        return [[-0.04, 1e4 * x3, 1e4 * x2],
                [0.04, -1e4 * x3 - 6e7 * x2, -1e4 * x2],
                [0.0, 6e7 * x2, 0.0]]

    return rhs, jac


def vdp_dense(epsilon: float, t_final: float, initial):
    """Dense DOP853 solution of Van der Pol; a callable t -> (2, len(t))
    array."""
    rhs, _ = vdp_rhs(epsilon)
    sol = solve_ivp(rhs, (0.0, t_final), list(initial), method="DOP853",
                    rtol=REFERENCE_RTOL, atol=REFERENCE_RTOL, dense_output=True)
    if sol.status != 0:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.sol


def radau_matched(rhs, jac, initial, t_final: float, exact_final, target_error: float):
    """Loosest Radau tolerance on the ladder whose final-time error reaches
    ``target_error``; returns its figures, or the tightest run with
    ``matched`` false."""
    row = {}
    for rtol in RADAU_RTOLS:
        start = time.perf_counter()
        sol = solve_ivp(rhs, (0.0, t_final), list(initial), method="Radau",
                        rtol=rtol, atol=rtol, jac=jac)
        wall = time.perf_counter() - start
        err = float(np.abs(sol.y[:, -1] - exact_final).max())
        row = {"rtol": rtol, "final_error": err, "steps": len(sol.t) - 1,
               "nfev": sol.nfev, "njev": sol.njev, "nlu": sol.nlu,
               "wall_s": wall, "status": sol.status,
               "matched": sol.status == 0 and err <= target_error}
        if row["matched"]:
            break
    return row
