"""Acceptance gate: eight criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` to see one line per
criterion; each test prints a summary line with the measured values.
The Van der Pol criterion integrates to T = 1000 and takes about 10 s;
everything else completes in seconds.  The paper tables' rows come from the
shared ``paper_rows`` cache (conftest.py), which the golden oracle reads
too.
"""

import math

import numpy as np

from ieldtm.bench import (
    order_sweep_rows,
    seir_sweep_rows,
    table4_rows,
    table5_rows,
)
from ieldtm.problems import dahlquist, duffing, linear_system, seir
from ieldtm.stability import is_A_stable, is_L_stable, matrix_R
from ieldtm.stepper import (
    AdaptiveStep,
    FixedStep,
    SchemeConfig,
    build_coeff_table,
    integrate,
)


def report(number, label, detail):
    print(f"CRITERION {number} PASS ({label}): {detail}")


def test_criterion_1_convergence_orders(paper_rows):
    """Observed order matches the K / K+1 rule within 0.5 for all 18 cells."""
    # Two step sizes per regime: dt = 0.05 keeps low orders asymptotic while
    # dt = 0.1 keeps the order-6 errors above the round-off floor.  The
    # dt = 0.05 rows are the order-sweep command's, read at K <= 4.
    rows = ([r for r in paper_rows(order_sweep_rows, dt=0.05)[1] if r["K"] <= 4]
            + order_sweep_rows(dt=0.1, orders=range(5, 7))[1])
    worst = 0.0
    for row in rows:
        assert row["status"] == "ok", f"theta={row['theta']} K={row['K']}: {row['status']}"
        deviation = abs(row["observed"] - row["theory"])
        worst = max(worst, deviation)
        assert deviation <= 0.5, (
            f"theta={row['theta']} K={row['K']}: observed {row['observed']:.2f} "
            f"vs theory {row['theory']}")
    report(1, "convergence orders", f"18 cells, worst deviation {worst:.3f}")


def test_criterion_2_robertson_accuracy(paper_rows):
    """Fixed-step central errors on the Robertson system at t = 4."""
    rows = {(r["K"], r["dt_exponent"]): r for r in paper_rows(table4_rows)[1]}
    coarse = rows[(3, 5)]
    fine = rows[(5, 7)]
    assert coarse["status"] == "completed" and fine["status"] == "completed"
    assert coarse["max_error"] <= 2.7e-9, coarse
    assert fine["max_error"] <= 1e-12, fine
    report(2, "Robertson accuracy",
           f"K=3 dt=2^-5: {coarse['max_error']:.2e} (<= 2.7e-9); "
           f"K=5 dt=2^-7: {fine['max_error']:.2e} (<= 1e-12)")


def test_criterion_3_duffing_adaptive():
    """Adaptive central runs on the cubic oscillator, tol = 1e-10, t_f = 1."""
    prob = duffing()
    bounds = {3: (102, 7.9e-10), 5: (18, 2.4e-9)}
    details = []
    for order, (max_steps, max_err) in bounds.items():
        cfg = SchemeConfig(0.5, order, AdaptiveStep(1e-10))
        trace = integrate(prob, cfg, 1.0)
        err = trace.max_error(prob.exact_solution)
        assert trace.status == "completed"
        assert trace.steps <= max_steps, (order, trace.steps)
        assert err <= max_err, (order, err)
        details.append(f"K={order}: {trace.steps} steps, err {err:.2e}")
    report(3, "Duffing adaptive", "; ".join(details))


def test_criterion_4_van_der_pol_step_counts(paper_rows):
    """Adaptive central step counts: bounded at (eps=10, T=100, K=5) and
    non-increasing in K for every (eps, T) pair."""
    # The cases of ``table5 --quick``, then the one it skips.
    rows = (paper_rows(table5_rows, quick=True)[1]
            + table5_rows(cases=((100.0, 1000.0),))[1])
    by_case = {}
    for row in rows:
        assert row["status"] == "completed", row
        by_case.setdefault((row["epsilon"], row["t_final"]), []).append(
            (row["K"], row["steps"]))
    anchor = dict(by_case[(10.0, 100.0)])[5]
    assert anchor <= 10678, anchor
    for case, pairs in by_case.items():
        counts = [steps for _, steps in sorted(pairs)]
        assert counts == sorted(counts, reverse=True) or \
            all(a >= b for a, b in zip(counts, counts[1:])), (case, counts)
    report(4, "Van der Pol step counts",
           f"(eps=10, T=100, K=5): {anchor} steps (<= 10678); "
           f"counts non-increasing in K for {len(by_case)} cases")


def test_criterion_5_stability_certificates():
    """A-/L-stability classification of the special cases."""
    for theta, order in [(0.5, 1), (0.5, 2), (0.5, 3), (0.5, 4),
                         (1.0, 1), (1.0, 2)]:
        stable, _ = is_A_stable(theta, order)
        assert stable, (theta, order)
    for order in range(1, 7):
        stable, witness = is_A_stable(0.0, order)
        assert not stable and witness is not None, order
    assert is_L_stable(1.0, 1) and is_L_stable(1.0, 2)
    for order in range(1, 5):
        assert not is_L_stable(0.5, order), order
    report(5, "stability certificates",
           "A-stable: central K=1..4, backward K=1..2; forward all unstable "
           "with witnesses; L-stable: backward K=1..2 only")


def test_criterion_6_linear_consistency():
    """One implicit step equals the matrix stability propagator to 1e-12
    relative on 100 random linear systems."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, m))
        # Shift the spectrum left so every (theta, K) step is well posed.
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(m)
        prob = linear_system(A)
        x0 = rng.normal(size=m)
        theta = float(rng.choice([0.5, 1.0]))
        order = int(rng.integers(1, 6))
        dt = 0.1
        cfg = SchemeConfig(theta, order, FixedStep(dt))
        y = integrate(prob, cfg, dt, x0).final_state
        ref = matrix_R(theta, dt * A, order) @ x0
        rel = np.abs(y - ref).max() / max(np.abs(ref).max(), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-12, (theta, order, rel)
    report(6, "linear consistency", f"100 systems, worst relative {worst:.2e}")


def test_criterion_7_seir_structure(paper_rows):
    """Coefficient-level population conservation plus step-count flatness of
    the eta sweep (K=8, tol=1e-5, t_c=66)."""
    prob = seir()
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = rng.uniform(0.0, 1.0, 6)
        state *= 3e6 / state.sum()
        table = np.array(build_coeff_table(prob, rng.uniform(0.0, 100.0),
                                           state.tolist(), 10)).T
        assert np.abs(table[1:].sum(axis=1)).max() <= 1e-9 * 3e6
    rows = [r for r in paper_rows(seir_sweep_rows)[1] if r["K"] == 8]
    assert all(r["status"] == "completed" for r in rows)
    counts = [r["steps"] for r in rows]
    ratio = max(counts) / min(counts)
    assert ratio <= 1.5, counts
    report(7, "SEIR structure",
           f"coefficient sums conserved to 1e-9*N; K=8 eta-sweep step ratio "
           f"{ratio:.2f} (<= 1.5)")


def test_criterion_8_classical_scheme_recovery():
    """(theta, K) = (0,1), (1,1), (0.5,1) are forward Euler, backward Euler
    and the trapezoidal rule, exactly, on the Dahlquist problem."""
    lam, dt, n = -2.0, 0.1, 10
    z = lam * dt
    prob = dahlquist(lam)
    amplification = {
        (0.0, "forward Euler"): 1.0 + z,
        (1.0, "backward Euler"): 1.0 / (1.0 - z),
        (0.5, "trapezoidal"): (1.0 + z / 2.0) / (1.0 - z / 2.0),
    }
    for (theta, name), amp in amplification.items():
        cfg = SchemeConfig(theta, 1, FixedStep(dt))
        trace = integrate(prob, cfg, n * dt)
        classical = np.array([amp ** j for j in range(n + 1)])
        deviation = np.abs(trace.states[:, 0] - classical).max()
        assert deviation <= 5 * np.finfo(float).eps, (name, deviation)
    report(8, "classical scheme recovery",
           "forward/backward Euler and trapezoidal rule reproduced to "
           "machine precision")
