"""Built-in ODE systems expressed as Taylor-coefficient recurrences.

Each problem supplies a ``recurrence(t_i, coeffs, k) -> X(k+1)`` that maps the
coefficients known through index k (an array of shape ``(k+1, dim)`` expanded
about ``t_i``) to the next scaled derivative.  Any user ODE can be added by
writing such a recurrence; the library does not derive recurrences from
closed-form right-hand sides automatically.

Recurrences must also accept a trailing batch axis: given ``coeffs`` of shape
``(k+1, dim, B)``, holding the expansions of B states, they return X(k+1) of
shape ``(dim, B)``, column b depending on column b alone.  The Newton solver
relies on it to build all its finite-difference points in one table.
Indexing ``coeffs[k]`` and ``coeffs[:, j]``, matrix products ``A @
coeffs[k]`` and ``cauchy_product``/``triple_product`` all keep the batch axis;
a term that is the same for every column (a forcing vector) must broadcast
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfigurationError
from .taylor import cauchy_product, triple_product

__all__ = [
    "ProblemDefinition",
    "SeirParams",
    "dahlquist",
    "linear_system",
    "seir",
    "duffing",
    "robertson_modified",
    "van_der_pol",
    "make_problem",
    "PROBLEM_NAMES",
]

Recurrence = Callable[[float, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class ProblemDefinition:
    """An initial value problem in differential-transform form.

    Immutable after construction; safe for concurrent use by multiple
    integrators.
    """

    name: str
    dim: int
    recurrence: Recurrence
    default_initial: np.ndarray
    exact_solution: Optional[Callable[[float], np.ndarray]] = None
    linear_matrix: Optional[np.ndarray] = None
    conserved_sum: Optional[float] = None
    discontinuities: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        init = np.asarray(self.default_initial, dtype=float)
        if init.shape != (self.dim,):
            raise ValueError("default_initial must have length dim")
        object.__setattr__(self, "default_initial", init)
        if self.linear_matrix is not None:
            a = np.asarray(self.linear_matrix, dtype=float)
            if a.shape != (self.dim, self.dim):
                raise ValueError("linear_matrix must be dim x dim")
            object.__setattr__(self, "linear_matrix", a)


def dahlquist(lam: float, x0: float = 1.0) -> ProblemDefinition:
    """Scalar test equation x' = lam * x with exact solution x0 * e^(lam t).

    Real lam only; complex arguments belong to the closed-form stability
    function, not the stepper.
    """
    lam = float(lam)

    def recurrence(t, coeffs, k):
        return lam * coeffs[k] / (k + 1)

    return ProblemDefinition(
        name="dahlquist",
        dim=1,
        recurrence=recurrence,
        default_initial=np.array([x0]),
        exact_solution=lambda t: np.array([x0 * math.exp(lam * t)]),
        linear_matrix=np.array([[lam]]),
    )


def linear_system(A, forcing=None, name: str = "linear",
                  default_initial=None, exact_solution=None) -> ProblemDefinition:
    """x' = A x + B(t) with ``forcing(t_i, k)`` the transform of B about t_i.

    For zero forcing the coefficients are X(k) = A^k X(0) / k!.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    m = A.shape[0]
    if default_initial is None:
        default_initial = np.ones(m)

    if forcing is None:
        def recurrence(t, coeffs, k):
            return A @ coeffs[k] / (k + 1)
    else:
        def recurrence(t, coeffs, k):
            out = A @ coeffs[k]
            f = np.asarray(forcing(t, k), dtype=float)
            return (out + f.reshape(f.shape + (1,) * (out.ndim - f.ndim))) / (k + 1)

    return ProblemDefinition(
        name=name,
        dim=m,
        recurrence=recurrence,
        default_initial=np.asarray(default_initial, dtype=float),
        exact_solution=exact_solution,
        linear_matrix=A if forcing is None else None,
    )


@dataclass(frozen=True)
class SeirParams:
    """Epidemic-model rates.  Defaults are the COVID-19 calibration of
    Li et al. (2020): transmission 1.12/day, latency 3.69 days, etc."""

    beta: float = 1.12
    mu: float = 0.55
    alpha: float = 0.14
    d1: float = 3.69
    d2: float = 3.47
    d3: float = 3.47
    p: float = 1.92
    N: float = 3e6
    eta: float = 1.0
    t_c: float = 66.0

    def __post_init__(self):
        if min(self.d1, self.d2, self.d3, self.p, self.N) <= 0:
            raise ValueError("d1, d2, d3, p, N must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.eta < 1.0:
            raise ValueError("eta must be >= 1")

    def beta_at(self, t: float) -> float:
        """Transmission rate used by the expansion starting at t.

        Steps launched at t >= t_c integrate over (t, t+dt] where the scaled
        rate applies, so the right limit is the faithful choice.
        """
        return self.beta * self.eta if t >= self.t_c else self.beta


def seir_matrix(params: SeirParams) -> np.ndarray:
    """Linear part of the compartment system, state order (S, E, P, A, D, R)."""
    d1, d2, d3, p, alpha = params.d1, params.d2, params.d3, params.p, params.alpha
    A = np.zeros((6, 6))
    A[1, 1] = -1.0 / d1
    A[2, 1] = alpha / d1
    A[2, 2] = -1.0 / d2
    A[3, 1] = (1.0 - alpha) / d1
    A[3, 3] = -1.0 / d3
    A[4, 2] = 1.0 / d2
    A[4, 4] = -1.0 / p
    A[5, 4] = 1.0 / p
    A[5, 3] = 1.0 / d3
    # R row has no R term; each column sums to zero so the total population
    # is conserved at the coefficient level.
    return A


def seir(params: SeirParams | None = None) -> ProblemDefinition:
    """Six-compartment epidemic system with a bilinear infection term and an
    optional transmission-rate jump at t_c (stiffness scaling eta)."""
    if params is None:
        params = SeirParams()
    A = seir_matrix(params)
    inv_N = 1.0 / params.N
    mu = params.mu

    def recurrence(t, coeffs, k):
        s = coeffs[:, 0]
        infectious = coeffs[:, 2] + coeffs[:, 4] + mu * coeffs[:, 3]
        conv = cauchy_product(s, infectious, k)
        lam = params.beta_at(t) * inv_N * conv
        out = A @ coeffs[k]
        out[0] -= lam
        out[1] += lam
        return out / (k + 1)

    disc = (params.t_c,) if params.eta != 1.0 else ()
    initial = np.array([params.N - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    return ProblemDefinition(
        name="seir",
        dim=6,
        recurrence=recurrence,
        default_initial=initial,
        conserved_sum=params.N,
        discontinuities=disc,
    )


_LOGISTIC_PARAMS = (-3.0, 2.0, -2.0)


def duffing(alpha: float = -3.0, beta: float = 2.0, gamma: float = -2.0) -> ProblemDefinition:
    """Cubic oscillator x'' + alpha x' + beta x + gamma x^3 = 0 as a first
    order system (x, x').

    For (alpha, beta, gamma) = (-3, 2, -2) the logistic function
    1/(1 + e^(-t)) is an exact solution from (0.5, 0.25).
    """
    A = np.array([[0.0, 1.0], [-beta, -alpha]])

    def recurrence(t, coeffs, k):
        x1 = coeffs[:, 0]
        cubic = triple_product(x1, x1, x1, k)
        out = A @ coeffs[k]
        out[1] -= gamma * cubic
        return out / (k + 1)

    exact = None
    if (alpha, beta, gamma) == _LOGISTIC_PARAMS:
        def exact(t):
            x = 1.0 / (1.0 + math.exp(-t))
            return np.array([x, x * (1.0 - x)])

    return ProblemDefinition(
        name="duffing",
        dim=2,
        recurrence=recurrence,
        default_initial=np.array([0.5, 0.25]),
        exact_solution=exact,
    )


def robertson_modified() -> ProblemDefinition:
    """Modified Robertson chemical system with forcing terms proportional to
    e^(-t); exact solution (e^(-t), 0, 1 - e^(-t)).

    The forcing transform about t_i is e^(-t_i) (-1)^k / k! (alternating sign
    from differentiating e^(-t)).
    """

    def recurrence(t, coeffs, k):
        x1, x2, x3 = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
        q23 = cauchy_product(x2, x3, k)
        q22 = cauchy_product(x2, x2, k)
        f = math.exp(-t) * (-1.0 if k % 2 else 1.0) / math.factorial(k)
        out = np.array([
            -0.04 * x1[k] + 1e4 * q23 - 0.96 * f,
            0.04 * x1[k] - 1e4 * q23 - 3e7 * q22 - 0.04 * f,
            3e7 * q22 + f,
        ])
        return out / (k + 1)

    def exact(t):
        e = math.exp(-t)
        return np.array([e, 0.0, 1.0 - e])

    return ProblemDefinition(
        name="robertson",
        dim=3,
        recurrence=recurrence,
        default_initial=np.array([1.0, 0.0, 0.0]),
        exact_solution=exact,
    )


def van_der_pol(epsilon: float = 10.0) -> ProblemDefinition:
    """Van der Pol oscillator U' = V, V' = -U + eps (1 - U^2) V; stiffness
    grows with eps."""
    eps = float(epsilon)
    A = np.array([[0.0, 1.0], [-1.0, eps]])

    def recurrence(t, coeffs, k):
        u, v = coeffs[:, 0], coeffs[:, 1]
        out = A @ coeffs[k]
        out[1] -= eps * triple_product(u, u, v, k)
        return out / (k + 1)

    return ProblemDefinition(
        name="vanderpol",
        dim=2,
        recurrence=recurrence,
        default_initial=np.array([2.0, 0.0]),
    )


PROBLEM_NAMES = ("dahlquist", "duffing", "robertson", "vanderpol", "seir")


def make_problem(name: str, **params) -> ProblemDefinition:
    """CLI-facing problem factory; unknown names raise
    InvalidConfigurationError."""
    if name == "dahlquist":
        return dahlquist(params.get("lam", -1.0))
    if name == "duffing":
        return duffing(params.get("alpha", -3.0), params.get("beta", 2.0),
                       params.get("gamma", -2.0))
    if name == "robertson":
        return robertson_modified()
    if name == "vanderpol":
        return van_der_pol(params.get("epsilon", 10.0))
    if name == "seir":
        keys = ("beta", "mu", "alpha", "d1", "d2", "d3", "p", "N", "eta", "t_c")
        kwargs = {k: params[k] for k in keys if k in params and params[k] is not None}
        return seir(SeirParams(**kwargs))
    raise InvalidConfigurationError(
        f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
    )
