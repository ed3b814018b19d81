"""Built-in ODE systems expressed as Taylor-coefficient recurrences.

A coefficient table is the ``dim`` state series of one state expanded about
``t_i`` (its layout is in ``stepper.build_coeff_table``).  Each problem
supplies a ``recurrence(t_i, table, depth)`` that is handed ``dim`` lists,
each holding X(0), appends X(1), ..., X(depth) to each, and returns nothing.
Any user ODE can be added by writing such a recurrence; the library does not
derive recurrences from closed-form right-hand sides automatically.

At index k each state list holds exactly k+1 entries until the recurrence
appends to it.  So a Cauchy product sum_j a(j) b(k-j) reads whole lists,
with no slice copied, taken before either list is appended at k.  The series
of an intermediate product, such as U^2 in U^2 V, is a local list the
recurrence appends to at k before the products that read it, so each index
costs one convolution per product instead of recomputing the product's
prefix.  A user recurrence may take a product as
``sum(map(mul, a, reversed(b)))``.  The built-in recurrences take every
product as ``conv[k](a, b)`` from ``conv = _cauchy_products(depth)``: entry
k adds a(0) b(k), ..., a(k) b(0) to 0.0 in that order, one plain addition at
a time, written out as one expression below ``_UNROLL_LIMIT`` and as a
``reduce`` from it on.  So the tables do not depend on the interpreter:
``sum()`` compensates float sums from Python 3.12 on, and no built-in
recurrence calls it.  The written-out entries take 0.2-0.5 of the ``sum()``
form's time at k <= 4 and 0.7-0.98 of it at k = 32-95, and make its
additions on CPython 3.11 (only the sign of a nan can differ where two nans
of opposite sign meet).

Recurrences must be complex-analytic: the Newton solver builds tables whose
coefficients are complex numbers (its complex-step Jacobian), and these must
give the complex X(k+1) of the same formula.  So no ``abs``, ``max``,
comparisons or ``float()`` on coefficients; sums, products and Cauchy
products of coefficient lists keep the type.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral, Real
from operator import add, mul
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProblemDefinition",
    "dahlquist",
    "linear_system",
    "seir",
    "duffing",
    "robertson_modified",
    "van_der_pol",
    "make_problem",
    "PROBLEM_NAMES",
]

Recurrence = Callable[[float, list, int], None]


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
    discontinuities: tuple = ()

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, Integral):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        # A nan would never clip a step: every comparison with it is false.
        for t_d in self.discontinuities:
            if (isinstance(t_d, bool) or not isinstance(t_d, Real)
                    or not math.isfinite(t_d)):
                raise ValueError(
                    f"discontinuities must be finite real numbers, got {t_d!r}")
        init = np.asarray(self.default_initial, dtype=float)
        if init.shape != (self.dim,):
            raise ValueError("default_initial must have length dim")
        object.__setattr__(self, "default_initial", init)


# Index from which conv[k] is the shared _sum_product instead of a
# written-out expression.  Timed on CPython 3.11 (2-vCPU Xeon VM), the
# expression takes 0.68-0.78 of sum()'s time on float products at k = 32-64
# and 0.89 at k = 128, but 0.98-1.02 on complex products (the complex-step
# tables) from k = 80 to 128; _sum_product's reduce takes about twice
# sum()'s time (9.5 against 4.9 us on float products at k = 120), a cost
# only orders above 95 pay.  Generating entries 0..k costs O(k^2): 0.03 s
# through 95.
_UNROLL_LIMIT = 96
# conv[k] for every k built so far.  Extended by replacing the tuple, never
# by changing it, so a thread that extends it concurrently with another
# still returns a tuple whose entry k is the product at index k.
_products = ()


def _sum_product(a, b):
    """The Cauchy product at index n - 1 of two lists of n entries, added
    to 0.0 from the left: entry k of every index k from _UNROLL_LIMIT on."""
    return reduce(add, map(mul, a, reversed(b)), 0.0)


def _unrolled_product(k: int):
    """The Cauchy product at index k written out: ``0.0 + a[0] * b[k] +
    ... + a[k] * b[0]``.  The leading 0.0 is _sum_product's start, so a sum
    of -0.0 terms is 0.0 as there."""
    terms = " + ".join(f"a[{j}] * b[{k - j}]" for j in range(k + 1))
    namespace = {}
    exec(f"def product(a, b):\n    return 0.0 + {terms}\n", namespace)
    return namespace["product"]


def _cauchy_products(depth: int) -> tuple:
    """A tuple whose entry k, for every k <= depth, maps two lists holding
    k+1 entries each to their Cauchy product at index k, sum_j a(j) b(k-j),
    added to 0.0 from j = 0 one plain addition at a time, at every k.
    Entries are generated on first use and cached."""
    global _products
    products = _products
    if len(products) <= depth:
        start = len(products)
        products = products + tuple(
            _unrolled_product(k) if k < _UNROLL_LIMIT else _sum_product
            for k in range(start, depth + 1))
        _products = products
    return products


def _finite(**params) -> list:
    """The parameters as floats; ValueError names the first non-finite one."""
    values = []
    for name, value in params.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        values.append(value)
    return values


def dahlquist(lam: float = -1.0, x0: float = 1.0) -> ProblemDefinition:
    """Scalar test equation x' = lam * x with exact solution x0 * e^(lam t).

    Real lam only; complex arguments belong to the closed-form stability
    function, not the stepper.
    """
    lam, x0 = _finite(lam=lam, x0=x0)

    def recurrence(t, table, depth):
        x, = table
        for k in range(depth):
            x.append(lam * x[k] / (k + 1))

    def exact(t):
        try:
            return np.array([x0 * math.exp(lam * t)])
        except OverflowError:  # e^(lam t) past the float range; 0 stays 0
            return np.array([x0 * math.inf if x0 else x0])

    return ProblemDefinition(
        name="dahlquist",
        dim=1,
        recurrence=recurrence,
        default_initial=np.array([x0]),
        exact_solution=exact,
    )


def linear_system(A, forcing=None, name: str = "linear",
                  default_initial=None, exact_solution=None) -> ProblemDefinition:
    """x' = A x + B(t) with ``forcing(t_i, k)`` the transform of B about t_i.

    For zero forcing the coefficients are X(k) = A^k X(0) / k!.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    m = A.shape[0]
    if default_initial is None:
        default_initial = np.ones(m)
    rows = A.tolist()
    if forcing is None:
        zeros = [0.0] * m
        forcing = lambda t, k: zeros
    elif len(list(forcing(0.0, 0))) != m:
        raise ValueError(f"forcing must give {m} values, one per component")

    def recurrence(t, table, depth):
        for k in range(depth):
            x = [col[k] for col in table]
            for col, row, f in zip(table, rows, forcing(t, k)):
                col.append((reduce(add, map(mul, row, x), 0.0) + float(f))
                           / (k + 1))

    return ProblemDefinition(
        name=name,
        dim=m,
        recurrence=recurrence,
        default_initial=np.asarray(default_initial, dtype=float),
        exact_solution=exact_solution,
    )


def seir(*, beta: float = 1.12, mu: float = 0.55, alpha: float = 0.14,
         d1: float = 3.69, d2: float = 3.47, d3: float = 3.47, p: float = 1.92,
         N: float = 3e6, eta: float = 1.0, t_c: float = 66.0) -> ProblemDefinition:
    """Six-compartment epidemic system with a bilinear infection term and an
    optional transmission-rate jump to eta * beta at t_c.  The defaults are
    the COVID-19 calibration of Li et al. (2020): transmission 1.12/day,
    latency 3.69 days, etc."""
    # A nan t_c would silently never switch (t >= nan is false).
    beta, mu, alpha, d1, d2, d3, p, N, eta, t_c = _finite(
        beta=beta, mu=mu, alpha=alpha, d1=d1, d2=d2, d3=d3, p=p, N=N, eta=eta,
        t_c=t_c)
    if min(d1, d2, d3, p, N) <= 0:
        raise ValueError("d1, d2, d3, p, N must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if eta < 1.0:
        raise ValueError("eta must be >= 1")
    # Rates of the linear compartment flows, state order (S, E, P, A, D, R):
    # whatever leaves one compartment enters another, so the population is
    # conserved at the coefficient level.
    r_e, r_p, r_a, r_d = 1.0 / d1, 1.0 / d2, 1.0 / d3, 1.0 / p
    e_to_p, e_to_a = alpha / d1, (1.0 - alpha) / d1
    inv_N = 1.0 / N

    def recurrence(t, table, depth):
        s, e, p, a, d, r = table
        # Steps launched at t >= t_c integrate over (t, t+dt] where the
        # scaled rate applies, so the right limit is the faithful choice.
        rate = (beta * eta if t >= t_c else beta) * inv_N
        # The series of P + D + mu A, appended at k, so the infection term
        # S * (P + D + mu A) is one Cauchy product.
        w = []
        conv = _cauchy_products(depth)
        for k in range(depth):
            ek, pk, ak, dk = e[k], p[k], a[k], d[k]
            w.append(pk + dk + mu * ak)
            lam = rate * conv[k](s, w)
            n = k + 1
            s.append(-lam / n)
            e.append((-r_e * ek + lam) / n)
            p.append((e_to_p * ek - r_p * pk) / n)
            a.append((e_to_a * ek - r_a * ak) / n)
            d.append((r_p * pk - r_d * dk) / n)
            r.append((r_a * ak + r_d * dk) / n)

    disc = (t_c,) if eta != 1.0 else ()
    initial = np.array([N - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    return ProblemDefinition(
        name="seir",
        dim=6,
        recurrence=recurrence,
        default_initial=initial,
        discontinuities=disc,
    )


_LOGISTIC_PARAMS = (-3.0, 2.0, -2.0)


def duffing(alpha: float = -3.0, beta: float = 2.0, gamma: float = -2.0) -> ProblemDefinition:
    """Cubic oscillator x'' + alpha x' + beta x + gamma x^3 = 0 as a first
    order system (x, x').

    For (alpha, beta, gamma) = (-3, 2, -2) the logistic function
    1/(1 + e^(-t)) is an exact solution from (0.5, 0.25).
    """
    alpha, beta, gamma = _finite(alpha=alpha, beta=beta, gamma=gamma)

    def recurrence(t, table, depth):
        x1, x2 = table
        sq = []  # the series of x1^2
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            sq.append(product(x1, x1))
            cubic = product(sq, x1)
            x1.append(x2[k] / (k + 1))
            x2.append((-beta * x1[k] - alpha * x2[k] - gamma * cubic) / (k + 1))

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

    def recurrence(t, table, depth):
        x1, x2, x3 = table
        decay = math.exp(-t)
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            q23 = product(x2, x3)
            q22 = product(x2, x2)
            sign = -1.0 if k % 2 else 1.0
            if k <= 170:
                f = decay * sign / math.factorial(k)
            else:  # 171! exceeds the float range: take k! in log space
                f = sign * math.exp(-t - math.lgamma(k + 1))
            a1, a23, a22 = 0.04 * x1[k], 1e4 * q23, 3e7 * q22
            n = k + 1
            x1.append((a23 - a1 - 0.96 * f) / n)
            x2.append((a1 - a23 - a22 - 0.04 * f) / n)
            x3.append((a22 + f) / n)

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
    eps, = _finite(epsilon=epsilon)

    def recurrence(t, table, depth):
        u, v = table
        uu = []  # the series of U^2
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            uu.append(product(u, u))
            u.append(v[k] / (k + 1))
            v.append((-u[k] + eps * v[k] - eps * product(uu, v)) / (k + 1))

    return ProblemDefinition(
        name="vanderpol",
        dim=2,
        recurrence=recurrence,
        default_initial=np.array([2.0, 0.0]),
    )


_FACTORIES = {
    "dahlquist": dahlquist,
    "duffing": duffing,
    "robertson": robertson_modified,
    "vanderpol": van_der_pol,
    "seir": seir,
}
PROBLEM_NAMES = tuple(_FACTORIES)


def make_problem(name: str, **params) -> ProblemDefinition:
    """The built-in problem ``name`` from its factory called with
    ``params``; an unknown name, or a parameter that factory does not take,
    raises ValueError."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        )
    taken = inspect.signature(factory).parameters
    extra = [key for key in params if key not in taken]
    if extra:
        raise ValueError(
            f"problem {name!r} takes no parameter {', '.join(map(repr, extra))}"
            f" (it takes: {', '.join(taken) or 'none'})"
        )
    return factory(**params)
