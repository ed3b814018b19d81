"""Built-in ODE systems expressed as Taylor-coefficient recurrences.

A coefficient table is the ``dim`` state series of one state expanded about
``t_i`` (its layout is in ``stepper.build_coeff_table``).  Each problem
supplies a ``recurrence(t_i, table, depth)`` that is handed ``dim`` lists,
each holding X(0), appends X(1), ..., X(depth) to each, and returns nothing.
This is the one public contract: any user ODE can be added by writing such a
recurrence, and the stepper calls built-in and user recurrences alike.  At
index k each state list holds exactly k+1 entries until the recurrence
appends to it, so a Cauchy product sum_j a(j) b(k-j) taken before either
list is appended at k reads whole lists; README.md has a user recurrence.

A built-in problem states its right-hand side once, as a function of
symbolic series (``_van_der_pol_rhs`` and its neighbours): the positional
arguments are the state series, the keyword-only ones the problem's
parameters, and it returns one term per state, x_j'.  A term is a state
series, a named intermediate series computed once per index (``_Series``:
Van der Pol's U^2, Duffing's x1^2, SEIR's P + D + mu A and its infection
term), a constant or parameter, a t-dependent scalar computed once per call
(SEIR's rate), a t-dependent series (Robertson's forcing), and sums,
differences, negations and products of these.  A product of two series is
their Cauchy product, sum_j a(j) b(k-j), and both must be state or named
series.  ``_compiled(rhs, **params)`` turns the declaration into the
problem's recurrence.  The first call at each depth generates, and caches,
one straight-line kernel for that depth, with one local name per
coefficient: X(k+1) = (x'(k)) / (k+1) written out index by index.  Nothing
is generated at import or when a factory is called.  A kernel's source
grows as depth^2, so from index ``_UNROLL_LIMIT`` on a kernel runs a loop
over lists whose products are ``_sum_product``; every depth past the limit
shares that one kernel, and a table's cost then grows as depth^2 like the
products themselves.  Generating a kernel takes 0.4-2 ms at depths up to
12 and 20-40 ms at depth 96 (CPython 3.11, 2-vCPU Xeon VM); it is done
once per declaration and depth, and shared by every parameter value.

The kernels keep the operation order of the recurrences once written by
hand, so a table keeps its bits.  A Cauchy product adds a(0) b(k), ...,
a(k) b(0) to 0.0 in that order, one plain addition at a time; a term's
operations group as its declaration's Python expression does; and X(k+1) is
divided by the int k+1.  So the tables do not depend on the interpreter:
``sum()`` compensates float sums from Python 3.12 on, and no kernel calls
it.

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


# Index from which a kernel's products are the shared _sum_product in a loop
# instead of written-out expressions.  Timed on CPython 3.11 (2-vCPU Xeon
# VM), an expression takes 0.68-0.78 of sum()'s time on float products at
# k = 32-64 and 0.89 at k = 128, but 0.98-1.02 on complex products (the
# complex-step tables) from k = 80 to 128; _sum_product's reduce takes about
# twice sum()'s time (9.5 against 4.9 us on float products at k = 120), a
# cost only orders above 95 pay.  The straight-line source grows as k^2.
_UNROLL_LIMIT = 96
# The kernel factory of each (declaration, depth) generated so far; every
# depth past _UNROLL_LIMIT shares the key _UNROLL_LIMIT + 1.  Replacing an
# entry concurrently stores an equal factory.
_kernels = {}


def _sum_product(a, b):
    """The Cauchy product at index n - 1 of two lists of n entries, added
    to 0.0 from the left: every product a kernel takes from index
    _UNROLL_LIMIT on."""
    return reduce(add, map(mul, a, reversed(b)), 0.0)


class _Term:
    """A node of a declared right-hand side.  ``code(k)`` is the source of
    its coefficient at index k: an int in the straight-line part of a
    kernel, or None in the loop past _UNROLL_LIMIT, whose index is the
    local k.  ``series`` is False for a value the same at every index."""

    series = True
    children = ()
    prelude = None

    def __add__(self, other):
        return _Op(self, " + ", other)

    def __sub__(self, other):
        return _Op(self, " - ", other)

    def __mul__(self, other):
        return _product(self, other)

    def __rmul__(self, other):
        return _product(other, self)

    def __neg__(self):
        return _Neg(self)


class _Series(_Term):
    """A series the kernel keeps, one local per coefficient (a list in the
    loop): a state series, or the named intermediate series of ``term``,
    computed once per index before the terms that read it."""

    def __init__(self, name: str, term: Optional[_Term] = None):
        self.name = name
        self.children = () if term is None else (term,)

    def code(self, k):
        return f"{self.name}[k]" if k is None else f"{self.name}_{k}"


class _Leaf(_Term):
    """A term whose source is given: ``source``, or ``source(k)`` when it
    is callable.  ``prelude`` is a statement run once per call, before any
    coefficient, that may read t.  Parameters and constants are scalar
    leaves, SEIR's rate a scalar leaf with a prelude, and Robertson's
    forcing a series leaf with one."""

    def __init__(self, source, prelude=None, series=True):
        self.source, self.prelude, self.series = source, prelude, series

    def code(self, k):
        return self.source(k) if callable(self.source) else self.source


def _scalar(value) -> _Term:
    """A term as it is, or a float constant as a term."""
    if isinstance(value, _Term):
        return value
    return _Leaf(f"({float(value)!r})", series=False)


class _Op(_Term):
    """a + b or a - b of two series or two scalars, or a * b of a scalar and
    a series, grouped as written."""

    def __init__(self, a, op: str, b):
        a, b = _scalar(a), _scalar(b)
        if op != " * " and a.series != b.series:
            raise TypeError("a series and a scalar do not add")
        self.children, self.op = (a, b), op
        self.series = a.series or b.series

    def code(self, k):
        a, b = self.children
        return f"({a.code(k)}{self.op}{b.code(k)})"


class _Neg(_Term):
    """-a: a sign flip, not a product with -1.0, which can differ on a nan."""

    def __init__(self, a):
        self.children, self.series = (a,), a.series

    def code(self, k):
        return f"(-{self.children[0].code(k)})"


class _Product(_Term):
    """The Cauchy product of two kept series, a(0) b(k) + ... + a(k) b(0)
    added to 0.0 from the left.  The leading 0.0 is _sum_product's start,
    so a sum of -0.0 terms is 0.0 as there."""

    def __init__(self, a: _Series, b: _Series):
        self.children = (a, b)

    def code(self, k):
        a, b = self.children
        if k is None:
            return f"_sum_product({a.name}, {b.name})"
        terms = " + ".join(f"{a.code(j)} * {b.code(k - j)}"
                           for j in range(k + 1))
        return f"(0.0 + {terms})"


def _product(a, b) -> _Term:
    """a * b: the Cauchy product of two series, else a plain product."""
    a, b = _scalar(a), _scalar(b)
    if not (a.series and b.series):
        return _Op(a, " * ", b)
    if not (isinstance(a, _Series) and isinstance(b, _Series)):
        raise TypeError("a product of series reads state or named series")
    return _Product(a, b)


def _collect(term: _Term, named: list, preludes: list) -> None:
    """Append the named series and the preludes ``term`` reads, each after
    those it reads in turn."""
    if term in named:
        return
    for child in term.children:
        _collect(child, named, preludes)
    if term.prelude is not None and term.prelude not in preludes:
        preludes.append(term.prelude)
    if isinstance(term, _Series) and term.children:
        named.append(term)


def _generate(rhs, depth: int):
    """The kernel factory of the declaration ``rhs`` at ``depth``:
    ``bind(**params)`` returns ``kernel(t, table, depth)``, which appends
    X(1), ..., X(depth) to the table's lists.  Through index
    min(depth, _UNROLL_LIMIT) it is straight-line; a deeper kernel then
    loops to its ``depth`` argument over lists."""
    parameters = inspect.signature(rhs).parameters.values()
    states = [_Series(p.name) for p in parameters
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    params = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
    derivatives = rhs(*states, **{name: _Leaf(name, series=False)
                                  for name in params})
    named, preludes = [], []
    for term in derivatives:
        _collect(term, named, preludes)
    straight = min(depth, _UNROLL_LIMIT)
    body = [", ".join(x.name for x in states) + ", = table"]
    body += [f"{x.name}_0 = {x.name}[0]" for x in states]
    body += preludes
    for k in range(straight):
        body += [f"{s.name}_{k} = {s.children[0].code(k)}" for s in named]
        body += [f"{x.name}_{k + 1} = {term.code(k)} / {k + 1}"
                 for x, term in zip(states, derivatives)]
    body += [f"{x.name}.extend(("
             + "".join(f"{x.name}_{k}, " for k in range(1, straight + 1))
             + "))" for x in states]
    if depth > _UNROLL_LIMIT:
        body += [f"{s.name} = ["
                 + ", ".join(f"{s.name}_{k}" for k in range(straight)) + "]"
                 for s in named]
        body.append(f"for k in range({_UNROLL_LIMIT}, depth):")
        body += [f"    {s.name}.append({s.children[0].code(None)})"
                 for s in named]
        # Every next coefficient first: a product reads whole state lists.
        body += [f"    {x.name}_next = {term.code(None)} / (k + 1)"
                 for x, term in zip(states, derivatives)]
        body += [f"    {x.name}.append({x.name}_next)" for x in states]
    source = (f"def bind({', '.join(params)}):\n"
              "    def kernel(t, table, depth):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return kernel\n")
    namespace = {"exp": math.exp, "factorial": math.factorial,
                 "lgamma": math.lgamma, "_sum_product": _sum_product}
    exec(source, namespace)
    return namespace["bind"]


def _compiled(rhs, **params) -> Recurrence:
    """The recurrence of the declared right-hand side ``rhs`` with its
    parameters bound to ``params``.  Its first call at each depth takes the
    kernel of (rhs, depth) from the cache, generating it if no problem has
    used it yet, and binds it to ``params``."""
    bound = {}  # depth -> kernel

    def recurrence(t, table, depth):
        kernel = bound.get(depth)
        if kernel is None:
            key = (rhs, min(depth, _UNROLL_LIMIT + 1))
            bind = _kernels.get(key)
            if bind is None:
                bind = _kernels[key] = _generate(rhs, depth)
            kernel = bound[depth] = bind(**params)
        kernel(t, table, depth)

    return recurrence


def _finite(**params) -> list:
    """The parameters as floats; ValueError names the first non-finite one."""
    values = []
    for name, value in params.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        values.append(value)
    return values


def _dahlquist_rhs(x, *, lam):
    return (lam * x,)


def dahlquist(lam: float = -1.0, x0: float = 1.0) -> ProblemDefinition:
    """Scalar test equation x' = lam * x with exact solution x0 * e^(lam t).

    Real lam only; complex arguments belong to the closed-form stability
    function, not the stepper.
    """
    lam, x0 = _finite(lam=lam, x0=x0)

    def exact(t):
        try:
            return np.array([x0 * math.exp(lam * t)])
        except OverflowError:  # e^(lam t) past the float range; 0 stays 0
            return np.array([x0 * math.inf if x0 else x0])

    return ProblemDefinition(
        name="dahlquist",
        dim=1,
        recurrence=_compiled(_dahlquist_rhs, lam=lam),
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


def _seir_rhs(s, e, p, a, d, r, *, beta, eta, t_c, inv_N, mu, r_e, r_p, r_a,
              r_d, e_to_p, e_to_a):
    # Steps launched at t >= t_c integrate over (t, t+dt] where the scaled
    # rate applies, so the right limit is the faithful choice.
    rate = _Leaf("rate", "rate = (beta * eta if t >= t_c else beta) * inv_N",
                 series=False)
    # The series of P + D + mu A, so the infection term is one product.
    w = _Series("w", p + d + mu * a)
    lam = _Series("lam", rate * (s * w))
    return (-lam, -r_e * e + lam, e_to_p * e - r_p * p, e_to_a * e - r_a * a,
            r_p * p - r_d * d, r_a * a + r_d * d)


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
    recurrence = _compiled(
        _seir_rhs, beta=beta, eta=eta, t_c=t_c, inv_N=1.0 / N, mu=mu,
        r_e=1.0 / d1, r_p=1.0 / d2, r_a=1.0 / d3, r_d=1.0 / p,
        e_to_p=alpha / d1, e_to_a=(1.0 - alpha) / d1)
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


def _duffing_rhs(x1, x2, *, alpha, beta, gamma):
    sq = _Series("sq", x1 * x1)
    return (x2, -beta * x1 - alpha * x2 - gamma * (sq * x1))


def duffing(alpha: float = -3.0, beta: float = 2.0, gamma: float = -2.0) -> ProblemDefinition:
    """Cubic oscillator x'' + alpha x' + beta x + gamma x^3 = 0 as a first
    order system (x, x').

    For (alpha, beta, gamma) = (-3, 2, -2) the logistic function
    1/(1 + e^(-t)) is an exact solution from (0.5, 0.25).
    """
    alpha, beta, gamma = _finite(alpha=alpha, beta=beta, gamma=gamma)
    recurrence = _compiled(_duffing_rhs, alpha=alpha, beta=beta, gamma=gamma)
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


def _decay(k) -> str:
    """The source of e^(-t)'s coefficient at index k about t,
    e^(-t) (-1)^k / k!, with decay = e^(-t); past k = 170, k! exceeds the
    float range and is taken in log space."""
    if k is None:
        return ("(decay * (-1.0 if k % 2 else 1.0) / factorial(k) if k <= 170"
                " else (-1.0 if k % 2 else 1.0) * exp(-t - lgamma(k + 1)))")
    sign = "-1.0" if k % 2 else "1.0"
    if k <= 170:
        return f"decay * {sign} / {math.factorial(k)}"
    return f"{sign} * exp(-t - {math.lgamma(k + 1)!r})"


def _robertson_rhs(x1, x2, x3):
    f = _Series("f", _Leaf(_decay, "decay = exp(-t)"))
    a1 = _Series("a1", 0.04 * x1)
    a23 = _Series("a23", 1e4 * (x2 * x3))
    a22 = _Series("a22", 3e7 * (x2 * x2))
    return (a23 - a1 - 0.96 * f, a1 - a23 - a22 - 0.04 * f, a22 + f)


def robertson_modified() -> ProblemDefinition:
    """Modified Robertson chemical system with forcing terms proportional to
    e^(-t); exact solution (e^(-t), 0, 1 - e^(-t)).

    The forcing transform about t_i is e^(-t_i) (-1)^k / k! (alternating sign
    from differentiating e^(-t)).
    """

    def exact(t):
        e = math.exp(-t)
        return np.array([e, 0.0, 1.0 - e])

    return ProblemDefinition(
        name="robertson",
        dim=3,
        recurrence=_compiled(_robertson_rhs),
        default_initial=np.array([1.0, 0.0, 0.0]),
        exact_solution=exact,
    )


def _van_der_pol_rhs(u, v, *, eps):
    uu = _Series("uu", u * u)
    return (v, -u + eps * v - eps * (uu * v))


def van_der_pol(epsilon: float = 10.0) -> ProblemDefinition:
    """Van der Pol oscillator U' = V, V' = -U + eps (1 - U^2) V; stiffness
    grows with eps."""
    eps, = _finite(epsilon=epsilon)
    return ProblemDefinition(
        name="vanderpol",
        dim=2,
        recurrence=_compiled(_van_der_pol_rhs, eps=eps),
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
