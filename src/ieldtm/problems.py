"""Initial value problems, each stated once as a declaration and compiled to
Taylor-coefficient kernels.

A coefficient table is the ``dim`` state series of one state expanded about
``t_i`` (its layout is in ``stepper.build_coeff_table``), ``dim`` being the
length of the problem's initial state.  A problem's ``recurrence(t_i,
state, depth)`` maps the ``dim`` numbers ``state`` to their table: it
returns ``dim`` fresh lists, each holding X(0), ..., X(depth).

Every problem, built-in or a user's, states its right-hand side once, as a
function of symbolic series (``_van_der_pol_rhs`` and its neighbours; README.md
has a user's): the positional arguments are the state series, the
keyword-only ones the problem's parameters, and it returns one term per
state, x_j'.  A term is a state series, a named intermediate series computed
once per index (``Series``: Van der Pol's U^2, Duffing's x1^2, SEIR's P + D +
mu A and its infection term), a constant or parameter, a t-dependent scalar
computed once per call (SEIR's rate), a t-dependent series (Robertson's and
``linear_system``'s forcing), and sums, differences, negations and products
of these.  A product of two series is their Cauchy product, sum_j a(j)
b(k-j), and both must be state or named series.  ``declare(rhs, **params)``
checks the declaration and turns it into the problem's recurrence, the one
kind ``ProblemDefinition`` takes.

One generator, ``_generate``, walks a declaration and writes its kernels,
of two kinds.  The table kernel behind ``recurrence`` returns the table.
The tangent kernel ``recurrence.tangent(order)`` expands the state y
through X(order) together with its tangents dX(k)/dy_j (the variational
equations in Taylor form, as in Jorba & Zou's ``taylor`` and in TIDES) and
returns the implicit step's residual and its exact Jacobian, the series at
offset minus known and their derivatives; Newton takes both from it.  Both
kinds compute the values with the same lines, so the residual of one is
the series of the other's table.  The first call at each depth generates
one straight-line kernel for that declaration, kind and depth, with one
local name per coefficient: X(k+1) = (x'(k)) / (k+1) written out index by
index.  Nothing is generated at import or when a factory is called.  A
kernel's source grows as depth^2, so from index ``_UNROLL_LIMIT`` on
(``_TANGENT_UNROLL_LIMIT`` with tangents) a kernel runs a loop over lists
whose products are ``_sum_product``; every depth past the limit shares that
one kernel, and a table's cost then grows as depth^2 like the products
themselves.  Generating a table kernel takes 0.4-2 ms at depths up to 12
and 20-40 ms at depth 96 (CPython 3.11, 2-vCPU Xeon VM); ``_generate`` is
cached (``functools.cache``), so it is done once per declaration, kind and
depth and shared by every parameter value.

The tangent rules are the imaginary parts of the complex step's
operations, in their order, so the two agree bit for bit: a Cauchy
product's is a(i) db(k-i) + da(i) b(k-i), added to 0.0 from i = 0.

The kernels keep the operation order of the recurrences once written by
hand, so a table keeps its bits.  A Cauchy product adds a(0) b(k), ...,
a(k) b(0) to 0.0 in that order, one plain addition at a time; a term's
operations group as its declaration's Python expression does; and X(k+1) is
divided by the int k+1.  So the tables do not depend on the interpreter:
``sum()`` compensates float sums from Python 3.12 on, and no kernel calls
it.
"""

from __future__ import annotations

import inspect
import keyword
import math
import re
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain
from numbers import Real
from operator import add, mul
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteStateError

__all__ = [
    "ProblemDefinition",
    "Series",
    "declare",
    "dahlquist",
    "linear_system",
    "seir",
    "duffing",
    "robertson_modified",
    "van_der_pol",
    "make_problem",
    "PROBLEM_NAMES",
]

Recurrence = Callable[[float, list, int], list]


@dataclass(frozen=True)
class ProblemDefinition:
    """An initial value problem in differential-transform form.

    Immutable after construction; safe for concurrent use by multiple
    integrators.
    """

    name: str
    recurrence: Recurrence  # from declare(), which attaches its tangent
    default_initial: np.ndarray
    exact_solution: Optional[Callable[[float], np.ndarray]] = None
    discontinuities: tuple = ()

    @property
    def dim(self) -> int:
        """The number of state components, the initial state's length."""
        return len(self.default_initial)

    def __post_init__(self):
        # The stepper's Newton solve takes the Jacobian from the tangent
        # kernel, so only a compiled declaration will do.
        if not hasattr(self.recurrence, "tangent"):
            raise TypeError("recurrence must be the recurrence declare() "
                            "returns, which carries its tangent kernel")
        # A nan would never clip a step: every comparison with it is false.
        for t_d in self.discontinuities:
            if (isinstance(t_d, bool) or not isinstance(t_d, Real)
                    or not math.isfinite(t_d)):
                raise ValueError(
                    f"discontinuities must be finite real numbers, got {t_d!r}")
        init = np.asarray(self.default_initial, dtype=float)
        if init.ndim != 1 or init.size == 0:
            raise ValueError("default_initial must be a non-empty 1-D sequence")
        if init.size != self.recurrence.dim:
            raise ValueError(f"default_initial has {init.size} entries for "
                             f"the {self.recurrence.dim} states of the "
                             "recurrence")
        object.__setattr__(self, "default_initial", init)


# Index from which a kernel's products are the shared _sum_product in a loop
# instead of written-out expressions.  Tables hold floats only (Newton takes
# the Jacobian from the tangent kernel), so the float timings bind.  Timed
# on CPython 3.11 (2-vCPU Xeon VM), an expression takes 0.68-0.78 of sum()'s
# time on float products at k = 32-64 and 0.89 at k = 128; _sum_product's
# reduce takes about twice sum()'s time (9.5 against 4.9 us on float products
# at k = 120), a cost only orders above 95 pay.  The straight-line source
# grows as k^2.
_UNROLL_LIMIT = 96

# The same split for the tangent kernels, whose source also grows as m k^2
# for m states.  Generating one straight-line through 32 takes 29-54 ms,
# what a table kernel through 96 takes (23-35 ms), and through 96 it takes
# 280-400 ms (Van der Pol, Robertson, SEIR; CPython 3.11, 2-vCPU Xeon VM).
# Past 32 the loop costs a call 2-3 times the straight-line's time (Van der
# Pol 772 against 260 us at K = 48, 3 339 against 1 156 at 96; SEIR 1 014
# against 498 and 5 249 against 1 937), so 0.3 s of generation pays back
# after 100-150 calls at such an order; no command runs K above 9.
_TANGENT_UNROLL_LIMIT = 32


def _sum_product(a, b):
    """The Cauchy product at index n - 1 of two lists of n entries, added
    to 0.0 from the left: every product a kernel's loop takes."""
    return reduce(add, map(mul, a, reversed(b)), 0.0)


class _Term:
    """A node of a declared right-hand side.  ``code(k)`` is the source of
    its coefficient at index k: an int in the straight-line part of a
    kernel, or None in the loop past it, whose index is the local k.
    ``series`` is False for a value the same at every index."""

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

    def tangent(self, k, j, d):
        """The source of the coefficient at index k of the term's tangent
        along state j, or None where it is zero by structure.  ``d(series,
        k, j)`` is the tangent of a kept series: an entry's source (None
        when zero) at an int k, a list's name in the loop.  A constant,
        parameter or t-dependent leaf has none."""
        return None


class Series(_Term):
    """A series the kernel keeps, one local per coefficient (a list in the
    loop): a state series, or the named intermediate series of ``term``,
    computed once per index before the terms that read it.  ``name`` is the
    stem of its locals in the generated source."""

    def __init__(self, name: str, term: Optional[_Term] = None):
        if term is not None and not (isinstance(term, _Term) and term.series):
            raise TypeError(f"series {name!r} is given a scalar, not a series")
        self.name = name
        self.children = () if term is None else (term,)

    def code(self, k):
        return f"{self.name}[k]" if k is None else f"{self.name}_{k}"

    def tangent(self, k, j, d):
        return f"{d(self, k, j)}[k]" if k is None else d(self, k, j)


class _Leaf(_Term):
    """A term whose source is given: ``source``, or ``source(k)`` when it
    is callable.  ``prelude`` is a statement run once per call, before any
    coefficient, that may read t.  Parameters and constants are scalar
    leaves, SEIR's rate a scalar leaf with a prelude, and Robertson's
    and ``linear_system``'s forcings series leaves with one."""

    def __init__(self, source, prelude=None, series=True):
        self.source, self.prelude, self.series = source, prelude, series

    def code(self, k):
        return self.source(k) if callable(self.source) else self.source


def _scalar(value) -> _Term:
    """A term as it is, or a finite float constant as a term."""
    if isinstance(value, _Term):
        return value
    return _Leaf(f"({_finite(constant=value)[0]!r})", series=False)


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

    def tangent(self, k, j, d):
        a, b = self.children
        da, db = a.tangent(k, j, d), b.tangent(k, j, d)
        if self.op == " * ":  # one side is a scalar, which has no tangent
            if da is not None:
                return f"({_times(da, b.code(k))})"
            return None if db is None else f"({_times(a.code(k), db)})"
        if db is None:
            return da
        if da is None:
            return db if self.op == " + " else f"(-{db})"
        return f"({da}{self.op}{db})"


class _Neg(_Term):
    """-a: a sign flip, not a product with -1.0, which can differ on a nan."""

    def __init__(self, a):
        self.children, self.series = (a,), a.series

    def code(self, k):
        return f"(-{self.children[0].code(k)})"

    def tangent(self, k, j, d):
        da = self.children[0].tangent(k, j, d)
        return None if da is None else f"(-{da})"


class _Product(_Term):
    """The Cauchy product of two kept series, a(0) b(k) + ... + a(k) b(0)
    added to 0.0 from the left.  The leading 0.0 is _sum_product's start,
    so a sum of -0.0 terms is 0.0 as there."""

    def __init__(self, a: Series, b: Series):
        self.children = (a, b)

    def code(self, k):
        a, b = self.children
        if k is None:
            return f"_sum_product({a.name}, {b.name})"
        terms = " + ".join(f"{a.code(j)} * {b.code(k - j)}"
                           for j in range(k + 1))
        return f"(0.0 + {terms})"

    def tangent(self, k, j, d):
        """a(i) db(k-i) + da(i) b(k-i), the imaginary part of a complex
        product, for i = 0, ..., k, added to 0.0 from the left."""
        a, b = self.children
        if k is None:
            return (f"_sum_tangent({a.name}, {d(b, None, j)}, "
                    f"{d(a, None, j)}, {b.name})")
        terms = []
        for i in range(k + 1):
            da, db = d(a, i, j), d(b, k - i, j)
            parts = ([] if db is None else [_times(a.code(i), db)]) + (
                [] if da is None else [_times(da, b.code(k - i))])
            if parts:
                terms.append(parts[0] if len(parts) == 1
                             else f"({parts[0]} + {parts[1]})")
        return f"(0.0 + {' + '.join(terms)})" if terms else None


def _sum_tangent(a, db, da, b):
    """The tangent of _sum_product(a, b): a(i) db(n-1-i) + da(i) b(n-1-i)
    for i = 0, ..., n - 1, added to 0.0 from the left, as the imaginary
    parts of the complex products are."""
    return reduce(add, map(add, map(mul, a, reversed(db)),
                           map(mul, da, reversed(b))), 0.0)


def _times(a: str, b: str) -> str:
    """The source of a * b; a product with the seed tangent 1.0 is exact,
    so it is left out."""
    return b if a == _ONE else a if b == _ONE else f"{a} * {b}"


# The source of a state's tangent along itself at index 0.
_ONE = "1.0"


def _product(a, b) -> _Term:
    """a * b: the Cauchy product of two series, else a plain product."""
    a, b = _scalar(a), _scalar(b)
    if not (a.series and b.series):
        return _Op(a, " * ", b)
    if not (isinstance(a, Series) and isinstance(b, Series)):
        raise TypeError("a product of series reads state or named series")
    return _Product(a, b)


def _collect(term: _Term, named: list, preludes: list) -> None:
    """Append the named series and the preludes ``term`` reads, each after
    those it reads in turn, to ``named``, which starts with the states, and
    ``preludes``; a series that is neither raises ValueError."""
    if term in named:
        return
    for child in term.children:
        _collect(child, named, preludes)
    if term.prelude is not None and term.prelude not in preludes:
        preludes.append(term.prelude)
    if isinstance(term, Series):
        if not term.children:
            raise ValueError(f"series {term.name!r} is neither a state nor "
                             "given a term")
        named.append(term)


@cache
def _declaration(rhs):
    """(states, params, derivatives, named, preludes) of the declaration
    ``rhs``: its state series, parameter names and one term per state, the
    named series in the order they are computed, and the preludes.  Cached,
    so each declaration is traced and checked once: ValueError or TypeError
    names a state whose derivative is not a series, a series with no term,
    or a name the generated source cannot hold (``_check_names``)."""
    parameters = inspect.signature(rhs).parameters.values()
    states = [Series(p.name) for p in parameters
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    params = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
    derivatives = tuple(rhs(*states, **{name: _Leaf(name, series=False)
                                        for name in params}))
    if len(derivatives) != len(states):
        raise ValueError(f"the declaration returns {len(derivatives)} terms "
                         f"for its states {', '.join(x.name for x in states)}")
    named, preludes = list(states), []
    for x, term in zip(states, derivatives):
        if not (isinstance(term, _Term) and term.series):
            raise TypeError(f"the derivative of {x.name} is not a series")
        _collect(term, named, preludes)
    named = named[len(states):]
    _check_names([x.name for x in states] + params + [s.name for s in named],
                 [x.name for x in states + named])
    return states, params, derivatives, named, preludes


def _check_names(names: list, stems: list) -> None:
    """Refuse a state, parameter or series name that is not an identifier,
    is given twice, is _RESERVED or has a leading underscore, or has the
    form of a local of one of the series ``stems``."""
    for i, name in enumerate(names):
        if (not isinstance(name, str) or not name.isidentifier()
                or keyword.iskeyword(name) or name.startswith("_")
                or name in _RESERVED or name in names[:i]
                or any(name.startswith(f"{stem}_")
                       and _LOCALS.fullmatch(name, len(stem) + 1)
                       for stem in stems)):
            raise ValueError(
                f"{name!r} cannot name a state, parameter or series: it is "
                "not an identifier, is reserved or given twice, or has the "
                "form of a generated local")


def _bind(params: list, args: str, body: list):
    """The factory ``bind(depth, *params)`` of the generated
    ``kernel(args)`` whose body is the lines ``body``."""
    source = (f"def _bind({', '.join(['depth', *params])}):\n"
              f"    def _kernel({args}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return _kernel\n")
    namespace = dict(_NAMESPACE)
    exec(source, namespace)
    return namespace["_bind"]


@cache
def _generate(rhs, depth: int, tangent: bool):
    """The kernel factory of the declaration ``rhs`` at ``depth``:
    ``bind(depth, **params)`` returns a kernel that expands the state y
    about t through X(depth).  The table kernel ``kernel(t, y)`` returns
    the table, one list X(0), ..., X(depth) per state.  With ``tangent``
    the kernel is ``kernel(t, offset, known, y)``, which also expands the
    tangents dX_i(k)/dy_j and returns (r, J): r_i the state series i at
    offset minus known[i], J_ij its derivative along y_j.

    Through index min(depth, limit), the limit being _UNROLL_LIMIT or with
    tangents _TANGENT_UNROLL_LIMIT, the kernel is straight-line; a deeper
    one then loops to its bound depth over lists, so every depth past the
    limit is asked for as the limit + 1.

    A tangent is the imaginary part, over h, of the complex step's
    coefficient at y + ih e_j, in the same operations and order, so at a
    power-of-two h the two agree bit for bit (up to the sign of a zero).
    Tangents zero by structure are left out of the straight-line part:
    only those that can be non-zero at an index get a local.  The loop
    keeps a list per series and state whose zeros are 0.0, as the complex
    step's imaginary parts are."""
    states, params, derivatives, named, preludes = _declaration(rhs)
    # The states the tangents are taken along: none for a table.
    along = range(len(states) if tangent else 0)
    straight = min(depth, _TANGENT_UNROLL_LIMIT if tangent else _UNROLL_LIMIT)
    # (series name, index) -> {state j: source of a non-zero tangent}
    tangents = {(x.name, 0): {i: _ONE} for i, x in enumerate(states)}

    def d(series, k, j):
        if k is None:
            return f"{series.name}_d{j}"
        return tangents[series.name, k].get(j)

    def keep(name, k, term, at, divisor=""):
        """The value of ``term`` at index ``at``, over ``divisor``, as
        series ``name``'s local at index k, and each non-zero tangent."""
        body.append(f"{name}_{k} = {term.code(at)}{divisor}")
        kept = tangents[name, k] = {}
        for j in along:
            source = term.tangent(at, j, d)
            if source == _ONE and not divisor:
                kept[j] = _ONE
            elif source is not None:
                kept[j] = f"{name}_{k}_d{j}"
                body.append(f"{kept[j]} = {source}{divisor}")

    body = ["".join(f"{x.name}_0, " for x in states) + "= _y", *preludes]
    for k in range(straight):
        for s in named:
            keep(s.name, k, s.children[0], k)
        for x, term in zip(states, derivatives):
            keep(x.name, k + 1, term, k, f" / {k + 1}")
    if depth > straight:
        for series in named + states:
            size = straight + (series in states)
            body.append(f"{series.name} = ["
                        + ", ".join(f"{series.name}_{k}" for k in range(size))
                        + "]")
            body += [f"{series.name}_d{j} = ["
                     + ", ".join(tangents[series.name, k].get(j, "0.0")
                                 for k in range(size)) + "]" for j in along]
        body.append(f"for k in range({straight}, depth):")
        for s in named:
            body.append(f"    {s.name}.append({s.children[0].code(None)})")
            body += [f"    {s.name}_d{j}.append("
                     f"{s.children[0].tangent(None, j, d) or '0.0'})"
                     for j in along]
        for x, term in zip(states, derivatives):
            body.append(f"    {x.name}_next = {term.code(None)} / (k + 1)")
            body += [f"    {x.name}_next_d{j} = "
                     f"{term.tangent(None, j, d) or '0.0'} / (k + 1)"
                     for j in along]
        # Every next coefficient first: a product reads whole state lists.
        for x in states:
            body.append(f"    {x.name}.append({x.name}_next)")
            body += [f"    {x.name}_d{j}.append({x.name}_next_d{j})"
                     for j in along]
    if not tangent:
        body.append("return [" + ", ".join(
            x.name if depth > straight else
            "[" + ", ".join(f"{x.name}_{k}" for k in range(depth + 1)) + "]"
            for x in states) + "]")
        return _bind(params, "t, _y", body)
    body.append("".join(f"_known_{i}, " for i in along) + "= _known")
    if depth > straight:
        body.append("_h = _horner(depth)")
        body += [f"_r{i} = _h({x.name}, _offset) - _known_{i}"
                 for i, x in enumerate(states)]
        body += [f"_J{i}_{j} = _h({x.name}_d{j}, _offset)"
                 for i, x in enumerate(states) for j in along]
        coefficients = "chain(" + ", ".join(
            f"{x.name}{suffix}" for x in states
            for suffix in ["", *(f"_d{j}" for j in along)]) + ")"
    else:
        body += [f"_r{i} = "
                 + _horner_code([f"{x.name}_{k}" for k in range(depth + 1)])
                 + f" - _known_{i}" for i, x in enumerate(states)]
        body += [f"_J{i}_{j} = " + _horner_code(
                     [tangents[x.name, k].get(j) for k in range(depth + 1)])
                 for i, x in enumerate(states) for j in along]
        coefficients = "(" + "".join(
            f"{x.name}_{k}, " for x in states for k in range(depth + 1)) + (
            "".join(f"{source}, " for x in states for k in range(depth + 1)
                    for source in tangents[x.name, k].values())) + ")"
    # A non-finite coefficient makes its Horner sum non-finite: inf times
    # a finite offset is inf or nan, and adding a finite term keeps it so.
    # So a finite sum of r and J clears every coefficient; only when the
    # sum is not finite (an entry is not, or the entries overflow it) is
    # each coefficient tested.
    body += ["if not isfinite(" + " + ".join(
                 [f"_r{i}" for i in along]
                 + [f"_J{i}_{j}" for i in along for j in along]) + "):",
             f"    if not all(map(isfinite, {coefficients})):",
             "        raise NonFiniteStateError(",
             "            f'non-finite Taylor coefficient at t = {t!r}')",
             "return [" + ", ".join(f"_r{i}" for i in along) + "], ["
             + ", ".join("[" + ", ".join(f"_J{i}_{j}" for j in along) + "]"
                         for i in along) + "]"]
    return _bind(params, "t, _offset, _known, _y", body)


@cache
def _horner(order: int):
    """The Horner kernel of ``order``: h(col, s) takes a = col[order], then
    a = a * s + col[k] for k = order-1, ..., 0, and returns a, the series
    through ``order`` at s in the type of its inputs.

    The kernel is written out one statement per k (a nested expression
    would pass CPython's limit of 200 nested parentheses at order 200).
    """
    lines = _horner_lines("a", "col", "s", order)
    namespace = {}
    exec("def horner(col, s):\n" + "".join(f"    {line}\n" for line in lines)
         + "    return a\n", namespace)
    return namespace["horner"]


def _horner_lines(target: str, col: str, s: str, order: int) -> list:
    """The statements of ``_horner(order)``, one per index: ``target`` is
    the series ``col`` through ``order`` at ``s``."""
    return ([f"{target} = {col}[{order}]"]
            + [f"{target} = {target} * {s} + {col}[{k}]"
               for k in range(order - 1, -1, -1)])


def _horner_code(coeffs: list) -> str:
    """The source of the series with coefficient sources ``coeffs`` (None
    where zero) at offset: a = coeffs[-1], then a = a * offset + coeffs[k]
    for k down to 0, as the kernels of ``_horner`` take it; a zero
    coefficient is not added."""
    code = None
    for c in reversed(coeffs):
        if code is None:
            code = c
        elif c is None:
            code = f"{code} * _offset"
        else:
            code = f"({code} * _offset + {c})"
    return "0.0" if code is None else code


# The globals of the generated kernels.
_NAMESPACE = {"exp": math.exp, "factorial": math.factorial,
              "lgamma": math.lgamma, "isfinite": math.isfinite,
              "_sum_product": _sum_product, "_sum_tangent": _sum_tangent,
              "_horner": _horner, "chain": chain,
              "NonFiniteStateError": NonFiniteStateError}
# The names a kernel reads besides a declaration's and its own, which all
# start with an underscore: the time t, the depth, the loop index k, its
# globals and the builtins it calls.
_RESERVED = {"t", "depth", "k", "all", "map", "range", "float", *_NAMESPACE}
# The locals of a kept series x after "x_": x_3, x_d1, x_3_d1, x_next and
# x_next_d1.
_LOCALS = re.compile(r"\d+|d\d+|\d+_d\d+|next|next_d\d+")


def declare(rhs, **params) -> Recurrence:
    """The recurrence of the right-hand side declared by ``rhs`` (the module
    docstring states the form), with its keyword-only parameters bound to
    ``params``, each taken as a finite float.  A malformed declaration, or
    parameters other than the declared ones, raise ValueError or TypeError
    here; the kernels are generated on first use."""
    declared = _declaration(rhs)[1]
    if sorted(params) != sorted(declared):
        raise TypeError(f"the declaration takes the parameters "
                        f"({', '.join(declared)}), got ({', '.join(params)})")
    return _compiled(rhs, **dict(zip(params, _finite(**params))))


def _compiled(rhs, **params) -> Recurrence:
    """The recurrence of the checked declaration ``rhs`` with its parameters
    bound to ``params`` as given.  Its first call at each depth binds the
    table kernel factory of (rhs, depth) to that depth and ``params``,
    once.  Its attribute ``tangent(order)`` is the tangent kernel of (rhs,
    order) bound the same way, which the stepper's Newton solve calls, and
    ``dim`` is its number of states."""

    def kernels(tangent, limit):
        @cache
        def kernel(depth):
            return _generate(rhs, min(depth, limit + 1), tangent)(depth,
                                                                  **params)
        return kernel

    table = kernels(False, _UNROLL_LIMIT)

    def recurrence(t, state, depth):
        return table(depth)(t, state)

    recurrence.tangent = kernels(True, _TANGENT_UNROLL_LIMIT)
    recurrence.dim = len(_declaration(rhs)[0])
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
        recurrence=declare(_dahlquist_rhs, lam=lam),
        default_initial=np.array([x0]),
        exact_solution=exact,
    )


def linear_system(A, forcing=None, name: str = "linear",
                  default_initial=None, exact_solution=None) -> ProblemDefinition:
    """x' = A x + B(t) with ``forcing(t_i, k)`` the transform of B about t_i,
    a sequence of one value per component.

    For zero forcing the coefficients are X(k) = A^k X(0) / k!.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    m = A.shape[0]
    default_initial = (np.ones(m) if default_initial is None
                       else np.asarray(default_initial, dtype=float))
    if default_initial.shape != (m,):
        raise ValueError(f"default_initial must have {m} entries, one per "
                         "row of A")
    if forcing is None:
        forcing = lambda t, k: (0.0,) * m
    elif len(list(forcing(0.0, 0))) != m:
        raise ValueError(f"forcing must give {m} values, one per component")
    return ProblemDefinition(
        name=name,
        recurrence=_compiled(_linear_rhs(m), forcing=forcing, **{
            f"a{i}_{j}": a for i, row in enumerate(A.tolist())
            for j, a in enumerate(row)}),
        default_initial=default_initial,
        exact_solution=exact_solution,
    )


@cache
def _linear_rhs(m: int):
    """The declaration of x' = A x + B(t) for m states, shared by every A
    and forcing, so its kernels are too.  A's entries are the parameters
    a{i}_{j}; B's are the values of the parameter ``forcing``, called once
    per index by a prelude.  Row i adds 0.0 + a_i0 x_0 + ... from the left,
    then float(B_i), as the loop this replaced did; with no forcing given,
    B_i is 0.0, which leaves every bit of that sum as it is."""
    def rhs(*x, **a):
        return [reduce(add, (a[f"a{i}_{j}"] * x[j] for j in range(m)),
                       _Leaf("0.0"))
                + _Leaf(lambda k, i=i: "float(_b[%s][%d])" % (
                            "k" if k is None else k, i),
                        "_b = [forcing(t, k) for k in range(depth)]")
                for i in range(m)]

    P = inspect.Parameter
    rhs.__signature__ = inspect.Signature(
        [P(f"x{i}", P.POSITIONAL_OR_KEYWORD) for i in range(m)]
        + [P(f"a{i}_{j}", P.KEYWORD_ONLY) for i in range(m) for j in range(m)]
        + [P("forcing", P.KEYWORD_ONLY)])
    return rhs


def _seir_rhs(s, e, p, a, d, r, *, beta, eta, t_c, inv_N, mu, r_e, r_p, r_a,
              r_d, e_to_p, e_to_a):
    # Steps launched at t >= t_c integrate over (t, t+dt] where the scaled
    # rate applies, so the right limit is the faithful choice.
    rate = _Leaf("_rate", "_rate = (beta * eta if t >= t_c else beta) * inv_N",
                 series=False)
    # The series of P + D + mu A, so the infection term is one product.
    w = Series("w", p + d + mu * a)
    lam = Series("lam", rate * (s * w))
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
    recurrence = declare(
        _seir_rhs, beta=beta, eta=eta, t_c=t_c, inv_N=1.0 / N, mu=mu,
        r_e=1.0 / d1, r_p=1.0 / d2, r_a=1.0 / d3, r_d=1.0 / p,
        e_to_p=alpha / d1, e_to_a=(1.0 - alpha) / d1)
    disc = (t_c,) if eta != 1.0 else ()
    initial = np.array([N - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    return ProblemDefinition(
        name="seir",
        recurrence=recurrence,
        default_initial=initial,
        discontinuities=disc,
    )


_LOGISTIC_PARAMS = (-3.0, 2.0, -2.0)


def _duffing_rhs(x1, x2, *, alpha, beta, gamma):
    sq = Series("sq", x1 * x1)
    return (x2, -beta * x1 - alpha * x2 - gamma * (sq * x1))


def duffing(alpha: float = -3.0, beta: float = 2.0, gamma: float = -2.0) -> ProblemDefinition:
    """Cubic oscillator x'' + alpha x' + beta x + gamma x^3 = 0 as a first
    order system (x, x').

    For (alpha, beta, gamma) = (-3, 2, -2) the logistic function
    1/(1 + e^(-t)) is an exact solution from (0.5, 0.25).
    """
    recurrence = declare(_duffing_rhs, alpha=alpha, beta=beta, gamma=gamma)
    exact = None
    if (alpha, beta, gamma) == _LOGISTIC_PARAMS:
        def exact(t):
            x = 1.0 / (1.0 + math.exp(-t))
            return np.array([x, x * (1.0 - x)])

    return ProblemDefinition(
        name="duffing",
        recurrence=recurrence,
        default_initial=np.array([0.5, 0.25]),
        exact_solution=exact,
    )


def _decay(k) -> str:
    """The source of e^(-t)'s coefficient at index k about t,
    e^(-t) (-1)^k / k!, with _exp_t = e^(-t).  Past k = 170, k! exceeds the
    float range and the loop (k None) takes it in log space; written-out
    indices stop below _UNROLL_LIMIT."""
    if k is None:
        return ("(_exp_t * (-1.0 if k % 2 else 1.0) / factorial(k) if k <= 170"
                " else (-1.0 if k % 2 else 1.0) * exp(-t - lgamma(k + 1)))")
    sign = "-1.0" if k % 2 else "1.0"
    return f"_exp_t * {sign} / {math.factorial(k)}"


def _robertson_rhs(x1, x2, x3):
    f = Series("f", _Leaf(_decay, "_exp_t = exp(-t)"))
    a1 = Series("a1", 0.04 * x1)
    a23 = Series("a23", 1e4 * (x2 * x3))
    a22 = Series("a22", 3e7 * (x2 * x2))
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
        recurrence=declare(_robertson_rhs),
        default_initial=np.array([1.0, 0.0, 0.0]),
        exact_solution=exact,
    )


def _van_der_pol_rhs(u, v, *, eps):
    uu = Series("uu", u * u)
    return (v, -u + eps * v - eps * (uu * v))


def van_der_pol(epsilon: float = 10.0) -> ProblemDefinition:
    """Van der Pol oscillator U' = V, V' = -U + eps (1 - U^2) V; stiffness
    grows with eps."""
    eps, = _finite(epsilon=epsilon)
    return ProblemDefinition(
        name="vanderpol",
        recurrence=declare(_van_der_pol_rhs, eps=eps),
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
