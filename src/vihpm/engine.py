"""Series iteration engine: initial approximation, residual, correction map.

The solution process starts from a degree-(m-1) polynomial carrying the
origin conditions plus free constants, then repeatedly applies the
correction map ``B(v) = v + K(v^(m) - F(v))`` with the integral K of
:mod:`vihpm.kernel`.  Since ``K(v^(m)) = -(v - T_{m-1} v)`` exactly, B is
Picard iteration on Taylor coefficients (the Parker-Sochacki method),
``B(v) = T_{m-1} v + I^m F(v)``: v's first m coefficients, which carry the
origin conditions, are kept and ``c_{n+m} = F(v)_n * n!/(n+m)!``.  So the
k-th iterate lives at truncation ``W + k*m``, and each correction leaves a
growing prefix of the previous iterate's coefficients unchanged.  The
Picard step itself, with its generated code, is :func:`vihpm.kernel._picard`.

Between ring operations the engine passes plain coefficient tuples
(``Coeffs``) to the tuple functions of :mod:`vihpm.series`, which do not
check their results.  A :class:`~vihpm.series.Series` is built, unchecked,
only for a value that leaves the engine: the iterates of :func:`iterate` and
:func:`correct_once`, and what :func:`residual` and :func:`he_coefficients`
return; the tangents of :func:`_tangents` stay tuples.  :func:`iterate`
checks every new iterate once and raises :class:`NonFiniteIterateError`
when the arithmetic has overflowed.  A Newton pass's own inputs skip
:func:`make_series` too: the initial polynomial copies the origin
coefficients the spec computed, and checked, when it was built and checks
only the caller's constants, and a tangent seed ``x**j``, zeros and a one,
is built once per degree and truncation.  An ``n_iter`` given to
:func:`iterate` is held to the spec's series-degree cap by the checker of
:mod:`vihpm.problems`, so a count that breaks it raises
:class:`~vihpm.problems.InvalidProblemError` as a spec that breaks it does.

F is evaluated in one place, as He's polynomials: the order-k coefficient
in p of F on a parameter-embedded sum ``sum_i p**i u_i``.  The correction
and :func:`residual` take order 0 on the single part v, which is F(v);
:func:`he_coefficients` collects every order, and order 1 on ``(v, dv)`` is
the derivative of F at v along dv.  :func:`_tangents` differentiates the
whole iteration with respect to every free constant at once: per iterate it
builds that derivative once, as a sum over derivative orders d of
``dv^(d) * L_d``, and carries all the tangents through it and the same
Picard step (vector forward mode); only this module pairs a term's factors
into the chains of L_d (:func:`_rests`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, pairwise
from typing import Sequence

from .kernel import _picard
from .problems import ProblemSpec, _within_degree_cap
# pad_to, add, mul and make_series are not called here, and differentiate
# only by residual; perfbench/tracing.py wraps them on engine by name
from .series import (
    CACHE_SIZE,
    InvalidProblemError,
    Series,
    _check_same_ring,
    _checked,
    _count,
    _derivative,
    _numbers,
    _product,
    _sum,
    _trusted,
    add,
    differentiate,
    expand_exppoly,
    make_series,
    mul,
    pad_to,
    sub,
)

__all__ = [
    "NonFiniteIterateError",
    "initial_approx",
    "residual",
    "correct_once",
    "he_coefficients",
    "iterate",
]


# a ring value inside the engine: the coefficients c_0 .. c_W of a series
Coeffs = tuple[float, ...]


class NonFiniteIterateError(ArithmeticError):
    """A correction produced an infinite or NaN series coefficient.

    Also raised when a tangent (:func:`_tangents`), a boundary residual or a
    Newton step overflows.
    """


def initial_approx(spec: ProblemSpec, constants: Sequence[float]) -> Series:
    """Degree-(m-1) polynomial fixing origin data, free constants elsewhere.

    Each origin condition of derivative order j pins the Taylor coefficient
    ``c_j = value / j!``; the remaining degrees below m, in increasing
    order, take the entries of ``constants`` directly, and the degrees from
    m to W are zero.  Only the constants are checked: they come from the
    caller, while the spec checked its condition values and computed the
    origin coefficients once when it was built, so the coefficients are
    wrapped without re-validating them.  Non-numeric or non-finite
    constants raise :class:`~vihpm.series.InvalidProblemError`, as
    :func:`make_series` would.
    """
    values = _checked(_numbers, "constants", constants)
    free = spec.unknown_degrees()
    if len(values) != len(free):
        raise InvalidProblemError([f"expected {len(free)} free constants, got {len(values)}"])
    coeffs = [*spec._origin_head, *[0.0] * (spec.truncation + 1 - spec.order)]
    for degree, value in zip(free, values):
        coeffs[degree] = value
    return _trusted(tuple(coeffs))


@lru_cache(maxsize=CACHE_SIZE)
def _picks(
    factors: tuple[int, ...], k: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Ways a term's factors can draw parts so their product lands at order k.

    Each pick pairs every derivative order d_j in ``factors`` with a part
    index i_j, and i_1 + ... + i_r == k.  A term without factors has one
    (empty) pick at k = 0 and none above, so forcing reaches order 0 only.
    The index tuples are the weak compositions of k into r parts, taken by
    stars and bars: k stars and r - 1 bars fill k + r - 1 slots, and the
    parts are the runs of stars between consecutive bars.  Bar positions in
    lexicographic order give the picks in the lexicographic order of their
    part indices, which fixes the order in which :func:`_he_order` adds
    them up.
    """
    r = len(factors)
    if r == 0:
        return ((),) if k == 0 else ()
    return tuple([
        tuple(zip([b - a - 1 for a, b in pairwise((-1, *bars, k + r - 1))], factors))
        for bars in combinations(range(k + r - 1), r - 1)
    ])


@lru_cache(maxsize=CACHE_SIZE)
def _rests(factors: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each factor i of a term, d_i and the other factors' orders as a
    sorted tuple: the chain that ``dv^(d_i)`` multiplies in ``F'(v) dv``."""
    return tuple([
        (d, tuple(sorted(factors[:i] + factors[i + 1 :])))
        for i, d in enumerate(factors)
    ])


def _he_order(spec: ProblemSpec, parts: Sequence[Coeffs], k: int) -> Coeffs:
    """Order k in p of F(sum_i p**i parts[i]), in the parts' common ring.

    Every term adds its coefficient series times one derivative product for
    each pick of part indices summing to k, factors left to right, so order
    0 is F(parts[0]) itself.  Nothing is checked here; a zero tuple is built
    only when no term contributes.
    """
    w = len(parts[0]) - 1
    total: Coeffs | None = None
    for term in spec.terms:
        for pick in _picks(term.factors, k):
            acc = expand_exppoly(term.coeff, w).coeffs
            for i, d in pick:
                acc = _product(acc, _derivative(parts[i], d))
            total = acc if total is None else _sum(total, acc)
    if total is None:
        total = (0.0,) * (w + 1)
    return total


def residual(v: Series, spec: ProblemSpec) -> Series:
    """Equation defect ``v^(m) - F(v)`` in v's own ring."""
    return sub(differentiate(v, spec.order), _trusted(_he_order(spec, (v.coeffs,), 0)))


def correct_once(v: Series, spec: ProblemSpec) -> Series:
    """One correction ``T_{m-1} v + I^m F(v)``, F evaluated in v's own ring
    W, at truncation ``W + m``.  A v of fewer than m coefficients has zeros
    for its missing Taylor coefficients."""
    m = spec.order
    vc = v.coeffs
    head = vc + (0.0,) * (m - len(vc))
    return _trusted(_picard(head, _he_order(spec, (vc,), 0), m))


def he_coefficients(
    spec: ProblemSpec, parts: Sequence[Series]
) -> tuple[Series, ...]:
    """Orders h_0..h_K of F(sum_k p**k parts[k]) in p, K = len(parts) - 1.

    These are He's polynomials of F on the embedded sum; h_0 is the F the
    correction applies, bit for bit.
    """
    if len(parts) == 0:
        raise InvalidProblemError(["need at least one expansion part"])
    for u in parts[1:]:
        _check_same_ring(parts[0], u)
    coeffs = [u.coeffs for u in parts]
    return tuple([_trusted(_he_order(spec, coeffs, k)) for k in range(len(parts))])


def _sparse_first(f: Coeffs, g: Coeffs, f_zeros: int) -> Coeffs:
    """``f * g`` with the operand of fewer nonzero coefficients first.

    The product of :mod:`vihpm.series` skips the zero coefficients of its
    first operand only, so a seed ``x**j`` costs O(W) per product this way instead
    of O(W**2).  Taking four adjacent nonzero rows per pass, or a ring
    size's straight-line kernel when both operands are mostly nonzero, makes
    each row cheaper, not fewer, so the count of rows to add stays the cost.
    A tie keeps ``f`` first.  ``f_zeros`` is ``f.count(0.0)``, which the
    caller has; ``g``'s zeros are counted here, and the product is handed
    the count of the operand it takes first, so each operand is counted
    once.
    """
    g_zeros = g.count(0.0)
    if g_zeros > f_zeros:
        return _product(g, f, g_zeros)
    return _product(f, g, f_zeros)


def _linearization(
    spec: ProblemSpec, v: Coeffs
) -> tuple[tuple[int, Coeffs, int], ...]:
    """F'(v) as triples ``(d, L_d, zeros)``, ``F'(v) dv = sum_d dv^(d) L_d``,
    where ``zeros`` is ``L_d.count(0.0)``, counted once here for every
    tangent that :func:`_apply` takes through it.

    Putting dv into factor i of a term ``c * prod_l u^(d_l)`` leaves the
    chain ``c * prod_{l != i} v^(d_l)``.  Each distinct chain of a term (a
    sorted tuple of :func:`_rests`) is formed once, and the chains that pair
    with the same order d are summed into L_d.
    """
    w = len(v) - 1
    derivatives: dict[int, Coeffs] = {}
    linear: dict[int, Coeffs] = {}
    for term in spec.terms:
        chains: dict[tuple[int, ...], Coeffs] = {}
        for d, rest in _rests(term.factors):
            chain = chains.get(rest)
            if chain is None:
                chain = expand_exppoly(term.coeff, w).coeffs
                for e in rest:
                    if e not in derivatives:
                        derivatives[e] = _derivative(v, e)
                    chain = _sparse_first(chain, derivatives[e], chain.count(0.0))
                chains[rest] = chain
            linear[d] = _sum(linear[d], chain) if d in linear else chain
    return tuple([(d, weight, weight.count(0.0)) for d, weight in linear.items()])


def _apply(linear: tuple[tuple[int, Coeffs, int], ...], dv: Coeffs) -> Coeffs:
    """``F'(v) dv`` from the triples of :func:`_linearization`: one product
    per order d, which counts only the zeros of ``dv^(d)``, since the
    weight ``L_d`` comes with its count."""
    total: Coeffs | None = None
    for d, weight, zeros in linear:
        term = _sparse_first(weight, _derivative(dv, d), zeros)
        total = term if total is None else _sum(total, term)
    if total is None:
        total = (0.0,) * len(dv)
    return total


@lru_cache(maxsize=CACHE_SIZE)
def _seed(degree: int, truncation: int) -> Coeffs:
    """The tangent seed ``x**degree`` at ``truncation``; a tuple is
    immutable, so every tangent sweep can share it."""
    return (0.0,) * degree + (1.0,) + (0.0,) * (truncation - degree)


def _tangents(spec: ProblemSpec, iterates: Sequence[Series]) -> list[Coeffs]:
    """The last iterate's derivatives along the free constants, in the
    order of ``spec.unknown_degrees()``, as coefficient tuples; raises
    :class:`NonFiniteIterateError` when one overflows."""
    degrees = spec.unknown_degrees()
    w = iterates[0].truncation
    dvs = [_seed(degree, w) for degree in degrees]
    for v in iterates[:-1]:
        linear = _linearization(spec, v.coeffs)
        dvs = [_picard(dv, _apply(linear, dv), spec.order) for dv in dvs]
    # a non-finite coefficient stays non-finite, so one check at the end
    for degree, dv in zip(degrees, dvs):
        if not all(map(math.isfinite, dv)):
            raise NonFiniteIterateError(f"the tangent along x^{degree} is non-finite")
    return dvs


def iterate(
    spec: ProblemSpec,
    constants: Sequence[float],
    n_iter: int | None = None,
    known: Sequence[Series] = (),
) -> tuple[Series, ...]:
    """Run the correction map ``n_iter`` times from the initial polynomial.

    Returns the successive approximations v_0..v_n; ``v_k`` has truncation
    degree W + k*m, so the last entry is the solution.  The constants of
    the initial polynomial and each correction are checked, so every
    returned iterate is finite: :class:`NonFiniteIterateError` is raised
    when the iterate produced by a correction is not.  ``known``, v_0..v_j
    as a call at these constants returned them, are reused up to v_n; the
    constants are checked all the same.
    Before its first correction, each term's coefficient is expanded to
    ``W + (n-1)m``, the highest ring a correction evaluates F in, so every
    later expansion at up to n corrections is a slice.  An ``n_iter`` given
    here must keep W + n*m within ``MAX_SERIES_DEGREE``, as the spec's own
    count does.
    """
    if n_iter is None:
        n_iter = spec.iterations
    else:
        n_iter = _checked(_within_degree_cap, "n_iter", _checked(_count, "n_iter", n_iter), spec)
    # built first, so constants it rejects raise even when ``known`` is given
    head = initial_approx(spec, constants)
    iterates = [*known[: n_iter + 1]] or [head]
    if len(iterates) <= n_iter:
        for term in spec.terms:
            expand_exppoly(term.coeff, spec.truncation + (n_iter - 1) * spec.order)
    for k in range(len(iterates), n_iter + 1):
        nxt = correct_once(iterates[-1], spec)
        if not all(map(math.isfinite, nxt.coeffs)):
            raise NonFiniteIterateError(
                f"correction {k} made the iterate non-finite"
            )
        iterates.append(nxt)
    return tuple(iterates)
