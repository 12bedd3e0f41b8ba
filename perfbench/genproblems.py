"""Seeded generator of manufactured boundary value problems.

Each problem has a known exact solution ``u(x) = exp(a x) p(x)`` and the
normal form ``u^(m) = sum_i q_i(x) prod_j u^(d_ij) + f(x)``: one or two
linear or quadratic operator terms with polynomial coefficients ``q_i``, and
a forcing ``f`` computed so that ``u`` solves the equation exactly.  The
forcing stays in the exponential-polynomial class the problem format
accepts: the linear terms contribute ``exp(a x)`` pieces and the quadratic
terms ``exp(2 a x)`` pieces.

Between 0 and m conditions sit at the origin, so some problems are
initial-value problems with nothing to shoot for; the others sit at b/2 and
b.  Quadratic terms appear only in the initial-value problems.  A shooting
problem gets linear terms only, so its boundary residual is affine in the
free constants and Newton meets it in one or two steps.  With quadratic
terms in shooting problems, Newton from zero constants diverged on about
0.4% of the pool, and a benchmark workload must not fail.  The structure is
fixed in advance: problems are never filtered on how the solver fares with
them.

A pool is a balanced design: three problems for every combination of order
(2..7), truncation W (14..24) and share of conditions at the origin (0, 1/3,
2/3, all), with k = ceil(W/m).  These set most of an operation's cost, so
fixing their mix keeps the cost distribution, and above all its tail, the
same from seed to seed.  The seed shuffles the order of the pool, spreads
the domain end, the number of operator terms, the kind of the first term and
the command evenly over it, and draws everything else.

The seed drives only this generator.  The program under test sees nothing
but the rendered problem text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

ORDERS = range(2, 8)
TRUNCATIONS = range(14, 25)
ORIGIN_SHARES = 4
DOMAIN_ENDS = (0.5, 1.0)
CONVERGENCE_ONE_IN = 4
OPERATOR_COEFF = 1.5
CONVERGENCE_DEPTH = 4
REPLICATES = 3
POOL_SIZE = REPLICATES * len(ORDERS) * len(TRUNCATIONS) * ORIGIN_SHARES
# which operator terms are quadratic, spread evenly: half the problems have
# one term, half two, and each position is quadratic half of the time (in
# initial-value problems; shooting problems make every term linear)
TERM_KINDS = (
    (False,), (True,), (False,), (True,),
    (False, False), (False, True), (True, False), (True, True),
)


@dataclass(frozen=True)
class Manufactured:
    """One generated problem: its text, its command and its Newton dimension."""

    name: str
    command: str
    text: str
    order: int
    dimension: int

    def argv(self, path: str) -> list[str]:
        """Arguments for ``vihpm.cli.main`` with the problem stored at ``path``."""
        if self.command == "solve":
            return ["solve", path]
        return ["convergence", path, "--depth", str(CONVERGENCE_DEPTH)]


def _poly_mul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p: list[float], q: list[float]) -> list[float]:
    n = max(len(p), len(q))
    p = p + [0.0] * (n - len(p))
    q = q + [0.0] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def derivative_polys(rate: float, poly: tuple[float, ...], count: int) -> list[list[float]]:
    """``P_0 .. P_count`` with ``(exp(a x) p)^(d) = exp(a x) P_d(x)``.

    Uses ``P_{d+1} = P_d' + a P_d``.
    """
    out = [list(poly)]
    for _ in range(count):
        prev = out[-1]
        deriv = [k * c for k, c in enumerate(prev)][1:] or [0.0]
        out.append(_poly_add(deriv, [rate * c for c in prev]))
    return out


def _horner(poly: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _numbers(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _draw(rng: random.Random, low: float, high: float) -> float:
    # two decimals keep the problem files readable; repr stays exact
    return round(rng.uniform(low, high), 2)


def _spread(rng: random.Random, values: Sequence, count: int) -> list:
    """``values`` repeated evenly over ``count`` slots, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def generate_one(
    rng: random.Random,
    name: str,
    m: int,
    truncation: int,
    n_origin: int,
    b: float,
    quadratic: Sequence[bool],
    command: str,
) -> Manufactured:
    """Draw the coefficients of one problem with the given structure."""
    iterations = -(-truncation // m)
    if n_origin < m:
        # a shooting problem gets linear terms only (see the module docstring)
        quadratic = (False,) * len(quadratic)

    rate = _draw(rng, -1.0, 1.0)
    poly = [_draw(rng, 0.5, 1.5) * rng.choice((-1.0, 1.0))]
    poly += [_draw(rng, -1.0, 1.0) for _ in range(rng.randint(0, 2))]
    derivs = derivative_polys(rate, tuple(poly), m)

    linear_forcing = list(derivs[m])
    quadratic_forcing = [0.0]
    term_lines = []
    for is_quadratic in quadratic:
        coeff = [
            _draw(rng, -OPERATOR_COEFF, OPERATOR_COEFF)
            for _ in range(rng.randint(1, 2))
        ]
        if is_quadratic:
            factors = tuple(sorted((rng.randrange(m), rng.randrange(m))))
            contribution = _poly_mul(
                coeff, _poly_mul(derivs[factors[0]], derivs[factors[1]])
            )
            quadratic_forcing = _poly_add(
                quadratic_forcing, [-c for c in contribution]
            )
        else:
            factors = (rng.randrange(m),)
            contribution = _poly_mul(coeff, derivs[factors[0]])
            linear_forcing = _poly_add(linear_forcing, [-c for c in contribution])
        term_lines.append(
            f"term 0.0 {_numbers(coeff)} ; {' '.join(str(d) for d in factors)}"
        )
    term_lines.append(f"term {rate!r} {_numbers(linear_forcing)}")
    if any(c != 0.0 for c in quadratic_forcing):
        term_lines.append(f"term {2.0 * rate!r} {_numbers(quadratic_forcing)}")

    # Each off-origin condition constrains the derivative order equal to a
    # degree the origin leaves free, so the linearised shooting system is
    # triangular up to the operator terms and not singular by construction.
    origin = set(rng.sample(range(m), n_origin))
    conditions = [(0.0, d) for d in sorted(origin)]
    conditions += [
        (rng.choice((b / 2.0, b)), d) for d in range(m) if d not in origin
    ]

    bc_lines = []
    for point, d in conditions:
        value = math.exp(rate * point) * _horner(derivs[d], point)
        bc_lines.append(f"bc {point!r} {d} {value!r}")

    text = "\n".join(
        [
            f"order {m}",
            f"domain 0 {b!r}",
            f"truncation {truncation}",
            f"iterations {iterations}",
            *term_lines,
            *bc_lines,
            f"exact {rate!r} {_numbers(poly)}",
        ]
    ) + "\n"
    return Manufactured(
        name=name,
        command=command,
        text=text,
        order=m,
        dimension=m - n_origin,
    )


def generate(seed: int) -> list[Manufactured]:
    """The pool of ``POOL_SIZE`` problems for ``seed``, in seeded order."""
    rng = random.Random(seed)
    cells = [
        (m, w, (share * m + 1) // (ORIGIN_SHARES - 1))
        for m in ORDERS
        for w in TRUNCATIONS
        for share in range(ORIGIN_SHARES)
    ] * REPLICATES
    rng.shuffle(cells)
    count = len(cells)
    ends = _spread(rng, DOMAIN_ENDS, count)
    kinds = _spread(rng, TERM_KINDS, count)
    commands = _spread(rng, ("convergence",) + ("solve",) * (CONVERGENCE_ONE_IN - 1), count)
    return [
        generate_one(rng, f"p{i:04d}", *cell, ends[i], kinds[i], commands[i])
        for i, cell in enumerate(cells)
    ]
