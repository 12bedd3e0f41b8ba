"""Correction kernel: closed-form integral against quadrature and algebra."""

import math
import random

import pytest
from scipy.integrate import quad

from vihpm.kernel import CorrectionKernel
from vihpm.series import Series, add, differentiate, evaluate, make_series

from ring_helpers import scale


class TestConstruction:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            CorrectionKernel(0, 5)
        # before, a float order was stored and a text one raised TypeError
        with pytest.raises(ValueError, match="^order must be an integer, got 7.5$"):
            CorrectionKernel(7.5, 12)
        with pytest.raises(ValueError, match="^order must be an integer, got 'a'$"):
            CorrectionKernel("a", 5)

    def test_rejects_truncation_below_order(self):
        with pytest.raises(ValueError):
            CorrectionKernel(7, 6)

    def test_rejects_mismatched_residual(self):
        # integral floats become ints; before, integrate raised TypeError
        k = CorrectionKernel(7.0, 12.0)
        assert k == CorrectionKernel(7, 12) and type(k.order) is int
        assert k.integrate(make_series([1.0], 12)).truncation == 12
        with pytest.raises(ValueError):
            k.integrate(make_series([1.0], 11))


class TestMultiplier:
    def test_seventh_order_value(self):
        k = CorrectionKernel(7, 12)
        # (-1)^7 (0 - 1)^6 / 6! = -1/720
        assert k.multiplier(0.0, 1.0) == pytest.approx(-1.0 / 720.0, rel=1e-15)

    def test_vanishes_at_upper_limit(self):
        k = CorrectionKernel(7, 12)
        assert k.multiplier(0.83, 0.83) == 0.0

    def test_even_order_sign(self):
        k = CorrectionKernel(2, 4)
        # (-1)^2 (t - x)^1 / 1! = t - x
        assert k.multiplier(0.25, 1.0) == pytest.approx(-0.75, rel=1e-15)


class TestIntegrate:
    def test_constant_input_order_seven(self):
        k = CorrectionKernel(7, 12)
        out = k.integrate(make_series([35.0], 12))
        assert out.coeffs[7] == pytest.approx(-35.0 / 5040.0, rel=1e-15)
        assert out.coeffs[7] == pytest.approx(-1.0 / 144.0, rel=1e-15)
        assert all(c == 0.0 for i, c in enumerate(out.coeffs) if i != 7)

    def test_quartic_monomial_order_seven(self):
        k = CorrectionKernel(7, 12)
        out = k.integrate(make_series([0.0, 0.0, 0.0, 0.0, 1.0], 12))
        assert out.coeffs[11] == pytest.approx(-1.0 / 1663200.0, rel=1e-15)
        assert sum(c != 0.0 for c in out.coeffs) == 1

    def test_degree_shift_and_scaling(self):
        m, w = 3, 10
        k = CorrectionKernel(m, w)
        for j in range(w + 1):
            mono = make_series([0.0] * j + [1.0], w)
            out = k.integrate(mono)
            if j + m > w:
                assert all(c == 0.0 for c in out.coeffs)
            else:
                expect = -math.factorial(j) / math.factorial(j + m)
                assert out.coeffs[j + m] == pytest.approx(expect, rel=1e-15)
                assert sum(c != 0.0 for c in out.coeffs) == 1

    def test_image_discards_beyond_truncation(self):
        k = CorrectionKernel(7, 12)
        top = make_series([0.0] * 12 + [5.0], 12)
        assert all(c == 0.0 for c in k.integrate(top).coeffs)

    def test_linearity(self):
        rng = random.Random(3)
        k = CorrectionKernel(7, 19)
        f = Series(tuple(rng.uniform(-1, 1) for _ in range(20)))
        g = Series(tuple(rng.uniform(-1, 1) for _ in range(20)))
        a, b = 1.7, -0.4
        lhs = k.integrate(add(scale(f, a), scale(g, b)))
        rhs = add(scale(k.integrate(f), a), scale(k.integrate(g), b))
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert abs(x - y) <= 1e-14 * max(abs(x), abs(y), 1e-30)

    def test_derivative_left_inverse(self):
        """m-fold differentiation inverts the integral up to sign on the
        degrees the truncated image retains."""
        rng = random.Random(4)
        m, w = 7, 19
        k = CorrectionKernel(m, w)
        f = Series(tuple(rng.uniform(-1, 1) for _ in range(w + 1)))
        back = differentiate(k.integrate(f), m)
        for j in range(w - m + 1):
            assert abs(back.coeffs[j] + f.coeffs[j]) <= 1e-14 * abs(f.coeffs[j])

    def test_integral_of_derivative_drops_taylor_head(self):
        """K(v^(m)) = -(v - T_{m-1} v) on the retained degrees: the identity
        that makes the correction map a Picard step."""
        rng = random.Random(5)
        for m, w in ((1, 6), (3, 10), (7, 19)):
            v = Series(tuple(rng.uniform(-1, 1) for _ in range(w + 1)))
            image = CorrectionKernel(m, w).integrate(differentiate(v, m))
            assert image.coeffs[:m] == (0.0,) * m
            for got, c in zip(image.coeffs[m:], v.coeffs[m:]):
                assert abs(got + c) <= 1e-14 * abs(c)

    def test_against_adaptive_quadrature(self):
        rng = random.Random(42)
        k = CorrectionKernel(7, 12)
        for _ in range(8):
            f = make_series([rng.uniform(-2, 2) for _ in range(6)], 12)
            img = k.integrate(f)
            for x in (0.25, 0.5, 1.0):
                ref, _ = quad(
                    lambda t: k.multiplier(t, x) * evaluate(f, t),
                    0.0,
                    x,
                    epsabs=1e-16,
                    epsrel=1e-12,
                )
                assert abs(evaluate(img, x) - ref) <= 1e-10 * max(abs(ref), 1e-30)

    def test_low_order_closed_form(self):
        # m=1: lam = -1, integral of f=1 is -x
        k = CorrectionKernel(1, 3)
        out = k.integrate(make_series([1.0], 3))
        assert out.coeffs == (0.0, -1.0, 0.0, 0.0)
