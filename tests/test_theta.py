import cmath
import math
import random
import sys

import numpy as np
import pytest

from thetahyp import (
    BranchError,
    ModularPair,
    Nome,
    ThetaDomainError,
    apply_modular,
    elliptic_number,
    p_pochhammer,
    theta,
    theta1,
    theta1_modular_s_multiplier,
    theta_many,
    theta_zero_index,
)
from thetahyp.errors import FloatRangeError, NonConvergenceError, PoleError
from thetahyp.theta import (
    LATTICE_RTOL,
    MAX_ZERO_ORDER,
    PRODUCT_TOL,
    _mul,
    _quot,
    sqrt_positive_real,
    theta_log_range,
)


def rand_pair(rng):
    return ModularPair(
        complex(rng.uniform(-0.3, 0.3), rng.uniform(0.15, 0.5)),
        complex(rng.uniform(-0.2, 0.2), rng.uniform(0.35, 0.9)),
    )


def rand_s_pair(rng):
    """A modular pair that stays in-domain under (sigma, tau) -> (sigma/tau, -1/tau)."""
    while True:
        pair = ModularPair(
            complex(rng.uniform(-0.3, -0.1), rng.uniform(0.2, 0.5)),
            complex(rng.uniform(0.0, 0.2), rng.uniform(0.4, 0.9)),
        )
        if (pair.sigma / pair.tau).imag > 0.05:
            return pair


class TestPolicyAndDomain:
    def test_modular_pair_domain(self):
        with pytest.raises(ThetaDomainError):
            ModularPair(0.3 - 0.1j, 0.1 + 0.5j)
        with pytest.raises(ThetaDomainError):
            ModularPair(0.3 + 0.1j, 0.1 - 0.5j)

    def test_nome_domain(self):
        with pytest.raises(ThetaDomainError):
            Nome(1.2 + 0j, 0.1 + 0j)
        with pytest.raises(ThetaDomainError):
            Nome(0.2 + 0j, 1.0 + 0j)

    def test_nome_from_modular(self):
        pair = ModularPair(0.05 + 0.3j, 0.1 + 0.5j)
        nome = pair.nome()
        assert abs(nome.q - cmath.exp(2j * math.pi * pair.sigma)) < 1e-15
        assert abs(nome.p - cmath.exp(2j * math.pi * pair.tau)) < 1e-15


class TestPochhammer:
    def test_finite_product(self):
        a, p = 0.3 + 0.2j, 0.4 + 0.1j
        assert p_pochhammer(a, p, 0) == 1.0
        expect = (1 - a) * (1 - a * p) * (1 - a * p * p)
        assert abs(p_pochhammer(a, p, 3) - expect) < 1e-15

    def test_negative_index_inversion(self):
        a, p = 0.3 + 0.2j, 0.4 + 0.1j
        lhs = p_pochhammer(a, p, -3)
        rhs = 1.0 / p_pochhammer(a * p**-3, p, 3)
        assert abs(lhs - rhs) < 1e-15 * abs(rhs)

    @pytest.mark.parametrize("n", [2.7, -1.5, math.nan, -math.inf])
    def test_non_integral_index_raises(self, n):
        # 2.7 once returned the n = 2 product and -inf the infinite one
        with pytest.raises(ThetaDomainError):
            p_pochhammer(0.5, 0.3, n)

    def test_integral_float_index_is_the_integer(self):
        assert p_pochhammer(0.5, 0.3, 3.0) == p_pochhammer(0.5, 0.3, 3)
        assert p_pochhammer(0.5, 0.3, -2.0) == p_pochhammer(0.5, 0.3, -2)
        assert p_pochhammer(0.5, 0.3, math.inf) == p_pochhammer(0.5, 0.3, None)

    def test_vanishing_factor_at_negative_index_is_a_pole(self):
        # (0.25; 0.5)_{-3} = 1 / (2; 0.5)_3, whose second factor is 1 - 1
        with pytest.raises(PoleError):
            p_pochhammer(0.25, 0.5, -3)

    def test_infinite_product_ratio(self):
        # (a;p)_inf / (a p^s; p)_inf == (a;p)_s
        a, p = 0.5 - 0.3j, 0.3 + 0.2j
        for s in (1, 2, 5):
            lhs = p_pochhammer(a, p, None) / p_pochhammer(a * p**s, p, None)
            rhs = p_pochhammer(a, p, s)
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestThetaFunction:
    def test_p_zero_collapse(self):
        z = 0.7 + 0.4j
        assert theta(z, 0j) == 1.0 - z
        # the zero z = 1 is detected to the same accuracy as at p != 0
        assert theta(1 + 1e-13, 0) == 0j

    def test_undefined_at_origin(self):
        with pytest.raises(ThetaDomainError):
            theta(0j, 0.3 + 0j)

    @pytest.mark.parametrize(
        "z",
        [2.5e-20 + 1e-21j, 1e300 * (1 + 1j), complex(1.5e308, 1.5e308)],  # the last: abs(z) overflows
    )
    def test_out_of_range_raises_float_range_error(self, z):
        with pytest.raises(FloatRangeError):
            theta(z, 0.25 + 0.05j)

    @pytest.mark.parametrize("p", [0.25 + 0.05j, 0.01 + 0.001j, 0.6 - 0.5j, 0.5j])
    def test_theta_raises_past_its_log_range(self, p):
        # the vwp sums list their batch only up to this bound, as every
        # argument past it raises
        bound = theta_log_range(p)
        for sign in (1, -1):
            for phase in np.linspace(0.0, 2 * math.pi, 13):
                with pytest.raises(FloatRangeError):
                    theta(cmath.exp(sign * bound * (1 + 1e-9) + 1j * phase), p)

    def test_lattice_zeros_exact(self):
        p = 0.3 + 0.1j
        for M in (-3, -1, 0, 1, 2, 4):
            assert theta_zero_index(p**-M, p) == M
            assert theta(p**-M, p) == 0j
        assert theta_zero_index(0.77 + 0.1j, p) is None

    def test_functional_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            if abs(p) < 0.05:
                continue
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            if abs(z) < 0.2:
                continue
            base = theta(z, p)
            assert abs(theta(p * z, p) - (-1 / z) * base) < 1e-12 * max(1.0, abs(base))
            assert abs(theta(1 / z, p) - (-1 / z) * base) < 1e-12 * max(1.0, abs(base))
            assert abs(theta(z / p, p) - (-z / p) * base) < 1e-11 * max(1.0, abs(base))


def _theta_or_none(z, p):
    """The scalar oracle: theta(z, p), or None where it raises."""
    try:
        return theta(z, p)
    except (ThetaDomainError, NonConvergenceError, OverflowError, ValueError, ZeroDivisionError):
        return None


def _bits(v):
    return None if v is None else (v.real.hex(), v.imag.hex())


def _adversarial_args(p):
    """Lattice zeros p^-M with points just inside and outside LATTICE_RTOL,
    arguments whose a = z p^k or b = p^(k+1) / z lands within a few ulps of
    PRODUCT_TOL, the unit circle, real arguments with both signed zeros,
    arguments on which theta overflows, returns NaN or raises, and moduli
    on a tie between two lattice indices, |p|^-(M + 1/2) (1 + f 2^-52),
    where np.log and math.log may round the index apart."""
    zs = []
    for M in range(-MAX_ZERO_ORDER - 1, MAX_ZERO_ORDER + 1):
        for f in range(-4, 5):
            try:
                zs.append(abs(p) ** -(M + 0.5) * (1 + f * 2**-52) + 0j)
            except (OverflowError, ZeroDivisionError):
                pass
    # the lattice zeros at |M| <= MAX_ZERO_ORDER and one step past it
    for M in range(-MAX_ZERO_ORDER - 1, MAX_ZERO_ORDER + 2):
        try:
            zero = p**-M
        except (OverflowError, ZeroDivisionError):
            continue
        zs += [zero * (1 + f * LATTICE_RTOL) for f in (0.0, 0.5, -0.5, 0.99, 1.01, 2.0, -2.0)]
        zs += [zero * complex(1, f * LATTICE_RTOL) for f in (0.5, 2.0)]
    for k in (8, 9, 12, 53):
        for f in (-4, -1, 0, 1, 4):
            try:
                zs += [PRODUCT_TOL * (1 + f * 2**-52) / p**k, p ** (k + 1) / (PRODUCT_TOL * (1 + f * 2**-52))]
            except (OverflowError, ZeroDivisionError):
                pass
    zs += [cmath.exp(1j * t) for t in np.linspace(0.0, 2 * math.pi, 33)]
    zs += [complex(x, s) for x in (-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 3.0) for s in (0.0, -0.0)]
    zs += [1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j]  # |z| = 1.0 exactly
    zs += [2.5e-20 + 1e-21j, 1e300 * (1 + 1j), 0j, complex(-0.0, -0.0), 5e-324 + 0j, complex(0, 1e-310)]
    zs += [complex(math.inf, 0), complex(-math.inf, 1), complex(math.nan, 1), complex(1, math.nan)]
    zs += [complex(1e308, 1e308), complex(1e200, 0), complex(1e-200, 1e-200)]
    zs += [complex(1.3e8, 1.3e8)]  # p / w is subnormal at p = 1e-300
    return zs


def _port_operands() -> list[tuple[complex, complex]]:
    """Operand pairs (a, b) for the ports of CPython's complex * and /: every
    pair of operands built from edge parts (signed zeros, subnormals, moduli
    1e+-300 and near the float64 limit, inf and nan), so both branches of
    _Py_c_quot and its tie |b.real| = |b.imag| are reached, and random pairs
    over moduli 1e-300 to 1e300."""
    parts = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.5e308, math.inf, -math.inf, math.nan]
    edges = [complex(re, im) for re in parts for im in parts]
    edges += [complex(x, y) for x in (0.7, -3e-320, 2e300) for y in (x, -x)]  # the tie
    rng = random.Random(11)

    def draw() -> complex:
        return cmath.rect(10 ** rng.uniform(-300, 300), rng.uniform(-math.pi, math.pi))

    return [(a, b) for a in edges for b in edges] + [(draw(), draw()) for _ in range(20_000)]


def _parts_hex(re: float, im: float) -> tuple[str, str]:
    return float(re).hex(), float(im).hex()


class TestComplexPorts:
    """_mul and _quot, which theta_many forms its products and quotients
    with, against CPython's complex * and /, compared by float.hex of both
    parts. From 3.14 on, CPython may recover an infinity or a zero where
    these formulas give nan+nanj (C11 Annex G); theta reads only finite lanes, so the ports
    leave that out, and on 3.14 such a lane is not compared."""

    @staticmethod
    def _check(port, op):
        pairs = _port_operands()
        a, b = np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
        with np.errstate(all="ignore"):
            got_re, got_im = port(a.real, a.imag, b.real, b.imag)
        compared = 0
        for (x, y), re, im in zip(pairs, got_re.tolist(), got_im.tolist()):
            try:
                want = op(x, y)
            except ZeroDivisionError:
                assert y == 0 and math.isnan(re) and math.isnan(im)
                continue
            if sys.version_info >= (3, 14) and math.isnan(re) and math.isnan(im):
                continue
            assert _parts_hex(re, im) == _parts_hex(want.real, want.imag), (x, y)
            compared += 1
        return compared

    def test_mul_is_cpythons_product(self):
        assert self._check(_mul, lambda x, y: x * y) > 50_000

    def test_quot_is_cpythons_quotient(self):
        assert self._check(_quot, lambda x, y: x / y) > 50_000

    def test_quot_differs_from_numpy_complex_division(self):
        # the reason for the port: numpy divides otherwise, here on some 40%
        # of random divisors
        rng = np.random.default_rng(5)
        a, b = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000) for _ in range(2))
        re, im = _quot(a.real, a.imag, b.real, b.imag)
        want = [x / y for x, y in zip(a.tolist(), b.tolist())]
        assert [_parts_hex(*z) for z in zip(re.tolist(), im.tolist())] == [_parts_hex(w.real, w.imag) for w in want]
        numpy = a / b
        assert sum(w != v for w, v in zip(want, numpy.tolist())) > 1_000


class TestThetaMany:
    """theta_many against the scalar theta, compared by float.hex of both
    parts: equal bits, NaN included, and None exactly where theta raises."""

    @pytest.mark.parametrize(
        "p",
        [
            0.25 + 0.05j,
            0.01 + 0.001j,  # K(p) = 10 factors, near the floor of 8
            0.6 - 0.5j,
            0.3 + 0j,
            0.5 + 0j,  # every power p**j is exact
            complex(-0.3, -0.0),
            0.5j,
            0.45 + 0.35j,  # np.log and math.log round one tie apart (numpy 2.4, x86-64)
            0j,
            1e-300 + 0j,
            5e-324 + 0j,  # p**2 underflows to 0
            complex(math.nan, 0.0),  # a NaN nome is out of the domain
            complex(1.5e308, 1.5e308),  # abs(p) overflows
        ],
    )
    def test_adversarial_arguments(self, p):
        zs = _adversarial_args(p)
        assert [_bits(v) for v in theta_many(zs, p)] == [_bits(_theta_or_none(z, p)) for z in zs]

    def test_adversarial_corpus_reaches_every_outcome(self):
        p = 0.25 + 0.05j
        values = [_theta_or_none(z, p) for z in _adversarial_args(p)]
        assert any(v is None for v in values)
        assert any(v == 0 for v in values)
        # the value overflows on these two, so theta raises FloatRangeError
        assert theta_many([2.5e-20 + 1e-21j, 1e300 * (1 + 1j)], p) == [None, None]

    def test_random_arguments(self):
        rng = np.random.default_rng(2024)
        p = 0.25 + 0.05j
        zs = [complex(z) for z in 10 ** rng.uniform(-3, 3, 10_000) * np.exp(2j * math.pi * rng.uniform(0, 1, 10_000))]
        assert [_bits(v) for v in theta_many(zs, p)] == [_bits(theta(z, p)) for z in zs]

    @pytest.mark.parametrize("p", [0.99 + 0j, 0.7 + 0.7j])
    def test_subnormal_arguments(self, p):
        # the fold p / z overflows, or nearly: with |p| this close to 1
        # each prefactor has some 70,000 factors, and leaves the float64
        # range within a few of them
        zs = [complex(3.2e-309, -3.2e-309), complex(2.3e-309, -4e-309), complex(5.6e-309, 1e-310),
              complex(4e-309, 3e-309), complex(3e-309, 0.0)]
        assert [_bits(v) for v in theta_many(zs, p)] == [_bits(_theta_or_none(z, p)) for z in zs]

    def test_non_convergent_and_out_of_domain(self):
        zs = [0.5 + 0.1j, 2.0 + 0j, 1 + 0j]
        # |p| so close to 1 that the product needs more than 16 * MAX_TERMS factors
        assert theta_many(zs, 0.9999 + 0j) == [_theta_or_none(z, 0.9999 + 0j) for z in zs] == [None, None, 0j]
        assert theta_many(zs, 1.0 + 0j) == [None, None, None]
        assert theta_many([], 0.25 + 0.05j) == []


class TestTheta1:
    def test_series_vs_product(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            pair = rand_pair(rng)
            u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
            a = theta1(u, pair, method="series")
            b = theta1(u, pair, method="product")
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))

    def test_oddness(self):
        pair = ModularPair(0.05 + 0.3j, 0.1 + 0.5j)
        u = 0.37 - 0.21j
        assert abs(theta1(u, pair) + theta1(-u, pair)) < 1e-14

    def test_quasiperiodicity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pair = rand_pair(rng)
            u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
            base = elliptic_number(u, pair)
            shift1 = elliptic_number(u + 1 / pair.sigma, pair)
            assert abs(shift1 + base) < 1e-11 * max(1.0, abs(base))
            shift2 = elliptic_number(u + pair.tau / pair.sigma, pair)
            mult = -cmath.exp(-1j * math.pi * pair.tau - 2j * math.pi * pair.sigma * u)
            assert abs(shift2 - mult * base) < 1e-11 * max(1.0, abs(mult * base))

    def test_unknown_method(self):
        pair = ModularPair(0.05 + 0.3j, 0.1 + 0.5j)
        with pytest.raises(ValueError):
            theta1(0.3, pair, method="magic")


class TestModular:
    def test_determinant_check(self):
        pair = ModularPair(0.05 + 0.3j, 0.1 + 0.5j)
        with pytest.raises(ValueError):
            apply_modular(pair, 1, 1, 1, 1)

    def test_t_shift_law(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pair = rand_pair(rng)
            u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4))
            shifted = ModularPair(pair.sigma, pair.tau + 1)
            lhs = theta1(u, shifted)
            rhs = cmath.exp(1j * math.pi / 4) * theta1(u, pair)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_s_transform_law(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            pair = rand_s_pair(rng)
            u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4))
            transformed = apply_modular(pair, 0, -1, 1, 0)
            lhs = theta1(u, transformed)
            rhs = theta1_modular_s_multiplier(u, pair) * theta1(u, pair)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_sqrt_branch(self):
        assert abs(sqrt_positive_real(4.0) - 2.0) < 1e-15
        s = sqrt_positive_real(-1 + 1e-3j)
        assert s.real > 0
        with pytest.raises(BranchError):
            sqrt_positive_real(-1.0 + 0j)
