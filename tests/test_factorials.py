import numpy as np
import pytest

from thetahyp import (
    FactorialValue,
    FloatRangeError,
    ModularPair,
    Nome,
    PoleError,
    elliptic_factorial,
    elliptic_number,
    theta,
    theta_factor,
    theta_factorial,
    theta_factorial_multi,
    theta1,
)
from thetahyp.factorials import elliptic_factor

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)
PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)


class TestFactorialValue:
    def test_net_order_accounting(self):
        v = FactorialValue(2.0 + 0j, 2) / FactorialValue(1.0 + 0j, 1)
        assert v.order == 1
        assert v.is_zero and not v.is_pole
        assert v.value == 0j

    def test_pole_raises(self):
        v = FactorialValue(3.0 + 0j, -1)
        with pytest.raises(PoleError):
            v.value

    def test_ratio_resolves_structurally(self):
        num = FactorialValue(6.0 + 0j, 1)
        den = FactorialValue(2.0 + 0j, 1)
        assert abs((num / den).value - 3.0) < 1e-15

    def test_mul_with_scalar(self):
        v = FactorialValue(2.0 + 0j) * 3.0
        assert v.finite_part == 6.0
        assert (2.0 * FactorialValue(1.5 + 0j)).finite_part == 3.0

    def test_scalar_division_keeps_the_order(self):
        assert FactorialValue(2 + 1j, 1) / 2.0 == FactorialValue(1 + 0.5j, 1)

    def test_inverse_swaps_orders(self):
        v = FactorialValue(2.0 + 0j, 1).inverse()
        assert v.is_pole

    def test_underflowed_divisor_overflows(self):
        # a structural zero keeps finite part 1, so a finite part of 0 has
        # underflowed: its inverse is out of range, not a division by zero
        underflowed = FactorialValue(0j)
        with pytest.raises(FloatRangeError):
            underflowed.inverse()
        with pytest.raises(FloatRangeError):
            FactorialValue(2.0 + 0j) / underflowed
        assert (underflowed / FactorialValue(2.0 + 0j)).finite_part == 0


class TestThetaFactorial:
    def test_matches_direct_product(self):
        rng = np.random.default_rng(3)
        q, p = NOME.q, NOME.p
        for _ in range(20):
            t = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(t) < 0.2:
                continue
            n = int(rng.integers(0, 5))
            direct = 1.0 + 0j
            for m in range(n):
                direct *= theta(t * q**m, p)
            got = theta_factorial(t, NOME, n).value
            assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_negative_index_inversion(self):
        q = NOME.q
        t = 0.6 - 0.3j
        for n in (1, 2, 4):
            lhs = theta_factorial(t, NOME, -n)
            rhs = theta_factorial(t * q**-n, NOME, n).inverse()
            assert abs(lhs.value - rhs.value) <= 1e-12 * abs(rhs.value)

    def test_termination_zero(self):
        # theta(q^-N; p; q)_n vanishes for n > N
        q = NOME.q
        N = 2
        v = theta_factorial(q**-N, NOME, N + 1)
        assert v.is_zero

    def test_structural_zero_at_unity(self):
        v = theta_factor(1.0 + 0j, NOME.p)
        assert v.is_zero and v.order == 1

    @pytest.mark.parametrize("p", [NOME.p, 0j])
    def test_zero_flag_matches_theta_zero(self, p):
        # lattice zeros p^-M (only M = 0 at p = 0), points within 1e-13 of
        # them, which count as zeros, and generic points, which do not
        lattice = [p**-M for M in (range(-3, 4) if p else (0,))]
        near = [z * (1 + s) for z in lattice for s in (1e-13, -1e-13, 1e-13j)]
        generic = [0.6 + 0.2j, -0.45 + 0.5j, 1.3 - 0.7j, 1 + 1e-9]
        for z in lattice + near + generic:
            flagged = theta_factor(z, p).order == 1
            assert flagged == (theta(z, p) == 0), z
            assert flagged == (z not in generic), z

    def test_multi_is_product(self):
        ts = [0.5 + 0.2j, -0.4 + 0.3j]
        lhs = theta_factorial_multi(ts, NOME, 3)
        rhs = theta_factorial(ts[0], NOME, 3) * theta_factorial(ts[1], NOME, 3)
        assert abs(lhs.value - rhs.value) <= 1e-13 * abs(rhs.value)


class TestEllipticFactorial:
    def test_factor_is_the_series_bit_for_bit(self):
        # eval_vwp_additive reads elliptic_factor: through elliptic_number's
        # product form, test_additive_matches_multiplicative would compare
        # theta(z; p) with itself
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
            got, want = elliptic_factor(u, PAIR), theta1(u, PAIR)
            assert got.order == 0
            assert (got.finite_part.real.hex(), got.finite_part.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_matches_direct_product(self):
        u = 0.31 - 0.12j
        direct = 1.0 + 0j
        for m in range(3):
            direct *= elliptic_number(u + m, PAIR)
        got = elliptic_factorial(u, PAIR, 3).value
        assert abs(got - direct) <= 1e-12 * abs(direct)

    def test_negative_index(self):
        u = 0.31 - 0.12j
        lhs = elliptic_factorial(u, PAIR, -2)
        rhs = elliptic_factorial(u - 2, PAIR, 2).inverse()
        assert abs(lhs.value - rhs.value) <= 1e-12 * abs(rhs.value)

    def test_unit_argument_orders(self):
        # [1]_{-n} is a structural pole, so its reciprocal (which is what
        # enters series denominators) vanishes and terminates the sum
        v = elliptic_factorial(1.0 + 0j, PAIR, -2)
        assert v.is_pole
        assert v.inverse().is_zero
        # [0]_n = 0 for n > 0 since [0] = 0
        assert elliptic_factorial(0j, PAIR, 2).is_zero
