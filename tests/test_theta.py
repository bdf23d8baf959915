import cmath
import math

import numpy as np
import pytest

from thetahyp import (
    BranchError,
    ModularPair,
    Nome,
    ThetaDomainError,
    apply_modular,
    elliptic_number,
    nome_from_modular,
    p_pochhammer,
    theta,
    theta1,
    theta1_modular_s_multiplier,
    theta_zero_index,
)
from thetahyp.theta import sqrt_positive_real


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
        nome = nome_from_modular(pair)
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
