"""The p -> 0 limit of the elliptic identities against their classical
basic hypergeometric counterparts (Gasper-Rahman, Basic Hypergeometric
Series, 2nd ed.), each retyped in mpmath from that source rather than from
the elliptic formulas. At p = 0, theta(z; 0) = 1 - z, so an elliptic
shifted factorial is the q-shifted factorial (a; q)_k.
"""

import cmath
import itertools

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp, mpc = mpmath.mp, mpmath.mpc

from thetahyp import Nome, sample_bailey, sample_ft, verify_bailey, verify_ft_sum  # noqa: E402
from thetahyp.identities import DEFAULT_BAND, BaileyParams, FTParams, _admissible  # noqa: E402

QS = (0.35 + 0.1j, -0.2 + 0.5j, 0.6 - 0.1j)


def poch(a, q, k):
    """(a; q)_k."""
    return mpmath.fprod(1 - a * q**j for j in range(k))


def jackson_8w7(a, b, c, d, e, f, q, n):
    """Both sides of Jackson's terminating 8phi7 sum, Gasper-Rahman (2.6.2):
    8W7(a; b, c, d, e, q^-n; q, q) = (aq, aq/bc, aq/bd, aq/cd; q)_n /
    (aq/b, aq/c, aq/d, aq/bcd; q)_n when a^2 q^(n+1) = bcde, with f standing
    for q^-n on the left."""
    top, bottom = (a, b, c, d, e, f), (q, a * q / b, a * q / c, a * q / d, a * q / e, a * q / f)
    lhs = mpmath.fsum(
        (1 - a * q ** (2 * k)) / (1 - a) * q**k
        * mpmath.fprod(poch(x, q, k) for x in top) / mpmath.fprod(poch(y, q, k) for y in bottom)
        for k in range(n + 1)
    )
    rhs = mpmath.fprod(poch(x, q, n) for x in (a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d))) / (
        mpmath.fprod(poch(y, q, n) for y in (a * q / b, a * q / c, a * q / d, a * q / (b * c * d)))
    )
    return lhs, rhs


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("seed", range(10))
def test_ft_sum_at_p_0_is_jacksons_8phi7_sum(q, seed):
    # the 10E9 sum at t is 8W7(t0^2; t0 t1, t0 t2, t0 t3, t0 t5, t0 t4), with
    # t0 t4 = q^-N, and prod t = q is Jackson's balancing condition
    with mp.workdps(30):
        for N in range(1, 11):
            params = sample_ft(seed, N, Nome(q, 0))
            rep = verify_ft_sum(params)
            t0, t1, t2, t3, t4, t5 = (mpc(x) for x in params.t)
            lhs, rhs = jackson_8w7(t0**2, t0 * t1, t0 * t2, t0 * t3, t0 * t5, t0 * t4, mpc(q), N)
            assert abs(rep.rhs - rhs) <= 1e-13 * abs(rhs), N
            assert abs(rep.lhs - lhs) <= 1e-8 * abs(lhs), N


def w10_9(a, bs, q, n):
    """The very-well-poised 10W9(a; bs; q, q) of Gasper-Rahman (2.1.11),
    summed at k = 0..n: (1 - a q^2k) / (1 - a) (a, bs; q)_k / (q, aq/bs;
    q)_k q^k, the seven bs one of them q^-n."""
    top = (a, *bs)
    return mpmath.fsum(
        (1 - a * q ** (2 * k)) / (1 - a) * q**k
        * mpmath.fprod(poch(x, q, k) for x in top) / mpmath.fprod(poch(a * q / x, q, k) for x in top)
        for k in range(n + 1)
    )


def bailey_10w9(a, b, c, d, e, f, q, n, m):
    """Both sides of Bailey's 10phi9 transformation, Gasper-Rahman (2.9.1),
    and its seventh parameter g = lam a q^(n+1) / (ef), lam = q a^2 / (bcd):
    10W9(a; b, c, d, e, f, g, q^-n; q, q) = (aq, aq/ef, lam q/e, lam q/f;
    q)_n / (aq/e, aq/f, lam q/ef, lam q; q)_n 10W9(lam; lam b/a, lam c/a,
    lam d/a, e, f, g, q^-n; q, q), with m standing for q^-n."""
    lam = q * a**2 / (b * c * d)
    g = lam * a * q ** (n + 1) / (e * f)
    lhs = w10_9(a, (b, c, d, e, f, g, m), q, n)
    prefactor = mpmath.fprod(poch(x, q, n) for x in (a * q, a * q / (e * f), lam * q / e, lam * q / f)) / (
        mpmath.fprod(poch(y, q, n) for y in (a * q / e, a * q / f, lam * q / (e * f), lam * q))
    )
    return lhs, prefactor * w10_9(lam, (lam * b / a, lam * c / a, lam * d / a, e, f, g, m), q, n), g


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("seed", range(10))
def test_bailey_transformation_at_p_0_is_baileys_10phi9_transformation(q, seed):
    # the 12E11 sum at t is 10W9(t0^2; t0 t1, ..., t0 t5, t0 t7, t0 t6), with
    # t0 t6 = q^-N, and prod t = q^2 is the balance t0 t7 = lam a q^(N+1) / (ef)
    with mp.workdps(30):
        for N in range(1, 11):
            params = sample_bailey(seed, N, Nome(q, 0))
            rep = verify_bailey(params)
            t0, *ts = (mpc(x) for x in params.t)
            b, c, d, e, f = (t0 * t for t in ts[:5])
            lhs, rhs, g = bailey_10w9(t0**2, b, c, d, e, f, mpc(q), N, t0 * ts[5])
            assert abs(t0 * ts[6] - g) <= 1e-13 * abs(g), N
            assert abs(rep.rhs - rhs) <= 1e-11 * abs(rhs), N
            assert abs(rep.lhs - lhs) <= 1e-8 * abs(lhs), N


def classical_sides(params):
    """The classical (lhs, rhs) at p = 0 of FT or Bailey parameters."""
    t0, *ts = (mpc(x) for x in params.t)
    q, N = mpc(params.nome.q), params.N
    if isinstance(params, FTParams):
        return jackson_8w7(t0**2, t0 * ts[0], t0 * ts[1], t0 * ts[2], t0 * ts[4], t0 * ts[3], q, N)
    return bailey_10w9(t0**2, *(t0 * t for t in ts[:5]), q, N, t0 * ts[5])[:2]


@pytest.mark.parametrize("cls", [FTParams, BaileyParams])
def test_both_sides_approach_the_classical_sides_at_rate_p(cls):
    # t drawn once at p = 0 and kept at p_k = 10^-k e^(0.7i), k = 2..12:
    # r = |side(p) - side(0)| / (|side(0)| |p|) stays bounded, and agrees
    # at k = 6 and 8 without falling to 0, so each side converges as O(|p|),
    # no faster and no slower. A p_k that _admissible refuses is skipped
    rows = admitted = compared = 0
    with mp.workdps(30):
        for q, seed, N in itertools.product(QS, range(10), (2, 4, 6)):
            params = cls.draw(np.random.default_rng(seed), N, Nome(q, 0), DEFAULT_BAND)
            limits, rates = classical_sides(params), {}
            for k in range(2, 13):
                p, rows = 10.0**-k * cmath.exp(0.7j), rows + 1
                at_p = cls(params.t, Nome(q, p), N)
                if (sides := _admissible(at_p)) is None:
                    continue
                rep, admitted = at_p.check(sides, 1e-8), admitted + 1
                rates[k] = [
                    float(abs(side - limit) / (abs(limit) * abs(p))) for side, limit in zip((rep.lhs, rep.rhs), limits)
                ]
                assert max(rates[k]) <= 1e5, (q, seed, N, k)
            if 6 in rates and 8 in rates:
                compared += 1
                for r6, r8 in zip(rates[6], rates[8]):
                    assert r6 > 0.05 and abs(r6 - r8) <= 0.02 * r8, (q, seed, N)
    assert admitted >= 0.9 * rows and compared >= 0.9 * len(QS) * 10 * 3
