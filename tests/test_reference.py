"""An independent 40-digit reference for the E and G series, the
very-well-poised sums, unilateral and bilateral (with the G/E split), and
the two multisum families.

Theta is evaluated by its product, theta factorials as plain products of
theta factors, and each coefficient is written out from its theta-factorial
product (Frenkel-Turaev 1997, Warnaar 2002, Rosengren 2004) in mpmath, with
none of it read through FactorTable or thetahyp.theta. The float64 terms, the
closed forms and the term ratios h_l are each checked against it.
"""

import cmath
import functools
import itertools
import math
import random

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp, mpc = mpmath.mp, mpmath.mpc

from thetahyp import (  # noqa: E402
    HForm,
    ModularPair,
    Nome,
    ThetaSeriesSpec,
    VwpSpec,
    apply_modular,
    coefficient,
    elliptic_number,
    eval_E,
    eval_G,
    eval_vwp,
    ge_split_check,
    h_eval,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    term_ratio_at,
    theta1,
)
from thetahyp import theta as float_theta  # noqa: E402
from thetahyp import vwp_coefficient as float_vwp_coefficient  # noqa: E402
from thetahyp.ellipticity import multi1_h, multi2_h  # noqa: E402
from thetahyp.factorials import FactorTable  # noqa: E402

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)
RTOL = 1e-12


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


@functools.cache
def theta(z, p):
    """theta(z; p) = prod_{k >= 0} (1 - z p^k)(1 - p^{k+1} / z)."""
    out, pk, eps = mpc(1), mpc(1), mpmath.mpf(10) ** -(mp.dps + 5)
    while abs(pk) > eps:
        out *= (1 - z * pk) * (1 - pk * p / z)
        pk *= p
    return out


def factorial(a, m, q, p):
    """(a; p; q)_m = prod_{i < m} theta(a q^i); (a)_{-m} = 1 / (a q^{-m})_m."""
    if m < 0:
        return 1 / factorial(a * q**m, -m, q, p)
    return math.prod((theta(a * q**i, p) for i in range(m)), start=mpc(1))


def vwp_coefficient(t, k, q, p):
    """Term k of the very-well-poised series at z = 1 with t = (t0, t1, ...):
    theta(t0^2 q^2k) / theta(t0^2) q^k prod_m (t0 t_m)_k / (q t0 / t_m)_k."""
    t0 = t[0]
    out = theta(t0**2 * q ** (2 * k), p) / theta(t0**2, p) * q**k
    for tm in t:
        out *= factorial(t0 * tm, k, q, p) / factorial(q * t0 / tm, k, q, p)
    return out


def spec_term(spec, k):
    """Term k, any integer, of a VwpSpec's series:
    theta(t0^2 q^2k) / theta(t0^2) (q z)^k prod_m (t0 t_m)_k / (q t0 / t_m)_k,
    with t_m running over ts, and over t0 too for a unilateral spec."""
    q, p = mpc(spec.nome.q), mpc(spec.nome.p)
    t0, z = mpc(spec.t0), mpc(spec.z)
    ms = [mpc(t) for t in spec.ts] + ([t0] if spec.kind == "unilateral" else [])
    out = theta(t0**2 * q ** (2 * k), p) / theta(t0**2, p) * (q * z) ** k
    for tm in ms:
        out *= factorial(t0 * tm, k, q, p) / factorial(q * t0 / tm, k, q, p)
    return out


def eg_term(spec, n):
    """Term n, any integer, of an E or G spec:
    prod_a (a)_n / prod_b (b)_n q^(alpha n (n-1) / 2) z^n, with b running
    over the denominator, and over q too for an E spec."""
    q, p = mpc(spec.nome.q), mpc(spec.nome.p)
    den = [mpc(b) for b in spec.denominator] + ([q] if spec.kind == "unilateral_E" else [])
    out = q ** (mpc(spec.alpha) * n * (n - 1) / 2) * mpc(spec.z) ** n
    for a in spec.numerator:
        out *= factorial(mpc(a), n, q, p)
    for b in den:
        out /= factorial(b, n, q, p)
    return out


def bailey_map(t, q):
    """The parameters s of the right-hand 12E11 series (principal root)."""
    s0 = mpmath.sqrt(q * t[0] / (t[1] * t[2] * t[3]))
    return [s0] + [s0 * x / t[0] for x in t[1:4]] + [t[0] * x / s0 for x in t[4:]]


def multi1_coefficient(params, lam):
    q, p, t = mpc(params.nome.q), mpc(params.nome.p), mpc(params.t)
    t6 = [mpc(x) for x in params.t6]
    n = params.n
    tau = [t6[0] * t**j for j in range(n)]
    out = q ** sum(lam) * t ** (2 * sum((n - 1 - j) * lam[j] for j in range(n)))
    for j, k in itertools.combinations(range(n), 2):
        for c, m in ((tau[k] * tau[j], lam[k] + lam[j]), (tau[k] / tau[j], lam[k] - lam[j])):
            out *= theta(c * q**m, p) / theta(c, p)
            out *= factorial(t * c, m, q, p) / factorial(q * c / t, m, q, p)
    for j in range(n):
        out *= theta(tau[j] ** 2 * q ** (2 * lam[j]), p) / theta(tau[j] ** 2, p)
        for tr in t6:
            out *= factorial(tr * tau[j], lam[j], q, p) / factorial(q * tau[j] / tr, lam[j], q, p)
    return out


def multi2_coefficient(params, lam):
    q, p = mpc(params.nome.q), mpc(params.nome.p)
    t = [mpc(x) for x in params.t]
    n = params.n
    out = q ** sum((j + 1) * lam[j] for j in range(n))
    for j, k in itertools.combinations(range(n), 2):
        tj, tk = t[j + 1], t[k + 1]
        for c, m in ((tj * tk, lam[j] + lam[k]), (tj / tk, lam[j] - lam[k])):
            out *= theta(c * q**m, p) / theta(c, p)
    for j in range(n):
        tj = t[j + 1]
        out *= theta(tj**2 * q ** (2 * lam[j]), p) / theta(tj**2, p)
        for tr in t:
            out *= factorial(tj * tr, lam[j], q, p) / factorial(q * tj / tr, lam[j], q, p)
    return out


# sampled params, reference coefficient, summation region and h_l
CASES = {
    "multi1_3_3": (
        lambda: sample_multi1(15, 3, 3, NOME),
        multi1_coefficient,
        lambda p: list(itertools.combinations_with_replacement(range(p.N + 1), p.n)),
        multi1_h,
    ),
    "multi2_3_3": (
        lambda: sample_multi2(16, 3, (3, 3, 3), NOME),
        multi2_coefficient,
        lambda p: list(itertools.product(*(range(N + 1) for N in p.Ns))),
        multi2_h,
    ),
    # mixed depths: the closed form's cross factorials at N_j, N_k and
    # N_j + N_k all differ
    "multi2_1_2_3": (
        lambda: sample_multi2(18, 3, (1, 2, 3), NOME),
        multi2_coefficient,
        lambda p: list(itertools.product(*(range(N + 1) for N in p.Ns))),
        multi2_h,
    ),
}


def rel(got, want):
    return float(abs(mpc(got) - want) / abs(want))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sides_match_reference(case):
    sample, coefficient, region, _ = CASES[case]
    params = sample()
    terms, closed = params.sides(FactorTable(params.nome))
    want = [coefficient(params, lam) for lam in region(params)]
    assert len(terms) == len(want)
    assert max(rel(c.value, w) for c, w in zip(terms, want)) <= RTOL
    # the identity: the closed form is the sum of the terms
    assert rel(closed.value, mpmath.fsum(want)) <= RTOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_h_matches_reference_ratio(case):
    sample, coefficient, region, h = CASES[case]
    params = sample()
    ref = {lam: coefficient(params, lam) for lam in region(params)}
    checked = 0
    for lam in ref:
        for l in range(1, params.n + 1):
            up = tuple(lj + (j == l - 1) for j, lj in enumerate(lam))
            if up not in ref:
                continue
            want = ref[up] / ref[lam]
            assert rel(h(params, l, [params.nome.q**lj for lj in lam]), want) <= RTOL, (lam, l)
            checked += 1
    assert checked >= 30


def test_ft_sides_match_reference():
    params = sample_ft(12, 6, NOME)
    terms, closed = params.sides(FactorTable(params.nome))
    q, p = mpc(params.nome.q), mpc(params.nome.p)
    want = [vwp_coefficient([mpc(x) for x in params.t], k, q, p) for k in range(params.N + 1)]
    assert len(terms) == len(want)
    assert max(rel(c.value, w) for c, w in zip(terms, want)) <= RTOL
    # the 10E9 sum: the closed form is the sum of the terms
    assert rel(closed.value, mpmath.fsum(want)) <= RTOL


def test_bailey_sides_match_reference():
    params = sample_bailey(13, 5, NOME)
    lhs, rhs, pref = params.sides(FactorTable(params.nome))
    q, p = mpc(params.nome.q), mpc(params.nome.p)
    t = [mpc(x) for x in params.t]
    for terms, ts in ((lhs, t), (rhs, bailey_map(t, q))):
        want = [vwp_coefficient(ts, k, q, p) for k in range(params.N + 1)]
        assert len(terms) == len(want)
        assert max(rel(c.value, w) for c, w in zip(terms, want)) <= RTOL
    # the 12E11 transformation: the left series is the prefactor times the right one
    lhs_sum = mpmath.fsum(vwp_coefficient(t, k, q, p) for k in range(params.N + 1))
    assert rel(pref.value * sum((c.value for c in rhs), 0j), lhs_sum) <= RTOL


def test_depth_8_sides_match_reference():
    # the 10E9 and 12E11 sides at N = 8, which overflowed to NaN while each
    # term divided the product of its numerator factorials by that of its
    # denominators; the draws are those of the N = 6 and N = 5 checks above
    params = sample_ft(12, 8, NOME)
    q, p = mpc(params.nome.q), mpc(params.nome.p)
    terms, closed = params.sides(FactorTable(params.nome))
    want = [vwp_coefficient([mpc(x) for x in params.t], k, q, p) for k in range(params.N + 1)]
    assert max(rel(c.value, w) for c, w in zip(terms, want)) <= RTOL
    assert rel(closed.value, mpmath.fsum(want)) <= RTOL
    params = sample_bailey(13, 8, NOME)
    lhs, rhs, pref = params.sides(FactorTable(params.nome))
    t = [mpc(x) for x in params.t]
    for terms, ts in ((lhs, t), (rhs, bailey_map(t, q))):
        want = [vwp_coefficient(ts, k, q, p) for k in range(params.N + 1)]
        assert max(rel(c.value, w) for c, w in zip(terms, want)) <= RTOL
    lhs_sum = mpmath.fsum(vwp_coefficient(t, k, q, p) for k in range(params.N + 1))
    assert rel(pref.value * sum((c.value for c in rhs), 0j), lhs_sum) <= RTOL


def annulus_draw(rng):
    while True:
        w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if 0.5 <= abs(w) <= 0.9:
            return w


@pytest.mark.parametrize("seed", range(4))
def test_bilateral_coefficients_match_reference(seed):
    # the negative indices read the factorials' downward prefixes
    rng = random.Random(seed)
    spec = VwpSpec(annulus_draw(rng), tuple(annulus_draw(rng) for _ in range(4)), annulus_draw(rng), NOME, "bilateral")
    for n in range(-8, 9):
        assert rel(float_vwp_coefficient(spec, n).value, spec_term(spec, n)) <= RTOL, n


def eg_spec(seed, kind, alpha, counts):
    rng = random.Random(seed)
    num, den = (tuple(annulus_draw(rng) for _ in range(k)) for k in counts)
    return ThetaSeriesSpec(kind, num, den, alpha, annulus_draw(rng), NOME)


# seeded E and G specs with alpha 0 and 1; the unequal ones have one
# numerator more than their denominators, the q of E counted
EG_SPECS = {
    **{f"E_seed{seed}": eg_spec(seed, "unilateral_E", seed % 2, (3, 2)) for seed in range(4)},
    **{f"G_seed{seed}": eg_spec(seed, "bilateral_G", seed % 2, (2, 2)) for seed in range(4)},
    "E_unequal": eg_spec(4, "unilateral_E", 1, (3, 1)),
    "G_unequal": eg_spec(5, "bilateral_G", 1, (3, 2)),
}


@pytest.mark.parametrize("case", sorted(EG_SPECS))
def test_eg_series_match_reference(case):
    spec = EG_SPECS[case]
    # a G window reaches negative n, read from the downward prefixes
    ns = range(13) if spec.kind == "unilateral_E" else range(-6, 7)
    want = [eg_term(spec, n) for n in ns]
    for n, w in zip(ns, want):
        assert rel(coefficient(spec, n).value, w) <= RTOL, n
    got = eval_E(spec, trunc=ns[-1]) if spec.kind == "unilateral_E" else eval_G(spec, (ns[0], ns[-1]))
    assert rel(got.value, mpmath.fsum(want)) <= RTOL


GE_SPEC = VwpSpec(
    0.62 + 0.21j,
    (0.55 - 0.3j, -0.48 + 0.4j, 0.71 + 0.12j, -0.2 - 0.6j),
    0.45 + 0.15j,
    NOME,
    "bilateral",
)


def test_ge_split_sides_match_reference():
    # the three sums of ge_split_check at M = M' = 8: the bilateral window and
    # the two unilateral series it is reassembled from
    spec, M = GE_SPEC, 8
    q, t0, ts, z = spec.nome.q, spec.t0, spec.ts, spec.z
    m_prod = math.prod((t * t for t in ts), start=1.0 + 0j)
    e1 = VwpSpec(t0, ts + (q / t0,), z, NOME, "unilateral")
    e2 = VwpSpec(q / t0, ts + (t0,), q ** (len(ts) - 4) / (z * m_prod), NOME, "unilateral")
    sides = [
        (eval_vwp(spec, window=(-M, M)), spec, range(-M, M + 1)),
        (eval_vwp(e1, trunc=M), e1, range(M + 1)),
        (eval_vwp(e2, trunc=M - 1), e2, range(M)),
    ]
    for got, side, ks in sides:
        assert rel(got.value, mpmath.fsum(spec_term(side, k) for k in ks)) <= RTOL, side.kind
    # the reassembly is exact term by term, so both sides of the report are
    # checked against the bilateral window
    rep = ge_split_check(spec, M, M)
    want = mpmath.fsum(spec_term(spec, k) for k in range(-M, M + 1))
    assert rel(rep.lhs, want) <= RTOL and rel(rep.rhs, want) <= RTOL


def test_deep_ge_split_matches_reference():
    # M = 12, where the window's coefficient at n = -12 underflowed to 0 while
    # each term divided whole factorial products
    rep = ge_split_check(GE_SPEC, 12, 12)
    want = mpmath.fsum(spec_term(GE_SPEC, k) for k in range(-12, 13))
    assert rel(rep.lhs, want) <= RTOL and rel(rep.rhs, want) <= RTOL


THETA_NOMES = (0.25 + 0.05j, 0.6 - 0.5j, 0.01 + 0.001j, 0.5j)
THETA_BANDS = (0.5, 1e-3, 1e-8, 1e8)
# the worst of 3,073 points (200 a band) with a finite float64 reference
# was 1.5e-14; the product run from z itself reached 5.9e-14
THETA_RTOL = 3e-14


def test_theta_matches_reference_by_band():
    # |z| = band 10^U(-0.3, 0.3) with a uniform phase, the same points for
    # each nome; the extra point has |theta| = 7.9e307, and a product run
    # from z overflowed on the way there
    rng = np.random.default_rng(7)
    zs = {band: [band * 10 ** rng.uniform(-0.3, 0.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                 for _ in range(12)] for band in THETA_BANDS}
    cases = [(z, p) for p in THETA_NOMES for band in THETA_BANDS for z in zs[band]]
    cases.append((-4.236556690778288e-09 + 4.991882602688411e-09j, 0.6 - 0.5j))
    finite = 0
    for z, p in cases:
        want = theta(mpc(z), mpc(p))
        if not cmath.isfinite(complex(want)):
            continue
        finite += 1
        assert rel(float_theta(z, p), want) <= THETA_RTOL, (z, p)
    assert finite >= 180


def _bilateral(first, ups, downs, step):
    """first + the terms t_1, t_2, ... of each way out, t_1 = r and t_(j+1) =
    t_j r step^j for r = ups and r = downs, each at the working precision,
    with enough extra bits that the sum keeps 150 where its terms cancel.
    first, ups, downs and step take no argument and are formed at it."""
    bits = 200
    while True:
        with mp.workprec(bits):
            total, c = first(), step()
            big = mpmath.mag(total)
            for r in (ups(), downs()):
                t = mpc(1)
                while True:
                    t *= r
                    r *= c
                    total += t
                    big = max(big, mpmath.mag(t))
                    if mpmath.mag(r) < 0 and mpmath.mag(t) < big - bits - 20:
                        break
            lost = big - mpmath.mag(total)
            if lost + 150 < bits:
                return total
        bits = max(lost + 200, 2 * bits)


@functools.cache
def p_infinity(p):
    """(p; p)_inf by Euler's pentagonal series sum_k (-1)^k p^(k (3k - 1) / 2)."""
    return _bilateral(lambda: mpc(1), lambda: -mpc(p), lambda: -mpc(p) ** 2, lambda: mpc(p) ** 3)


def series_theta(z, p):
    """theta(z; p) near |p| = 1, where the product above takes 10^3 to 10^5
    factors. z = p^k y with y on the annulus |p|^(1/2) <= |y| <= |p|^(-1/2)
    gives theta(z) = (-1)^k y^-k p^(-k (k - 1) / 2) theta(y), and Jacobi's
    triple product sum_n (-1)^n p^(n (n - 1) / 2) y^n = (p; p)_inf theta(y)
    (DLMF 20.5.9) gives theta(y). Near |p| = 1 the terms of both series,
    each of size about 1, cancel to about (p; p)_inf ~ exp(-pi^2 / 6 |log p|),
    which _bilateral's extra bits absorb."""
    k = int(mpmath.nint(mpmath.log(abs(z)) / mpmath.log(abs(p))))
    y = z / p**k
    series = _bilateral(lambda: mpc(1), lambda: -mpc(y), lambda: -mpc(p) / mpc(y), lambda: mpc(p))
    return (-1) ** k * y**-k * p ** (-k * (k - 1) // 2) * series / p_infinity(p)


def test_series_theta_is_the_product():
    # the two references agree where the product is cheap
    rng = random.Random(3)
    for p in (0.9 + 0j, 0.9 * cmath.exp(0.3j), 0.25 + 0.05j):
        for _ in range(6):
            z = mpc(cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)))
            want = theta(z, mpc(p))
            assert abs(series_theta(z, mpc(p)) - want) <= mpmath.mpf(10) ** -36 * abs(want)


# nomes where theta takes Jacobi's imaginary transformation with |tau| down
# to 1.6e-4, and the rounding of its Gaussian exponent grows like 1/|tau|.
# Of the 84 points with a finite reference the worst was 6.3e-16 / |tau|
# (0.9 e^0.3i, z = 2.14e-4 + 4.66e-4i, rel 1.2e-14). The direct product of
# 352 to 3,668 factors theta formed before reached 2.6e-15 / |tau| (0.99
# e^0.3i, z = -0.0157 + 0.349i, rel 5.4e-14) and raised at |p| = 0.999
LARGE_P_NOMES = (0.9 + 0j, 0.99 + 0j, 0.9 * cmath.exp(0.3j), 0.99 * cmath.exp(0.3j))
LARGE_P_SCALE = 2e-15


def large_p_rtol(p):
    return LARGE_P_SCALE / abs(cmath.log(p) / (2j * math.pi))


def test_theta_matches_reference_at_large_p():
    # THETA_BANDS' points for each nome; away from |z| = 1 many leave the
    # float64 range and are skipped. Then a dozen points at |p| = 0.999,
    # where theta is finite only for |arg z| within about 1.0 to 1.75
    rng = np.random.default_rng(8)
    zs = [band * 10 ** rng.uniform(-0.3, 0.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
          for band in THETA_BANDS for _ in range(12)]
    cases = [(z, p) for p in LARGE_P_NOMES for z in zs]
    cases += [(cmath.rect(10 ** rng.uniform(-0.002, 0.002), rng.choice((-1, 1)) * rng.uniform(1.0, 1.75)), 0.999 + 0j)
              for _ in range(12)]
    finite = {}
    for z, p in cases:
        want = series_theta(mpc(z), mpc(p))
        if not cmath.isfinite(complex(want)) or complex(want) == 0:
            continue
        finite[p] = finite.get(p, 0) + 1
        assert rel(float_theta(z, p), want) <= large_p_rtol(p), (z, p)
    assert len(finite) == 5 and min(finite.values()) >= 12, finite


# next to the cusps arg p = pi and 2 pi / 3 at |p| = 0.99, where theta takes
# two S steps and the second nome's tau'' = -1/tau' - n is small: formed
# from tau in float64 it kept only the digits that did not cancel, and the
# worst of these 24 points read 2.3e-13; read off log(p^m) it reads 3.7e-14,
# and the direct product of 4,200 factors theta formed before read 6.7e-14
CUSP_NOMES = (0.99 * cmath.exp(1j * (math.pi - 0.01)), 0.99 * cmath.exp(2j * math.pi / 3 + 0.005j))
CUSP_RTOL = 1e-13


@pytest.mark.parametrize("p", CUSP_NOMES)
def test_theta_matches_reference_next_to_a_cusp(p):
    rng = np.random.default_rng(5)
    finite = 0
    for _ in range(12):
        z = cmath.rect(abs(p) ** rng.uniform(-0.5, 0.5), rng.uniform(-math.pi, math.pi))
        want = series_theta(mpc(z), mpc(p))
        if not cmath.isfinite(complex(want)) or complex(want) == 0:
            continue
        finite += 1
        assert rel(float_theta(z, p), want) <= CUSP_RTOL, z
    assert finite == 12


# two term ratios of moderate size whose theta factors or elliptic numbers
# are each near 1e121 and 2.6e188: multiplied before dividing, the numerator
# product left the float64 range, and both raised FloatRangeError
E_SPEC = ThetaSeriesSpec(
    "unilateral_E", (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j), (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j),
    0, 0.4 + 0j, NOME,
)
H_FORM = HForm((0.1, 0.12, 0.13, 0.14), (0.2, 0.21, 0.22, 0.23), 0j, 0.5, ModularPair(0.04 + 0.3j, 0.08 + 0.45j))


def test_moderate_term_ratio_at_matches_reference():
    w, p = 1e-12, mpc(NOME.p)
    den = [mpc(NOME.q)] + [mpc(b) for b in E_SPEC.denominator]
    want = mpc(E_SPEC.z) * math.prod((theta(mpc(a) * w, p) for a in E_SPEC.numerator), start=mpc(1))
    want /= math.prod((theta(b * w, p) for b in den), start=mpc(1))
    assert rel(term_ratio_at(E_SPEC, w), want) <= RTOL


def test_moderate_h_eval_matches_reference():
    form, x = H_FORM, 0.3 - 200j
    sigma, nome = mpc(form.pair.sigma), mpmath.exp(1j * mp.pi * mpc(form.pair.tau))
    numbers = [mpmath.jtheta(1, mp.pi * sigma * (x + mpc(u)), nome) for u in form.zeros + form.poles]
    want = mpc(form.y) * math.prod(numbers[:4], start=mpc(1)) / math.prod(numbers[4:], start=mpc(1))
    assert abs(numbers[0]) > 1e188
    assert rel(h_eval(form, x), want) <= RTOL


PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)
S_PAIR = ModularPair(-0.2 + 0.3j, 0.1 + 0.6j)
THETA1_PAIRS = {"PAIR": PAIR, "S_PAIR": S_PAIR, "S_PAIR_S": apply_modular(S_PAIR, 0, -1, 1, 0)}
# relative to kappa, the condition number of theta1 in its argument: the
# worst of 1,500 points (500 a pair) was 1.8e-15 kappa for the product form
# and 8.6e-16 kappa for the series. Near a zero of theta1 kappa grows, and
# the series' plain relative error reached 1.9e-14 at kappa = 59 (PAIR,
# u = -1.518 + 0.090i, next to the zero -tau / sigma = -1.509 + 0.066i)
THETA1_RTOL = 1e-14


@pytest.mark.parametrize("name", sorted(THETA1_PAIRS))
def test_elliptic_numbers_match_jtheta(name):
    # [u] = theta1(u; sigma, tau) is mpmath's jtheta(1, pi sigma u, e^(i pi
    # tau)); both forms are checked, the product form elliptic_number takes
    # and the series the oracle
    pair = THETA1_PAIRS[name]
    rng = random.Random(f"theta1/{name}")
    nome = mpmath.exp(1j * mp.pi * mpc(pair.tau))
    for _ in range(100):
        u = complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))
        z = mp.pi * mpc(pair.sigma) * mpc(u)
        want = mpmath.jtheta(1, z, nome)
        kappa = max(1.0, float(abs(z * mpmath.jtheta(1, z, nome, 1) / want)))
        assert rel(elliptic_number(u, pair), want) <= THETA1_RTOL * kappa, u
        assert rel(theta1(u, pair), want) <= THETA1_RTOL * kappa, u


def _reference_h(form, x):
    """h(x) = y e^(2 pi i sigma beta x) prod [x + u_m] / prod [x + v_m], each
    [u] mpmath's jtheta(1, pi sigma u, e^(i pi tau))."""
    sigma, nome = mpc(form.pair.sigma), mpmath.exp(1j * mp.pi * mpc(form.pair.tau))
    numbers = [mpmath.jtheta(1, mp.pi * sigma * (mpc(x) + mpc(u)), nome) for u in form.zeros + form.poles]
    r = len(form.zeros)
    want = mpc(form.y) * mpmath.exp(2j * mp.pi * sigma * mpc(form.beta) * mpc(x))
    return want * math.prod(numbers[:r], start=mpc(1)) / math.prod(numbers[r:], start=mpc(1))


@pytest.mark.parametrize("name", sorted(THETA1_PAIRS))
def test_h_eval_matches_jtheta_at_unequal_counts_and_nonzero_beta(name):
    # h_eval reads r zeros and s poles as columns theta(q^u X) / theta(q^v X)
    # and applies C^(r - s) q^((beta - (r - s) / 2) x) after them, with C =
    # i p^(1/8) (p; p)_inf; every r, s in 1..3 with beta != 0
    pair, rng = THETA1_PAIRS[name], random.Random(f"h_eval/{name}")
    for r, s in itertools.product(range(1, 4), repeat=2):
        for _ in range(4):
            zeros, poles = ([complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(k)] for k in (r, s))
            beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            form = HForm(tuple(zeros), tuple(poles), beta, complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5)), pair)
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            assert rel(h_eval(form, x), _reference_h(form, x)) <= RTOL, (r, s, x)
