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
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
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
        assert rel(theta1(u, pair, "series"), want) <= THETA1_RTOL * kappa, u
