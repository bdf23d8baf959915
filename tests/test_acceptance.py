"""Acceptance suite: twelve desk-scale criteria, one printed line each."""

import cmath
import json
import math
from functools import lru_cache

import numpy as np
import pytest

from thetahyp import (
    HForm,
    ModularPair,
    Multi1Params,
    Nome,
    ThetaSeriesSpec,
    VwpSpec,
    apply_modular,
    bailey_from_ft,
    check_ellipticity,
    check_modularity,
    check_total_ellipticity_wp,
    elliptic_number,
    eval_E,
    eval_G,
    eval_basic,
    eval_vwp,
    ge_split_check,
    h_eval,
    multipliers,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    term_ratio_at,
    theta,
    theta1,
    theta1_modular_s_multiplier,
    verify_bailey,
    verify_ft_sum,
    verify_multi1,
    verify_multi2,
)
from thetahyp.cli import main as cli_main

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)
NOMES = [
    NOME,
    Nome(0.5 + 0.2j, 0.3 + 0.1j),
    Nome(-0.3 + 0.25j, 0.2 - 0.35j),
]
PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)
S_PAIR = ModularPair(-0.2 + 0.3j, 0.1 + 0.6j)


def announce(capsys, num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def rand_pair(rng):
    return ModularPair(
        complex(rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.5)),
        complex(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 0.9)),
    )


def rand_s_pair(rng):
    while True:
        pair = ModularPair(
            complex(rng.uniform(-0.3, -0.1), rng.uniform(0.2, 0.5)),
            complex(rng.uniform(0.0, 0.2), rng.uniform(0.4, 0.9)),
        )
        if (pair.sigma / pair.tau).imag > 0.05:
            return pair


@lru_cache(maxsize=1)
def ft_draws():
    out = []
    for i in range(50):
        params = sample_ft(seed=1000 + i, N=i % 7, nome=NOMES[i % 3])
        out.append((params, verify_ft_sum(params, tol=1e-8)))
    return out


def test_criterion_01_cross_representation(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        pair = rand_pair(rng)
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        a = theta1(u, pair)
        b = elliptic_number(u, pair)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    announce(capsys, 1, "theta1 series vs product", worst <= 1e-10, f"max rel {worst:.2e}")


def test_criterion_02_functional_and_modular_laws(capsys):
    rng = np.random.default_rng(102)
    worst_f = 0.0
    for _ in range(100):
        pair = rand_pair(rng)
        p = cmath.exp(2j * math.pi * pair.tau)
        z = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6))
        base = theta(z, p)
        worst_f = max(worst_f, abs(theta(p * z, p) - (-1 / z) * base) / max(1.0, abs(base)))
        worst_f = max(worst_f, abs(theta(1 / z, p) - (-1 / z) * base) / max(1.0, abs(base)))
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4))
        b1 = theta1(u, pair)
        s1 = theta1(u + 1 / pair.sigma, pair)
        worst_f = max(worst_f, abs(s1 + b1) / max(1.0, abs(b1)))
        s2 = theta1(u + pair.tau / pair.sigma, pair)
        mult = -cmath.exp(-1j * math.pi * pair.tau - 2j * math.pi * pair.sigma * u)
        worst_f = max(worst_f, abs(s2 - mult * b1) / max(1.0, abs(mult * b1)))
    worst_m = 0.0
    for _ in range(50):
        pair = rand_s_pair(rng)
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4))
        t_pair = ModularPair(pair.sigma, pair.tau + 1)
        lhs = theta1(u, t_pair)
        rhs = cmath.exp(1j * math.pi / 4) * theta1(u, pair)
        worst_m = max(worst_m, abs(lhs - rhs) / max(1.0, abs(rhs)))
        s_pair = apply_modular(pair, 0, -1, 1, 0)
        lhs = theta1(u, s_pair)
        rhs = theta1_modular_s_multiplier(u, pair) * theta1(u, pair)
        worst_m = max(worst_m, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_f <= 1e-10 and worst_m <= 1e-9
    announce(capsys, 2, "functional and modular laws", ok, f"fun {worst_f:.2e}, mod {worst_m:.2e}")


def test_criterion_03_multiplier_law(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        zeros = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)) for _ in range(r))
        poles = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.55, 0.9)) for _ in range(s))
        beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
        form = HForm(zeros, poles, beta, 1.1 - 0.3j, PAIR)
        a, b, gamma = multipliers(form)
        x = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
        base = h_eval(form, x)
        got_a = h_eval(form, x + 1 / PAIR.sigma) / base
        got_b = h_eval(form, x + PAIR.tau / PAIR.sigma) / (
            cmath.exp(2j * math.pi * PAIR.sigma * gamma * x) * base
        )
        worst = max(worst, abs(got_a - a) / abs(a), abs(got_b - b) / abs(b))
    announce(capsys, 3, "quasiperiod multiplier law", worst <= 1e-9, f"max rel {worst:.2e}")


def test_criterion_04_terminating_sum(capsys):
    worst = max(rep.rel_err for _, rep in ft_draws())
    ok = all(rep.passed for _, rep in ft_draws())
    announce(capsys, 4, "terminating 10E9 sum, 50 draws", ok, f"max rel {worst:.2e}")


def test_criterion_05_two_term_transformation(capsys):
    worst = 0.0
    for i in range(30):
        params = sample_bailey(seed=2000 + i, N=i % 5, nome=NOMES[i % 3])
        rep = verify_bailey(params, tol=1e-8)
        worst = max(worst, rep.rel_err)
    worst_sp = 0.0
    for params, rep_f in ft_draws()[:10]:
        bl = bailey_from_ft(params, x=0.55 + 0.22j)
        rep_b = verify_bailey(bl, tol=1e-8)
        worst = max(worst, rep_b.rel_err)
        worst_sp = max(worst_sp, abs(rep_b.lhs - rep_f.lhs) / abs(rep_f.lhs))
    ok = worst <= 1e-8 and worst_sp <= 1e-9
    announce(capsys, 5, "12E11 transformation, 30 draws", ok, f"max rel {worst:.2e}, specialization {worst_sp:.2e}")


def test_criterion_06_ordered_tuple_sum(capsys):
    worst = {}
    for n in (1, 2, 3):
        worst[n] = 0.0
        for i in range(20):
            params = sample_multi1(seed=3000 + 100 * n + i, n=n, N=1 + i % 4, nome=NOME)
            rep = verify_multi1(params, tol=1e-7)
            worst[n] = max(worst[n], rep.rel_err)
    worst_x = 0.0
    for params, rep_f in ft_draws()[:10]:
        if abs(params.nome.q - NOME.q) > 1e-12:
            continue
        m1 = Multi1Params(1, 0.7 + 0.1j, params.t, params.N, params.nome)
        rep_m = verify_multi1(m1, tol=1e-7)
        worst_x = max(worst_x, abs(rep_m.lhs - rep_f.lhs) / abs(rep_f.lhs))
    ok = all(w <= 1e-7 for w in worst.values()) and worst_x <= 1e-9
    detail = ", ".join(f"n={n}: {w:.2e}" for n, w in worst.items()) + f", rank-1 match {worst_x:.2e}"
    announce(capsys, 6, "ordered-tuple multisum", ok, detail)


def test_criterion_07_box_lattice_sum(capsys):
    worst = {}
    for n in (1, 2, 3):
        worst[n] = 0.0
        for i in range(20):
            Ns = tuple(1 + (i + j) % 3 for j in range(n))
            params = sample_multi2(seed=4000 + 100 * n + i, n=n, Ns=Ns, nome=NOME)
            rep = verify_multi2(params, tol=1e-7)
            worst[n] = max(worst[n], rep.rel_err)
    ok = all(w <= 1e-7 for w in worst.values())
    announce(capsys, 7, "box-lattice multisum", ok, ", ".join(f"n={n}: {w:.2e}" for n, w in worst.items()))


def test_criterion_08_ellipticity_suite(capsys):
    rng = np.random.default_rng(108)
    q = NOME.q
    ok = True
    details = []
    for trial in range(3):
        num = tuple(complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(3))
        d0 = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3))
        d1 = math.prod(num, start=1 + 0j) / (q * d0)
        spec = ThetaSeriesSpec("unilateral_E", num, (d0, d1), 0, 0.4 + 0.1j, NOME)
        rep = check_ellipticity(lambda w: term_ratio_at(spec, w), NOME, samples=12, tol=1e-9)
        ok = ok and rep.passed
        bad = ThetaSeriesSpec("unilateral_E", num, (d0, d1 * 1.1), 0, 0.4 + 0.1j, NOME)
        neg = check_ellipticity(lambda w: term_ratio_at(bad, w), NOME, samples=12, tol=1e-9)
        ok = ok and (not neg.passed) and neg.max_rel_dev > 1e-3
    us = [0.31 + 0.07j, -0.22 + 0.11j, 0.14 - 0.09j]
    reports = check_total_ellipticity_wp(0.2 - 0.1j, us, 0.6 + 0.3j, PAIR, samples=6, tol=1e-9)
    ok = ok and all(r.passed for r in reports)
    details.append(f"wp shifts {max(r.max_rel_dev for r in reports):.2e}")
    announce(capsys, 8, "ellipticity suite with negative controls", ok, ", ".join(details))


def test_criterion_09_modularity(capsys):
    rng = np.random.default_rng(109)
    ok = True
    worst = 0.0
    for _ in range(5):
        us = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)) for _ in range(3)]
        u0 = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.08, 0.08))
        usum = sum(us, 0j)
        zeros = tuple(u0 + u for u in us) + (u0 - usum,)
        poles = tuple(u0 - u for u in us) + (u0 + usum,)
        form = HForm(zeros, poles, 0j, 0.5 + 0.2j, S_PAIR)
        structural, rep = check_modularity(form, tol=1e-8)
        ok = ok and structural and rep.passed
        worst = max(worst, rep.max_rel_dev)
    control = HForm((0.3 + 0.1j, -0.2 + 0.05j), (0.4 + 0.1j, -0.3 + 0.05j), 0j, 1.0 + 0j, S_PAIR)
    structural, rep = check_modularity(control, tol=1e-8)
    ok = ok and (not structural) and (not rep.passed)
    announce(capsys, 9, "modular invariance", ok, f"max rel {worst:.2e}")


def test_criterion_10_degenerations(capsys):
    rng = np.random.default_rng(110)
    q = 0.3 + 0.12j
    nome0 = Nome(q, 0j)
    worst = 0.0

    def draw(lo=0.3, hi=0.9):
        while True:
            w = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
            if lo <= abs(w) <= hi:
                return w

    for _ in range(20):
        num = tuple(draw() for _ in range(3))
        den = tuple(draw() for _ in range(2))
        z = 0.2 * draw()
        a = eval_E(ThetaSeriesSpec("unilateral_E", num, den, 1, z, nome0)).value
        b = eval_basic("phi", list(num), list(den), q, 1, z).value
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    for _ in range(20):
        num = tuple(draw(0.2, 0.5) for _ in range(2))
        den = tuple(draw(1.5, 2.5) for _ in range(2))
        z = draw()
        a = eval_G(ThetaSeriesSpec("bilateral_G", num, den, 0, z, nome0), (-4, 6)).value
        b = eval_basic("psi", list(num), list(den), q, 0, z, window=(-4, 6)).value
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    for _ in range(20):
        t0 = draw()
        ts = tuple(draw() for _ in range(3))
        z = 0.2 * draw()
        a = eval_vwp(VwpSpec(t0, ts, z, nome0, "unilateral"), trunc=25).value
        b = eval_basic("vwp_phi", q=q, z=z, t0=t0, ts=list(ts), trunc=25).value
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    # convention map: alpha = s+1-r with z -> (-1)^{s+1-r} z recovers the
    # ((-1)^n q^{n(n-1)/2})^{s+1-r} normalization
    num = tuple(draw() for _ in range(2))
    den = tuple(draw() for _ in range(3))
    k = len(den) + 1 - len(num)
    z = 0.4 + 0.1j
    got = eval_E(ThetaSeriesSpec("unilateral_E", num, den, k, (-1.0) ** k * z, nome0)).value

    def qp(a, n):
        out = 1.0 + 0j
        for m in range(n):
            out *= 1 - a * q**m
        return out

    ref = 0j
    for n in range(80):
        c = 1.0 + 0j
        for t in num:
            c *= qp(t, n)
        for w in (q,) + den:
            c /= qp(w, n)
        ref += c * ((-1.0) ** n * q ** (n * (n - 1) // 2)) ** k * z**n
    conv = abs(got - ref) / abs(ref)
    ok = worst <= 1e-12 and conv <= 1e-12
    announce(capsys, 10, "p=0 degenerations", ok, f"max rel {worst:.2e}, convention {conv:.2e}")


def test_criterion_11_window_split(capsys):
    rng = np.random.default_rng(111)
    worst = 0.0

    def draw():
        while True:
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if 0.5 <= abs(w) <= 0.9:
                return w

    for i in range(10):
        spec = VwpSpec(draw(), tuple(draw() for _ in range(4)), draw(), NOME, "bilateral")
        rep = ge_split_check(spec, 2 + i % 3, 2 + (i + 1) % 3, tol=1e-10)
        worst = max(worst, rep.rel_err)
    announce(capsys, 11, "bilateral window reassembly", worst <= 1e-10, f"max rel {worst:.2e}")


def test_criterion_12_cli_contract(capsys, tmp_path):
    ok = True
    for target in ("ft_sum", "bailey", "multi1", "multi2"):
        params = tmp_path / f"{target}.json"
        code_s = cli_main(["sample", target, "--seed", "1", "--draws", "2", "--N", "2",
                           "--n", "2", "--out", str(params)])
        code_v = cli_main(["verify", target, str(params), "--out", str(tmp_path / f"{target}_rep.json")])
        ok = ok and code_s == 0 and code_v == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok = ok and cli_main(["verify", "ft_sum", str(bad)]) == 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli_main(["sample", "multi2", "--seed", "9", "--draws", "2", "--out", str(path)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    announce(capsys, 12, "CLI round trips and exit codes", ok)
