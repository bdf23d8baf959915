import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from thetahyp import (
    HForm,
    ModularPair,
    NonConvergenceError,
    Nome,
    ThetaSeriesSpec,
    check_ellipticity,
    check_modularity,
    check_total_ellipticity_multi1,
    check_total_ellipticity_multi2,
    check_total_ellipticity_wp,
    classify,
    h_eval,
    multipliers,
    sample_multi1,
    sample_multi2,
    term_ratio_at,
    vwp_canonical_h,
)
from thetahyp import PoleError, ellipticity
from thetahyp.ellipticity import _check_total_ellipticity, multi1_h, multi2_h
from thetahyp.factorials import FactorTable
from thetahyp.identities import _lattice_h, _multi1_coefficient, _multi1_lattice, _multi2_coefficient, _multi2_lattice

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)
PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)
S_PAIR = ModularPair(-0.2 + 0.3j, 0.1 + 0.6j)


def balanced_spec(rng):
    """An elliptic-balanced series: r+1 numerator and r denominator
    parameters (the q is implicit) with matching products."""
    q = NOME.q
    num = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(3)]
    den = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(1)]
    den.append(math.prod(num, start=1 + 0j) / (q * den[0]))
    return ThetaSeriesSpec("unilateral_E", tuple(num), tuple(den), 0, 0.4 + 0.1j, NOME)


class TestHForm:
    def test_trivial_form_is_constant(self):
        form = HForm((), (), 0j, 2.5 + 0j, PAIR)
        assert h_eval(form, 0.37 - 0.2j) == 2.5 + 0j

    def test_multiplier_laws(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            zeros = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)) for _ in range(r))
            poles = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 0.9)) for _ in range(s))
            beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            form = HForm(zeros, poles, beta, 1.3 - 0.4j, PAIR)
            a, b, gamma = multipliers(form)
            x = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
            base = h_eval(form, x)
            got_a = h_eval(form, x + 1 / PAIR.sigma)
            assert abs(got_a - a * base) <= 1e-10 * abs(a * base)
            got_b = h_eval(form, x + PAIR.tau / PAIR.sigma)
            expect = b * cmath.exp(2j * math.pi * PAIR.sigma * gamma * x) * base
            assert abs(got_b - expect) <= 1e-9 * abs(expect)

    def test_elliptic_when_balanced(self):
        # equal counts, beta = 0, equal sums -> both multipliers are 1
        zeros = (0.3 + 0.1j, -0.2 + 0.05j)
        poles = (0.25 + 0.1j, -0.15 + 0.05j)
        form = HForm(zeros, poles, 0j, 1.0 + 0j, PAIR)
        a, b, gamma = multipliers(form)
        assert abs(a - 1) < 1e-14 and abs(b - 1) < 1e-14 and gamma == 0


class TestEllipticityCheck:
    def test_balanced_series_passes(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            spec = balanced_spec(rng)
            rep = check_ellipticity(lambda w: term_ratio_at(spec, w), NOME, samples=15, tol=1e-9)
            assert rep.passed, rep.max_rel_dev

    def test_unbalanced_series_fails(self):
        rng = np.random.default_rng(2)
        spec = balanced_spec(rng)
        den = spec.denominator
        bad = ThetaSeriesSpec(
            spec.kind, spec.numerator, (den[0], den[1] * 1.1), spec.alpha, spec.z, NOME
        )
        rep = check_ellipticity(lambda w: term_ratio_at(bad, w), NOME, samples=15, tol=1e-9)
        assert not rep.passed
        assert rep.max_rel_dev > 1e-3

    def test_no_admitted_point_names_the_shift(self):
        # every reference value is above 1e12, so no sample point is admitted
        spec = dataclasses.replace(balanced_spec(np.random.default_rng(1)), z=1e15 + 0j)
        with pytest.raises(NonConvergenceError, match="^index_p_shift: "):
            check_ellipticity(lambda w: term_ratio_at(spec, w), NOME, samples=5)

    def test_non_finite_reference_is_rejected(self):
        # a NaN reference once passed as a point with deviation 0
        with pytest.raises(NonConvergenceError, match="^index_p_shift: "):
            check_ellipticity(lambda w: complex(math.nan, 0.0), NOME)

    def test_non_finite_deviation_fails(self):
        # NaN on the disc |w| <= 0.5: the admitted reference points lie
        # outside it, and the p-shift moves many of them into it
        rep = check_ellipticity(lambda w: 1.0 + 0j if abs(w) > 0.5 else complex(math.nan, 0.0), NOME)
        assert (rep.max_rel_dev, rep.sample_count, rep.passed) == (math.inf, 20, False)

    @pytest.mark.parametrize(
        "check",
        [
            lambda samples: check_ellipticity(lambda w: 1.0 + 0j, NOME, samples=samples),
            lambda samples: check_total_ellipticity_multi1(sample_multi1(51, 1, 2, NOME), samples=samples),
        ],
    )
    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_refused(self, check, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            check(samples)

    def test_classify_agrees_with_the_numeric_check(self):
        # E and G specs in turn with prod num = c prod den_eff, c running
        # through 1.1, 1 (balanced) and p^alpha: the elliptic flag must match
        # the p-shift check, which passes for c = p^alpha only
        for alpha in (-1, 0, 1, 2):
            rng = np.random.default_rng(3)
            flags = []
            for k in range(30):
                kind = ("unilateral_E", "bilateral_G")[k % 2]
                num = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(3)]
                den = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(1 + k % 2)]
                implicit = NOME.q if kind == "unilateral_E" else 1
                c = (1.1, 1, NOME.p**alpha)[k % 3]
                den.append(math.prod(num) / (implicit * math.prod(den) * c))
                spec = ThetaSeriesSpec(kind, tuple(num), tuple(den), alpha, 0.4 + 0.1j, NOME)
                rep = check_ellipticity(lambda w: term_ratio_at(spec, w), NOME, samples=10, seed=k)
                assert classify(spec).elliptic == rep.passed, (alpha, k, rep.max_rel_dev)
                flags.append(rep.passed)
            assert flags.count(True) == (20 if alpha == 0 else 10), alpha


class TestTotalEllipticityWP:
    def test_canonical_form_passes(self):
        us = [0.31 + 0.07j, -0.22 + 0.11j, 0.14 - 0.09j, 0.05 + 0.02j]
        reports = check_total_ellipticity_wp(0.2 - 0.1j, us, 0.6 + 0.3j, PAIR, samples=6, tol=1e-9)
        assert len(reports) == 2 + len(us)  # index, u0, each u_m
        for rep in reports:
            assert rep.passed, f"{rep.shift_kind}: {rep.max_rel_dev}"

    def test_no_parameters_reduces_to_constant(self):
        val = vwp_canonical_h(0.2 + 0.1j, [], 0.7 - 0.2j, PAIR, 0.13 + 0.05j)
        assert abs(val - (0.7 - 0.2j)) < 1e-14


class TestTotalEllipticityMulti:
    @pytest.mark.parametrize("n", [1, 2])
    def test_multi1(self, n):
        params = sample_multi1(seed=50 + n, n=n, N=2, nome=NOME)
        reports = check_total_ellipticity_multi1(params, samples=5, tol=1e-9)
        assert reports
        for rep in reports:
            assert rep.passed, f"{rep.shift_kind}: {rep.max_rel_dev}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_multi2(self, n):
        params = sample_multi2(seed=60 + n, n=n, Ns=(2,) * n, nome=NOME)
        reports = check_total_ellipticity_multi2(params, samples=5, tol=1e-9)
        assert reports
        for rep in reports:
            assert rep.passed, f"{rep.shift_kind}: {rep.max_rel_dev}"

    @staticmethod
    def _reports_and_redraws(monkeypatch, check, params, seed, alone, draw=None):
        """The check's reports by their bits, and the number of points it
        redrew, with the rows of h_l evaluated in one batch or each alone.
        draw, when given, stands in for _rand_mult_args."""
        h_rows, rand_mult_args = ellipticity._h_rows, draw or ellipticity._rand_mult_args
        drawn = 0

        def counting_draw(rng, n):
            nonlocal drawn
            drawn += 1
            return rand_mult_args(rng, n)

        def each_alone(hs, sets, points, p):
            values, fails = [], {}
            for r, (s, xs) in enumerate(zip(sets, points)):
                [value], fail = h_rows(hs, [s], [xs], p)
                values.append(value)
                fails.update((r, arg) for arg in fail.values())
            return values, fails

        with monkeypatch.context() as m:
            m.setattr(ellipticity, "_rand_mult_args", counting_draw)
            if alone:
                m.setattr(ellipticity, "_h_rows", each_alone)
            reports = check(params, seed=seed)
        bits = [(r.shift_kind, r.max_rel_dev.hex(), r.sample_count, r.passed) for r in reports]
        return bits, drawn - sum(r.sample_count for r in reports)

    @pytest.mark.parametrize(
        "check, params, seed",
        [
            (check_total_ellipticity_multi1, lambda: sample_multi1(5, 3, 2, Nome(0.3 + 0.2j, 0.5 + 0.3j)), 5),
            (check_total_ellipticity_multi2, lambda: sample_multi2(3, 3, (2, 2, 2), Nome(0.6 + 0.1j, 0.6 - 0.2j)), 3),
        ],
    )
    def test_warm_up_that_misses_points_changes_no_report(self, monkeypatch, check, params, seed):
        # the batch of each shift's first points (once a warm-up of the scalar
        # path) misses points here: on these nomes the shift loop redraws a
        # point whose reference h lies outside [1e-12, 1e12], so shifts take
        # points batched for the next shift, and the last one fresh draws of
        # the same rng, each evaluated alone
        params = params()
        batched, batched_redraws = self._reports_and_redraws(monkeypatch, check, params, seed, alone=False)
        alone, alone_redraws = self._reports_and_redraws(monkeypatch, check, params, seed, alone=True)
        assert batched_redraws == alone_redraws >= 1
        assert batched == alone

    @pytest.mark.parametrize(
        "check, describe, h, params",
        [
            (check_total_ellipticity_multi1, _multi1_lattice, multi1_h, lambda: sample_multi1(52, 2, 2, NOME)),
            (check_total_ellipticity_multi2, _multi2_lattice, multi2_h, lambda: sample_multi2(62, 2, (2, 2), NOME)),
        ],
    )
    def test_a_pole_in_a_batched_row_is_redrawn(self, monkeypatch, check, describe, h, params):
        # the third point puts x_1 at 1 / b for a pair (a X, b X) of h_1 with
        # X = x_1, so theta(b X) is exactly 0 in that batched row
        params = params()
        _, columns = _lattice_h(describe(params), 1, params.nome.q)
        b = next(b for e, _, b, s, d in columns if e == (1, 0) and s is None and d is None)
        rand_mult_args, drawn = ellipticity._rand_mult_args, []

        def draw(rng, n):
            xs = rand_mult_args(rng, n)
            drawn.append(xs)
            return (1 / b, *xs[1:]) if len(drawn) == 3 else xs

        with pytest.raises(PoleError):
            h(params, 1, [1 / b, 0.5 + 0.2j])
        batched, batched_redraws = self._reports_and_redraws(monkeypatch, check, params, 0, False, draw)
        drawn.clear()
        alone, alone_redraws = self._reports_and_redraws(monkeypatch, check, params, 0, True, draw)
        assert batched_redraws == alone_redraws >= 1
        assert batched == alone
        assert all(rep.passed for rep in check(params, seed=0))


def _additive(rng):
    return complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))


class TestCharacterization:
    """A single-variable term ratio is totally elliptic exactly when it is
    well-poised and balanced (Spiridonov, Theta hypergeometric series)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_well_poised_balanced_forms_pass(self, seed):
        rng = np.random.default_rng(seed)
        params = [_additive(rng) for _ in range(2 + seed % 4)]  # u0, u_1..u_m
        reports = _check_total_ellipticity(
            lambda ps: wp_hform(ps[0], ps[1:], 0.6 + 0.3j, PAIR), params, PAIR, samples=6, tol=1e-9, seed=seed
        )
        kinds = ["index_p_shift", *(f"param_p_shift:u{m}" for m in range(len(params)))]
        assert [rep.shift_kind for rep in reports] == kinds
        for rep in reports:
            assert rep.passed, f"{rep.shift_kind}: {rep.max_rel_dev}"

    @pytest.mark.parametrize("seed", range(5))
    def test_balanced_forms_that_are_not_well_poised_fail(self, seed):
        # 4 zeros and 3 free poles; the 4th pole solves sum zeros = sum poles
        def build(ps):
            zeros, poles = ps[:4], ps[4:]
            return HForm(zeros, (*poles, sum(zeros) - sum(poles)), 0j, 0.6 + 0.3j, PAIR)

        rng = np.random.default_rng(seed)
        params = [_additive(rng) for _ in range(7)]
        index, *shifts = _check_total_ellipticity(build, params, PAIR, samples=6, tol=1e-9, seed=seed)
        assert index.passed, index.max_rel_dev  # balanced: elliptic in x
        assert len(shifts) == 7
        assert max(rep.max_rel_dev for rep in shifts) > 1e-3
        assert not all(rep.passed for rep in shifts)


# family, sampled params, the summation region and the per-point coefficient
H_CONSISTENCY = {
    "multi1_n2": (multi1_h, lambda: sample_multi1(71, 2, 3, NOME),
                  lambda p: itertools.combinations_with_replacement(range(p.N + 1), p.n), _multi1_coefficient),
    "multi1_n3": (multi1_h, lambda: sample_multi1(72, 3, 2, NOME),
                  lambda p: itertools.combinations_with_replacement(range(p.N + 1), p.n), _multi1_coefficient),
    "multi2_n2": (multi2_h, lambda: sample_multi2(73, 2, (3, 2), NOME),
                  lambda p: itertools.product(*(range(N + 1) for N in p.Ns)), _multi2_coefficient),
    "multi2_n3": (multi2_h, lambda: sample_multi2(74, 3, (2, 2, 2), NOME),
                  lambda p: itertools.product(*(range(N + 1) for N in p.Ns)), _multi2_coefficient),
}


def _finite_nonzero(c):
    return c.zero_order == c.pole_order == 0 and cmath.isfinite(c.finite_part) and c.finite_part != 0


@pytest.mark.parametrize("case", sorted(H_CONSISTENCY))
def test_h_is_the_coefficient_ratio(case):
    # h_l and the coefficient read one description; at x_j = q^{lam_j} the
    # term ratio is the ratio of neighbouring coefficients
    h, sample, region, coefficient = H_CONSISTENCY[case]
    params = sample()
    table = FactorTable(params.nome)
    checked = 0
    for lam in region(params):
        c = coefficient(params, lam, table)
        for l in range(1, params.n + 1):
            shifted = coefficient(params, tuple(lj + (j == l - 1) for j, lj in enumerate(lam)), table)
            if not (_finite_nonzero(c) and _finite_nonzero(shifted)):
                continue
            want = shifted.finite_part / c.finite_part
            got = h(params, l, [params.nome.q**lj for lj in lam])
            assert abs(got - want) <= 1e-12 * abs(want), (lam, l)
            checked += 1
    assert checked >= 10


def wp_hform(u0, us, z, pair):
    usum = sum(us, 0j)
    zeros = tuple(u0 + u for u in us) + (u0 - usum,)
    poles = tuple(u0 - u for u in us) + (u0 + usum,)
    return HForm(zeros, poles, 0j, z, pair)


def test_vwp_canonical_h_is_h_eval_of_the_wp_form():
    us = [0.21 + 0.05j, -0.13 + 0.08j, 0.09 - 0.04j]
    u0, z = 0.15 - 0.06j, 0.5 + 0.2j
    form = wp_hform(u0, us, z, PAIR)
    for x in (0.13 + 0.05j, -0.31 + 0.2j, 0.4 - 0.1j):
        want = h_eval(form, x)
        assert abs(vwp_canonical_h(u0, us, z, PAIR, x) - want) <= 1e-13 * abs(want)


class TestModularity:
    def test_wp_form_passes(self):
        us = [0.21 + 0.05j, -0.13 + 0.08j, 0.09 - 0.04j]
        form = wp_hform(0.15 - 0.06j, us, 0.5 + 0.2j, S_PAIR)
        structural, rep = check_modularity(form, tol=1e-8)
        assert structural
        assert rep.passed, rep.max_rel_dev

    def test_non_finite_reference_is_rejected(self):
        us = [0.21 + 0.05j, -0.13 + 0.08j, 0.09 - 0.04j]
        form = wp_hform(0.15 - 0.06j, us, complex(math.nan, 0.0), S_PAIR)
        _, rep = check_modularity(form, tol=1e-8)
        assert (rep.sample_count, rep.passed) == (0, False)

    def test_non_finite_deviation_fails(self, monkeypatch):
        us = [0.21 + 0.05j, -0.13 + 0.08j, 0.09 - 0.04j]
        form = wp_hform(0.15 - 0.06j, us, 0.5 + 0.2j, S_PAIR)
        # the S-transformed side is NaN, the reference side finite
        monkeypatch.setattr(
            ellipticity, "h_eval", lambda f, x: h_eval(f, x) if f.pair == S_PAIR else complex(math.nan, 0.0)
        )
        _, rep = check_modularity(form, tol=1e-8)
        assert rep.sample_count > 0
        assert (rep.max_rel_dev, rep.passed) == (math.inf, False)

    def test_equal_sums_unequal_squares_fails(self):
        # sum of zeros equals sum of poles (elliptic), but squared sums
        # differ, so the S-transform comparison must fail both gates
        zeros = (0.3 + 0.1j, -0.2 + 0.05j)
        poles = (0.4 + 0.1j, -0.3 + 0.05j)
        form = HForm(zeros, poles, 0j, 1.0 + 0j, S_PAIR)
        structural, rep = check_modularity(form, tol=1e-8)
        assert not structural
        assert not rep.passed
        assert rep.max_rel_dev > 1e-3
