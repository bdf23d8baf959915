import cmath
import collections
import dataclasses
import functools
import itertools
import math
import operator
import random

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
from thetahyp import FloatRangeError, PoleError, ellipticity
from thetahyp.ellipticity import _h_point, _h_rows, _lattice_h, multi1_h, multi2_h
from thetahyp.factorials import FactorTable
from thetahyp.identities import _multi1_lattice, _multi2_lattice, _unchecked_replace
from thetahyp.series import _LatticeTerms

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

    @pytest.mark.parametrize(
        "poles, x", [((-0.3 + 0j,), 0.3 + 0j), ((0.2 + 0.1j, -0.3 + 0j), 0.3 + 0j), ((0j,), 0j)]
    )
    def test_vanishing_denominator_is_a_pole(self, poles, x):
        # x + v lands exactly on the lattice zero [0] = 0 for one pole v
        form = HForm((0.1 + 0.2j,), poles, 0j, 1.0 + 0j, PAIR)
        with pytest.raises(PoleError, match="h\\(x\\) pole at x = "):
            h_eval(form, x)

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


def scalar_total_ellipticity(build, params, pair, samples=10, tol=1e-9, seed=0):
    """Total ellipticity of the term ratio build(params) as
    check_total_ellipticity_wp checks it, without its batch: _shift_reports
    over the scalar loop _h_point, one form per shift (the index shift X ->
    p X, then each parameter shifted by tau/sigma in turn), at the points X
    = q^x of the check's stream of additive draws x. build's forms have as
    many zeros as poles and beta = 0, so h_eval adds no factor to the loop."""
    shift = pair.tau / pair.sigma

    def h(ps):
        columns = ellipticity._form_h(build(ps))
        return lambda xs: ellipticity._h_point(columns, xs, pair.p)

    base = h(params)
    shifts = [("index_p_shift", lambda xs: base((pair.p * xs[0],)))]
    for m in range(len(params)):
        shifts.append((f"param_p_shift:u{m}", h([*params[:m], params[m] + shift, *params[m + 1 :]])))
    lift = lambda x: (ellipticity._q_power(pair.sigma, complex(*x)),)  # noqa: E731
    points = ellipticity._draws(seed, ellipticity._X_BOX, len(shifts) * samples, lift)
    return ellipticity._shift_reports(points, base, shifts, samples, tol)


def scalar_total_ellipticity_wp(u0, us, z, pair, samples=10, tol=1e-9, seed=0):
    build = lambda ps: ellipticity._wp_form(ps[0], ps[1:], z, pair)  # noqa: E731
    return scalar_total_ellipticity(build, [u0, *us], pair, samples, tol, seed)


def wp_params(rng):
    us = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)) for _ in range(3)]
    return complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.08, 0.08)), us, complex(rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.3))


class TestTotalEllipticityWPBatch:
    @staticmethod
    def _run(monkeypatch, check, args, seed, draw=None):
        """The check's reports by their bits, the points it redrew, and its
        _theta_lanes passes and rows read by the scalar loop _h_point. draw,
        when given, stands in for the stream's map of a row of draws to a
        point: draw(point, row)."""
        draws, theta_lanes, scalar_h = ellipticity._draws, ellipticity._theta_lanes, ellipticity._h_point
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*a):
                counts[name] += 1
                return fn(*a)
            return wrapped

        def counting_draws(seed, box, first, point):
            return draws(seed, box, first, counting("draws", functools.partial(draw, point) if draw else point))

        with monkeypatch.context() as m:
            m.setattr(ellipticity, "_draws", counting_draws)
            m.setattr(ellipticity, "_theta_lanes", counting("passes", theta_lanes))
            m.setattr(ellipticity, "_h_point", counting("scalar", scalar_h))
            reports = check(*args, seed=seed)
        bits = [(r.shift_kind, r.max_rel_dev.hex(), r.sample_count, r.passed) for r in reports]
        return bits, counts["draws"] - sum(r.sample_count for r in reports), counts["passes"], counts["scalar"]

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_is_the_scalar_check_bit_for_bit(self, monkeypatch, seed):
        # no point is redrawn, so every row comes from one _theta_lanes pass
        # and none is evaluated by the scalar loop
        rng = random.Random(f"wp/{seed}")
        args = (*wp_params(rng), (PAIR, S_PAIR)[seed % 2])
        batched, redraws, passes, scalar = self._run(monkeypatch, check_total_ellipticity_wp, args, seed)
        want, *_ = self._run(monkeypatch, scalar_total_ellipticity_wp, args, seed)
        assert batched == want
        assert (redraws, passes, scalar) == (0, 1, 0)
        assert all(passed for *_, passed in batched)

    def test_a_pole_in_a_batched_row_is_redrawn(self, monkeypatch):
        # the third point is X = q^-v for the base form's first pole v, so
        # theta(q^v X) reads the lattice zero at 1 in that batched row: the
        # point is redrawn, the shifts after it take points batched for the
        # next shift, and the last one fresh draws, each evaluated by the
        # scalar loop
        u0, us, z = wp_params(random.Random("wp/pole"))
        pole, drawn = u0 - us[0], []

        def draw(point, row):
            drawn.append(point(row))
            return (ellipticity._q_power(PAIR.sigma, -pole),) if len(drawn) == 3 else drawn[-1]

        args = (u0, us, z, PAIR)
        batched, redraws, passes, scalar = self._run(monkeypatch, check_total_ellipticity_wp, args, 0, draw)
        drawn.clear()
        want, want_redraws, _, _ = self._run(monkeypatch, scalar_total_ellipticity_wp, args, 0, draw)
        assert batched == want
        assert redraws == want_redraws >= 1
        assert passes == 1 and scalar >= 1
        assert all(passed for *_, passed in batched)

    @pytest.mark.parametrize("check", [check_total_ellipticity_wp, scalar_total_ellipticity_wp])
    def test_rows_past_the_float64_range_admit_no_point(self, check):
        # at u0 = -300j, theta(q^(u0 + u) X) leaves the float64 range at
        # every point: a batched row with such a lane goes to the scalar
        # loop, whose FloatRangeError rejects the point as h_eval's does
        with pytest.raises(NonConvergenceError, match="^index_p_shift: too few sample points"):
            check(-300j, [0.1 + 0.05j], 0.5 + 0j, PAIR, samples=2)


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

        def each_alone(hs, sets, points, p, refs=None):
            # every row unpaired, so it shares no lane with another
            return [h_rows(hs, [s], [xs], p)[0] for s, xs in zip(sets, points)]

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
        [(_, columns)] = _lattice_h([describe(params)], 1, params.nome.q)
        b = next(b for e, _, b in columns if e == (1, 0))
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

    def test_a_batched_row_past_the_theta_range_raises_as_multi2_h(self):
        # the point's x_0 = 1e200 puts a theta argument of h_2 past the range
        # theta takes; the batched row raises as the scalar path does
        params = sample_multi2(63, 3, (2, 2, 2), NOME)
        hs = _lattice_h([_multi2_lattice(params)], 2, NOME.q)
        good, bad = (0.5 + 0.1j, 0.6, 0.7), (1e200, 0.5, 0.7)
        value, missing = _h_rows(hs, [0, 0], [good, bad], NOME.p)
        assert value == multi2_h(params, 2, list(good)) and missing is None
        with pytest.raises(FloatRangeError):
            _h_point(hs[0], bad, NOME.p)
        with pytest.raises(FloatRangeError):
            multi2_h(params, 2, list(bad))

    def test_a_column_exponent_past_the_term_ratios_raises(self):
        # a term ratio's column raises each x_j to 1, 2 or -1 only
        with pytest.raises(ValueError, match="no exponent 3"):
            ellipticity._power(np.array([0.5 + 0.1j]), 3)

    @pytest.mark.parametrize(
        "h, sample",
        [(multi1_h, lambda: sample_multi1(52, 2, 2, NOME)), (multi2_h, lambda: sample_multi2(62, 2, (2, 2), NOME))],
        ids=["multi1", "multi2"],
    )
    def test_a_point_of_the_wrong_length_or_an_l_past_the_indices_raises(self, h, sample):
        # the scalar loop zips the point with each column's e, so a short or
        # long point read a wrong value, and an l outside 1..n raised a bare
        # KeyError from the description's cross parts
        params = sample()
        for point in ([0.5 + 0.1j], [0.5 + 0.1j, 0.6, 0.7]):
            with pytest.raises(ValueError, match=f"^the point needs 2 coordinates, got {len(point)}$"):
                h(params, 1, point)
        for l in (0, 3, -1):
            with pytest.raises(ValueError, match=rf"^l must be in 1\.\.2, got {l}$"):
                h(params, l, [0.5 + 0.1j, 0.6])
        assert cmath.isfinite(h(params, 2, [0.5 + 0.1j, 0.6]))


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestSharedLanes:
    """A check's _h_rows batch pairs each shifted row with its point's
    reference row, evaluates each distinct theta argument of its rows once,
    and reads every other lane from the reference row."""

    CHECKS = {
        "wp": lambda seed: functools.partial(
            check_total_ellipticity_wp, *wp_params(random.Random(f"wp/{seed}")), (PAIR, S_PAIR)[seed % 2]
        ),
        "multi1": lambda seed: functools.partial(check_total_ellipticity_multi1, sample_multi1(seed, 2 + seed % 2, 2, NOME)),
        "multi2": lambda seed: functools.partial(
            check_total_ellipticity_multi2, sample_multi2(seed, 2 + seed % 2, (2,) * (2 + seed % 2), NOME)
        ),
    }

    @staticmethod
    def _arguments(hs, sets, points):
        """The bits of every theta argument of the rows: num = a X and den = b
        X with X = prod_j x_j^{e_j}, x^2 = x x and x^-1 = 1 / x, in CPython's
        arithmetic, which the batch ports."""
        out = set()
        for s, xs in zip(sets, points):
            xs = [complex(x) for x in xs]
            for e, a, b in hs[s][1]:
                parts = (x if k == 1 else x * x if k == 2 else complex(1.0, 0.0) / x for x, k in zip(xs, e) if k)
                big_x = functools.reduce(operator.mul, parts)
                out |= {_bits(a * big_x), _bits(b * big_x)}
        return out

    @pytest.mark.parametrize("family", sorted(CHECKS))
    @pytest.mark.parametrize("seed", range(4))
    def test_each_distinct_argument_is_evaluated_once(self, monkeypatch, family, seed):
        check = self.CHECKS[family](seed)
        h_rows, theta_lanes, batches, passes = ellipticity._h_rows, ellipticity._theta_lanes, [], []

        def recording_h_rows(hs, sets, points, p, refs):
            batches.append((hs, sets, points, p, h_rows(hs, sets, points, p, refs)))
            return batches[-1][-1]

        def recording_theta_lanes(zs, p):
            passes.append([_bits(z) for z in zs.tolist()])
            return theta_lanes(zs, p)

        with monkeypatch.context() as m:
            m.setattr(ellipticity, "_h_rows", recording_h_rows)
            m.setattr(ellipticity, "_theta_lanes", recording_theta_lanes)
            reports = check(seed=seed)
        [(hs, sets, points, p, rows)], [lanes] = batches, passes
        assert all(rep.passed for rep in reports)
        assert max(collections.Counter(lanes).values()) == 1
        assert set(lanes) == self._arguments(hs, sets, points)
        # unpaired, the batch evaluates every lane of every row itself
        unpaired = h_rows(hs, sets, points, p)
        assert [row and _bits(row) for row in rows] == [row and _bits(row) for row in unpaired]
        assert None not in rows


class TestScalarLoop:
    """Every single-point h (h_eval, vwp_canonical_h, multi1_h, multi2_h and
    each row a check's batch lacks) reads the scalar loop _h_point, which
    must be an _h_rows row bit for bit. The batch ports CPython's complex
    arithmetic (_mul, _quot), so this holds only where that port does: on
    every CPython, numpy and platform the package supports."""

    FAMILIES = {
        "multi1": (multi1_h, _multi1_lattice, lambda seed, n: sample_multi1(seed, n, 2, NOME)),
        "multi2": (multi2_h, _multi2_lattice, lambda seed, n: sample_multi2(seed, n, (2,) * n, NOME)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_multi_h_is_its_h_rows_row_bit_for_bit(self, monkeypatch, family, seed):
        # moduli from 1e-2 to 1e2, so that the columns' x^2 and 1 / x span
        # several prefactor steps; a single point makes no _theta_lanes pass
        h, describe, sample = self.FAMILIES[family]
        rng, passes = np.random.default_rng(seed), []
        for n in (2, 3):
            params = sample(seed, n)
            points = [tuple(10 ** rng.uniform(-2, 2, n) * np.exp(2j * math.pi * rng.uniform(0, 1, n)))
                      for _ in range(10)]
            for l in range(1, n + 1):
                rows = _h_rows(_lattice_h([describe(params)], l, NOME.q), [0] * len(points), points, NOME.p)
                with monkeypatch.context() as m:
                    m.setattr(ellipticity, "_theta_lanes", lambda zs, p: passes.append(len(zs)))
                    for xs, row in zip(points, rows):
                        if row is None:
                            with pytest.raises((PoleError, FloatRangeError)):
                                h(params, l, list(xs))
                        else:
                            got = h(params, l, list(xs))
                            assert (got.real.hex(), got.imag.hex()) == (row.real.hex(), row.imag.hex()), (n, l, xs)
        assert passes == []


def _index_multipliers(desc, n):
    """{(l, k): the multiplier of h_l under x_k -> p x_k}, read off the
    monomial columns (e, a, b) of h_l with no theta call: theta(p^m y) =
    (-1)^m y^-m p^(-m(m-1)/2) theta(y), so theta(a X) / theta(b X) gains
    (b / a)^(e_k)."""
    out = {}
    for l in range(1, n + 1):
        [(_, columns)] = _lattice_h([desc], l, NOME.q)
        for k in range(n):
            out[l, k] = math.prod(((b / a) ** e[k] for e, a, b in columns), start=1 + 0j)
    return out


class TestColumnMultipliers:
    """The index-shift half of total ellipticity, read structurally from the
    columns: it checks the constants each family's description folds into
    them, independently of the sampled checks."""

    FAMILIES = [
        (_multi1_lattice, lambda seed, n: sample_multi1(seed, n, 2, NOME), "t6", 5),
        (_multi2_lattice, lambda seed, n: sample_multi2(seed, n, (2,) * n, NOME), "t", -1),
    ]

    @pytest.mark.parametrize("family", range(2))
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_every_index_shift_multiplier_is_one(self, family, n, seed):
        describe, sample, _, _ = self.FAMILIES[family]
        multipliers = _index_multipliers(describe(sample(seed, n)), n)
        assert max(abs(m - 1) for m in multipliers.values()) <= 1e-13

    @pytest.mark.parametrize("family", range(2))
    @pytest.mark.parametrize("n", [2, 3])
    def test_an_unbalanced_parameter_set_moves_the_own_index_multiplier(self, family, n):
        # the balancing parameter times 1.001: each h_l gains about 1.001^-2
        # under its own index's shift and nothing under the others'
        describe, sample, field, slot = self.FAMILIES[family]
        params = sample(0, n)
        ts = list(getattr(params, field))
        ts[slot] *= 1.001
        multipliers = _index_multipliers(describe(_unchecked_replace(params, **{field: tuple(ts)})), n)
        for (l, k), m in multipliers.items():
            if k == l - 1:
                assert 1.9e-3 < abs(m - 1) < 2.1e-3
            else:
                assert abs(m - 1) <= 1e-13


def _additive(rng):
    return complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))


class TestCharacterization:
    """A single-variable term ratio is totally elliptic exactly when it is
    well-poised and balanced (Spiridonov, Theta hypergeometric series)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_well_poised_balanced_forms_pass(self, seed):
        rng = np.random.default_rng(seed)
        params = [_additive(rng) for _ in range(2 + seed % 4)]  # u0, u_1..u_m
        reports = check_total_ellipticity_wp(params[0], params[1:], 0.6 + 0.3j, PAIR, samples=6, tol=1e-9, seed=seed)
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
        index, *shifts = scalar_total_ellipticity(build, params, PAIR, samples=6, tol=1e-9, seed=seed)
        assert index.passed, index.max_rel_dev  # balanced: elliptic in x
        assert len(shifts) == 7
        assert max(rep.max_rel_dev for rep in shifts) > 1e-3
        assert not all(rep.passed for rep in shifts)


# family, sampled params, the summation region and the coefficient description
H_CONSISTENCY = {
    "multi1_n2": (multi1_h, lambda: sample_multi1(71, 2, 3, NOME),
                  lambda p: itertools.combinations_with_replacement(range(p.N + 1), p.n), _multi1_lattice),
    "multi1_n3": (multi1_h, lambda: sample_multi1(72, 3, 2, NOME),
                  lambda p: itertools.combinations_with_replacement(range(p.N + 1), p.n), _multi1_lattice),
    "multi2_n2": (multi2_h, lambda: sample_multi2(73, 2, (3, 2), NOME),
                  lambda p: itertools.product(*(range(N + 1) for N in p.Ns)), _multi2_lattice),
    "multi2_n3": (multi2_h, lambda: sample_multi2(74, 3, (2, 2, 2), NOME),
                  lambda p: itertools.product(*(range(N + 1) for N in p.Ns)), _multi2_lattice),
}


def _finite_nonzero(c):
    return c.order == 0 and cmath.isfinite(c.finite_part) and c.finite_part != 0


@pytest.mark.parametrize("case", sorted(H_CONSISTENCY))
def test_h_is_the_coefficient_ratio(case):
    # h_l and the coefficient read one description; at x_j = q^{lam_j} the
    # term ratio is the ratio of neighbouring coefficients
    h, sample, region, lattice = H_CONSISTENCY[case]
    params = sample()
    terms = _LatticeTerms(lattice(params), FactorTable(params.nome))
    checked = 0
    for lam in region(params):
        c = terms(*lam)
        for l in range(1, params.n + 1):
            shifted = terms(*(lj + (j == l - 1) for j, lj in enumerate(lam)))
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

    @pytest.mark.parametrize(
        "poles, y",
        [((0.15 - 0.06j,), 1e-20 + 0j), ((0j, -1 + 0j, -2 + 0j, -3 + 0j), 1.0 + 0j)],
        ids=["negligible_reference", "pole_at_every_x"],
    )
    def test_no_usable_sample_does_not_pass(self, poles, y):
        # |h| < 1e-12 at every x, or x + v = 0 for a pole v at each x = 0..3,
        # where theta1 is exactly 0 and h_eval raises PoleError: every x is
        # skipped, and a check with no sample fails
        form = HForm((0.3 + 0.1j,) * len(poles), poles, 0j, y, S_PAIR)
        _, rep = check_modularity(form, tol=1e-8)
        assert (rep.sample_count, rep.passed) == (0, False)

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
