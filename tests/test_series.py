import cmath
import math

import numpy as np
import pytest

from thetahyp import (
    FloatRangeError,
    ModularPair,
    NonConvergenceError,
    Nome,
    ThetaSeriesSpec,
    TruncationDecl,
    VerificationReport,
    VwpSpec,
    classify,
    coefficient,
    eval_E,
    eval_G,
    eval_basic,
    eval_vwp,
    eval_vwp_additive,
    ge_split_check,
    complex_from_json,
    spec_from_json,
    term_ratio,
    term_ratio_at,
    vwp_coefficient,
)

NOME = Nome(0.3 + 0.08j, 0.2 + 0.05j)
PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)


def rand_params(rng, count, lo=0.35, hi=0.9):
    out = []
    while len(out) < count:
        w = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if lo <= abs(w) <= hi:
            out.append(w)
    return tuple(out)


class TestSpecs:
    def test_rejects_zero_params(self):
        with pytest.raises(ValueError):
            ThetaSeriesSpec("unilateral_E", (0j,), (), 0, 0.3 + 0j, NOME)
        with pytest.raises(ValueError):
            ThetaSeriesSpec("weird", (0.3 + 0j,), (), 0, 0.3 + 0j, NOME)
        with pytest.raises(ValueError):
            VwpSpec(0.5 + 0j, (0.3 + 0j,), 1.0 + 0j, NOME, "diagonal")

    def test_json_round_trip(self):
        spec = ThetaSeriesSpec("bilateral_G", (0.4 + 0.1j,), (0.6 - 0.2j,), 1, 0.3 + 0.2j, NOME)
        back = spec_from_json(spec.to_json())
        assert back == spec

    def test_vwp_json_round_trip(self):
        spec = VwpSpec(0.5 + 0.2j, (0.3 - 0.1j, 0.7 + 0j), 0.4 + 0j, NOME, "bilateral")
        back = spec_from_json(spec.to_json())
        assert back == spec

    @pytest.mark.parametrize(
        "spec",
        [
            ThetaSeriesSpec("bilateral_G", (0.4 + 0.1j,), (0.6 - 0.2j,), 1, 0.3 + 0.2j, NOME),
            VwpSpec(0.5 + 0.2j, (0.3 - 0.1j,), 0.4 + 0j, NOME, "bilateral"),
        ],
    )
    def test_non_string_kind_is_refused(self, spec):
        with pytest.raises(ValueError, match="^kind must be a JSON string, got 5$"):
            type(spec).from_json({**spec.to_json(), "kind": 5})

    @pytest.mark.parametrize("value", [True, [True, 0.0], [0.5, "1"]])
    def test_complex_from_json_refuses_non_numbers(self, value):
        with pytest.raises(ValueError, match="expected"):
            complex_from_json(value)

    def test_truncation_decl_validation(self):
        q = NOME.q
        spec = ThetaSeriesSpec("unilateral_E", (q**-2, 0.4 + 0.1j), (0.5 + 0j,), 0, 1 + 0j, NOME)
        TruncationDecl(0, 2).validate(spec)
        with pytest.raises(ValueError):
            TruncationDecl(1, 2).validate(spec)


class TestCoefficients:
    def test_c0_is_one(self):
        rng = np.random.default_rng(0)
        num = rand_params(rng, 3)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.3 + 0.1j, NOME)
        assert coefficient(spec, 0).value == 1.0 + 0j

    def test_term_ratio_consistency(self):
        rng = np.random.default_rng(1)
        num = rand_params(rng, 3)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 1, 0.3 + 0.1j, NOME)
        for n in range(4):
            ratio = coefficient(spec, n + 1).value / coefficient(spec, n).value
            assert abs(term_ratio(spec, n) - ratio) <= 1e-11 * abs(ratio)

    def test_term_ratio_at_lattice_agreement(self):
        rng = np.random.default_rng(2)
        num = rand_params(rng, 2)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("bilateral_G", num, den, 2, 0.3 + 0.1j, NOME)
        q = NOME.q
        for n in (-2, 0, 3):
            a = term_ratio_at(spec, q**n)
            b = term_ratio(spec, n)
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_term_ratio_at_noninteger_alpha_rejected(self):
        spec = ThetaSeriesSpec("unilateral_E", (0.4 + 0.1j,), (), 0.5, 0.3 + 0j, NOME)
        with pytest.raises(ValueError):
            term_ratio_at(spec, 0.7 + 0.2j)


class TestEvaluators:
    def test_truncated_e_series_terminates(self):
        q = NOME.q
        N = 3
        rng = np.random.default_rng(3)
        num = (q**-N,) + rand_params(rng, 2)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0.2j, NOME)
        sv = eval_E(spec, trunc=TruncationDecl(0, N))
        manual = sum(coefficient(spec, n).value for n in range(N + 1))
        assert sv.terminated
        assert abs(sv.value - manual) <= 1e-12 * abs(manual)
        # coefficients beyond the truncation vanish structurally
        assert coefficient(spec, N + 1).is_zero

    def test_g_window_sum(self):
        rng = np.random.default_rng(4)
        num = rand_params(rng, 2)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("bilateral_G", num, den, 0, 0.5 + 0.1j, NOME)
        sv = eval_G(spec, (-2, 3))
        manual = sum(coefficient(spec, n).value for n in range(-2, 4))
        assert abs(sv.value - manual) <= 1e-12 * abs(manual)
        with pytest.raises(ValueError):
            eval_G(spec, (3, -2))

    def test_vwp_matches_manual(self):
        rng = np.random.default_rng(5)
        t0 = 0.5 + 0.2j
        ts = rand_params(rng, 4)
        spec = VwpSpec(t0, ts, 0.3 - 0.1j, NOME, "unilateral")
        sv = eval_vwp(spec, trunc=5)
        manual = sum(vwp_coefficient(spec, n).value for n in range(6))
        assert abs(sv.value - manual) <= 1e-12 * abs(manual)

    def test_terms_used_stops_before_structural_zero(self):
        # t0 t1 = q^-2: terms 0..2 are nonzero and term 3 is an exact zero
        q = NOME.q
        t0 = 0.6 + 0.2j
        spec = VwpSpec(t0, (q**-2 / t0, 0.5 - 0.3j, -0.4 + 0.45j), 0.3 - 0.1j, NOME, "unilateral")
        assert vwp_coefficient(spec, 3).is_zero
        sv = eval_vwp(spec)
        assert sv.terminated and sv.terms_used == 3
        assert sv.value == sum(vwp_coefficient(spec, n).value for n in range(3))

    def test_numpy_integer_truncation(self):
        # a numpy integer is an explicit last index, not "no truncation"
        ts = (0.4 + 0.1j, 0.5 - 0.3j, -0.4 + 0.45j, 0.3 + 0.3j)
        spec = VwpSpec(0.5 + 0.2j, ts, 0.3 - 0.1j, NOME, "unilateral")
        assert eval_vwp(spec, trunc=np.int64(3)) == eval_vwp(spec, trunc=3)

    def test_bilateral_vwp_needs_window(self):
        spec = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3 + 0j, NOME, "bilateral")
        with pytest.raises(ValueError):
            eval_vwp(spec)

    def test_bilateral_vwp_rejects_reversed_window(self):
        # a reversed window would sum no terms and report 0
        spec = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3 + 0j, NOME, "bilateral")
        with pytest.raises(ValueError, match="empty window"):
            eval_vwp(spec, window=(3, 1))
        with pytest.raises(ValueError, match="empty window"):
            eval_basic("psi", [0.4 + 0.1j], [0.5 - 0.2j], 0.35 + 0.1j, 0, 0.3 + 0j, window=(3, 1))

    def test_additive_matches_multiplicative(self):
        us = [0.3 + 0.1j, -0.2 + 0.05j, 0.15 - 0.07j]
        u0 = 0.21 - 0.13j
        z = 0.3 + 0.2j
        sigma = PAIR.sigma
        t0 = cmath.exp(2j * math.pi * sigma * u0)
        ts = tuple(cmath.exp(2j * math.pi * sigma * u) for u in us)
        mult = eval_vwp(VwpSpec(t0, ts, z, PAIR.nome(), "unilateral"), trunc=6).value
        add = eval_vwp_additive(u0, us, PAIR, z, trunc=6).value
        assert abs(mult - add) <= 1e-11 * abs(mult)

    def test_untruncated_sum_stops_at_first_non_finite_term(self):
        # the balanced spec of the CI ellipticity step: c_13 is about 2e-8, and
        # from n = 14 on the factorial prefixes overflow to NaN (ROADMAP item 1)
        nome = Nome(0.35 + 0.1j, 0.25 + 0.05j)
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        den = (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, nome)
        assert cmath.isfinite(coefficient(spec, 13).value)
        assert not cmath.isfinite(coefficient(spec, 14).value)
        with pytest.raises(NonConvergenceError, match="term 14 "):
            eval_E(spec)
        # an explicit truncation sums exactly the terms it names, and raises
        # at the first of them that is not finite
        sv = eval_E(spec, trunc=13)
        assert sv.terminated and sv.terms_used == 14 and cmath.isfinite(sv.value)
        with pytest.raises(FloatRangeError, match="term 14 of the series is not finite"):
            eval_E(spec, trunc=20)

    def test_additive_terms_used_stops_before_structural_zero(self):
        # u0 + u1 = -2: [u0 + u1 + 2] is a zero factor of term 3, so terms 0..2 are summed
        u0 = 0.21 - 0.13j
        us = [-2 - u0, -0.2 + 0.05j, 0.15 - 0.07j]
        sv = eval_vwp_additive(u0, us, PAIR, 0.3 + 0.2j, trunc=6)
        assert sv.terminated and sv.terms_used == 3


class TestClassification:
    def test_balanced_e_detection(self):
        rng = np.random.default_rng(6)
        num = rand_params(rng, 3)
        q = NOME.q
        d0 = 0.5 + 0.1j
        d1 = math.prod(num, start=1 + 0j) / (q * d0)
        spec = ThetaSeriesSpec("unilateral_E", num, (d0, d1), 0, 0.4 + 0j, NOME)
        cls = classify(spec)
        assert cls.balanced
        spec_bad = ThetaSeriesSpec("unilateral_E", num, (d0, d1 * 1.1), 0, 0.4 + 0j, NOME)
        assert not classify(spec_bad).balanced

    def test_well_poised_detection(self):
        rng = np.random.default_rng(7)
        q = NOME.q
        t0 = 0.5 + 0.2j
        ts = rand_params(rng, 3)
        num = (t0,) + ts
        den = tuple(q * t0 / t for t in ts)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, NOME)
        assert classify(spec).well_poised

    def test_vwp_detection(self):
        q, p = NOME.q, NOME.p
        t0 = 0.5 + 0.2j
        root = cmath.sqrt(t0)
        ps = cmath.sqrt(p)
        extra = (root * q, -root * q, root * q / ps, -root * q * ps)
        num = (t0,) + extra
        den = tuple(q * t0 / t for t in extra)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, NOME)
        cls = classify(spec)
        assert cls.well_poised and cls.very_well_poised

    def test_vwp_spec_balance(self):
        q = NOME.q
        rng = np.random.default_rng(8)
        ts = rand_params(rng, 4)
        r = len(ts) + 4  # r = 8, so balance needs t0 prod ts = q^1/2 (up to sign)
        target = q ** ((r - 7) / 2.0)
        t0 = target / math.prod(ts, start=1 + 0j)
        assert classify(VwpSpec(t0, ts, 1 + 0j, NOME, "unilateral")).balanced
        assert classify(VwpSpec(-t0, ts, 1 + 0j, NOME, "unilateral")).balanced
        assert not classify(VwpSpec(1.3 * t0, ts, 1 + 0j, NOME, "unilateral")).balanced

    def test_bilateral_vwp_spec_balance(self):
        # the bilateral series has no t0 pair, so balance needs prod ts =
        # q^((r-8)/2), up to sign; r = 9 here
        q = NOME.q
        free = rand_params(np.random.default_rng(13), 4)
        last = q**0.5 / math.prod(free, start=1 + 0j)
        for t, balanced in ((last, True), (-last, True), (1.01 * last, False)):
            cls = classify(VwpSpec(0.6 + 0.2j, free + (t,), 1 + 0j, NOME, "bilateral"))
            assert cls.balanced == cls.modular_constraint == cls.elliptic == balanced, t
            assert cls.well_poised and cls.very_well_poised

    def test_modular_constraint_flag(self):
        # build additively: sum u = 1 + sum v and sum u^2 = 1 + sum v^2
        sigma = PAIR.sigma
        us = [0.4 + 0.1j, 0.7 - 0.2j, 0.5 + 0.1j]
        # solve for v1, v2: v1+v2 = sum(us)-1, v1^2+v2^2 = sum(u^2)-1
        s1 = sum(us) - 1
        s2 = sum(u * u for u in us) - 1
        # v1,2 = (s1 +- sqrt(2 s2 - s1^2)) / 2
        disc = cmath.sqrt(2 * s2 - s1 * s1)
        v1, v2 = (s1 + disc) / 2, (s1 - disc) / 2
        num = tuple(cmath.exp(2j * math.pi * sigma * u) for u in us)
        den = tuple(cmath.exp(2j * math.pi * sigma * v) for v in (v1, v2))
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, PAIR.nome())
        cls = classify(spec)
        assert cls.balanced and cls.modular_constraint

    def test_e_is_g_with_its_q_slot(self):
        # the E specs of the tests above, each classified as the G spec with
        # the extra denominator parameter w = q
        q, p = NOME.q, NOME.p
        rng = np.random.default_rng(6)
        num = rand_params(rng, 3)
        d0 = 0.5 + 0.1j
        d1 = math.prod(num, start=1 + 0j) / (q * d0)
        specs = [(num, (d0, d1), NOME), (num, (d0, d1 * 1.1), NOME)]
        rng = np.random.default_rng(7)
        t0 = 0.5 + 0.2j
        ts = rand_params(rng, 3)
        specs.append(((t0,) + ts, tuple(q * t0 / t for t in ts), NOME))
        root = cmath.sqrt(t0)
        extra = (root * q, -root * q, root * q / cmath.sqrt(p), -root * q * cmath.sqrt(p))
        specs.append(((t0,) + extra, tuple(q * t0 / t for t in extra), NOME))
        us = [0.4 + 0.1j, 0.7 - 0.2j, 0.5 + 0.1j]
        s1, s2 = sum(us) - 1, sum(u * u for u in us) - 1
        disc = cmath.sqrt(2 * s2 - s1 * s1)
        vs = ((s1 + disc) / 2, (s1 - disc) / 2)
        num = tuple(cmath.exp(2j * math.pi * PAIR.sigma * u) for u in us)
        specs.append((num, tuple(cmath.exp(2j * math.pi * PAIR.sigma * v) for v in vs), PAIR.nome()))
        classes = []
        for num, den, nome in specs:
            e = classify(ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, nome))
            assert e == classify(ThetaSeriesSpec("bilateral_G", num, (nome.q,) + den, 0, 0.4 + 0j, nome))
            classes.append(e)
        # each construction is detected, so the comparison covers every flag
        assert classes[0].balanced and not classes[1].balanced and classes[2].well_poised
        assert classes[3].very_well_poised and classes[4].modular_constraint

    def test_single_numerator_e_is_well_poised(self):
        # one numerator and no denominator: the pairing condition is vacuous,
        # as for the G spec of the same shape
        spec = ThetaSeriesSpec("unilateral_E", (0.4 + 0.1j,), (), 0, 0.5 + 0.1j, NOME)
        g = ThetaSeriesSpec("bilateral_G", (0.4 + 0.1j,), (NOME.q,), 0, 0.5 + 0.1j, NOME)
        assert classify(spec).well_poised
        assert classify(spec) == classify(g)


class TestGESplit:
    def test_reassembly(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            ts = rand_params(rng, 4, lo=0.5)
            spec = VwpSpec(rand_params(rng, 1, lo=0.5)[0], ts, rand_params(rng, 1)[0], NOME, "bilateral")
            rep = ge_split_check(spec, 3, 4, tol=1e-10)
            assert rep.passed, f"trial {trial}: rel={rep.rel_err}"

    def test_zero_window_collapses_to_e(self):
        rng = np.random.default_rng(10)
        ts = rand_params(rng, 4, lo=0.5)
        spec = VwpSpec(0.55 + 0.2j, ts, 0.4 + 0.1j, NOME, "bilateral")
        rep = ge_split_check(spec, 0, 3, tol=1e-10)
        assert rep.passed

    def test_requires_bilateral(self):
        spec = VwpSpec(0.55 + 0.2j, (0.4 + 0.1j,), 0.4 + 0j, NOME, "unilateral")
        with pytest.raises(ValueError):
            ge_split_check(spec, 2, 2)

    @pytest.mark.parametrize("windows", [(-1, 2), (2, -1), (-1, None)])
    def test_rejects_negative_windows(self, windows):
        spec = VwpSpec(0.55 + 0.2j, (0.4 + 0.1j, 0.6 - 0.3j, -0.5 + 0.2j, 0.3 + 0.6j), 0.4 + 0j, NOME, "bilateral")
        with pytest.raises(ValueError, match="non-negative windows"):
            ge_split_check(spec, *windows)

    # the deep-window spec of tests/test_factor_table.py
    DEEP_SPEC = VwpSpec(0.62 + 0.21j, (0.55 - 0.3j, -0.48 + 0.4j, 0.71 + 0.12j, -0.2 - 0.6j), 0.45 + 0.15j,
                        Nome(0.35 + 0.1j, 0.25 + 0.05j), "bilateral")

    def test_underflowed_term_raises_float_range_error(self):
        # a downward factorial prefix of the coefficient at n = -18 underflows
        # to 0, so its inverse overflows
        spec = VwpSpec(-0.32 - 0.63j, (0.27 - 0.77j, -0.8 + 0.01j, -0.83 - 0.12j, -0.14 + 0.59j), -0.68 - 0.5j,
                       self.DEEP_SPEC.nome, "bilateral")
        with pytest.raises(FloatRangeError, match="term -18 of the series: a factorial value underflowed"):
            eval_vwp(spec, window=(-18, 18))

    def test_non_finite_side_is_named(self):
        # at M = 18 the window's coefficient at n = -18 is NaN (its downward
        # factorial prefixes overflow); the report once carried the NaN, and
        # then the comparison refused the NaN side
        with pytest.raises(FloatRangeError, match="term -18 of the series is not finite"):
            ge_split_check(self.DEEP_SPEC, 18, 18)

    def test_window_raises_at_its_first_non_finite_term(self):
        # every term of the window to M = 17 is finite; at M = 18 the
        # coefficient at n = -18 is NaN, and the sum once returned NaN
        assert cmath.isfinite(eval_vwp(self.DEEP_SPEC, window=(-17, 17)).value)
        with pytest.raises(FloatRangeError, match="term -18 of the series is not finite"):
            eval_vwp(self.DEEP_SPEC, window=(-18, 18))


class TestCompare:
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.inf)])
    def test_non_finite_side_raises(self, side, bad):
        sides = {"lhs": 1.0 + 0j, "rhs": 1.0 + 0j, side: bad}
        with pytest.raises(FloatRangeError, match=f"{side} is not finite"):
            VerificationReport.compare(sides["lhs"], sides["rhs"], 1e-10)


class TestBasicDegeneration:
    def test_e_at_p_zero_matches_phi(self):
        rng = np.random.default_rng(11)
        q = 0.3 + 0.1j
        nome0 = Nome(q, 0j)
        for _ in range(10):
            num = rand_params(rng, 3)
            den = rand_params(rng, 2)
            z = 0.2 * rand_params(rng, 1)[0]
            spec = ThetaSeriesSpec("unilateral_E", num, den, 1, z, nome0)
            a = eval_E(spec).value
            b = eval_basic("phi", list(num), list(den), q, 1, z).value
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_g_at_p_zero_matches_psi(self):
        rng = np.random.default_rng(12)
        q = 0.3 + 0.1j
        nome0 = Nome(q, 0j)
        num = rand_params(rng, 2, lo=0.3, hi=0.5)
        den = rand_params(rng, 2, lo=1.5, hi=2.5)
        z = 0.5 + 0.2j
        spec = ThetaSeriesSpec("bilateral_G", num, den, 0, z, nome0)
        a = eval_G(spec, (-5, 7)).value
        b = eval_basic("psi", list(num), list(den), q, 0, z, window=(-5, 7)).value
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_gasper_rahman_convention_map(self):
        # alpha = s+1-r with z -> (-1)^{s+1-r} z reproduces the
        # ((-1)^n q^{n(n-1)/2})^{s+1-r} convention of the basic series
        rng = np.random.default_rng(13)
        q = 0.3 + 0.1j
        nome0 = Nome(q, 0j)
        num = rand_params(rng, 2)
        den = rand_params(rng, 3)
        r, s = len(num), len(den)
        k = s + 1 - r
        z = 0.4 + 0.1j
        spec = ThetaSeriesSpec("unilateral_E", num, den, k, (-1.0) ** k * z, nome0)
        got = eval_E(spec).value

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
            c *= ((-1.0) ** n * q ** (n * (n - 1) // 2)) ** k * z**n
            ref += c
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_basic_rejects_big_q(self):
        with pytest.raises(Exception):
            eval_basic("phi", [0.3 + 0j], [], 1.2 + 0j, 0, 0.1 + 0j)
