import cmath
import collections
import itertools
import math

import numpy as np
import pytest

from thetahyp import (
    EllipticityReport,
    FactorialValue,
    FloatRangeError,
    ModularPair,
    NonConvergenceError,
    Nome,
    PoleError,
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
    term_ratio_at,
    theta_factor,
    vwp_coefficient,
)
from thetahyp.report import rel_err

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

    @pytest.mark.parametrize(
        "report",
        [
            VerificationReport.compare(1 + 2j, 1 + 2.001j, 1e-2, {"q": [0.3, 0.08]}, terms_summed=7),
            EllipticityReport("index_p_shift", 3e-12, 5, True),
        ],
    )
    def test_report_json_round_trip(self, report):
        # passed is written and read under the key "pass"
        obj = report.to_json()
        assert obj["pass"] is True and "passed" not in obj
        assert type(report).from_json(obj) == report
        with pytest.raises(ValueError, match="^pass must be a JSON boolean, got 1$"):
            type(report).from_json({**obj, "pass": 1})

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
            assert abs(term_ratio_at(spec, NOME.q**n, n=n) - ratio) <= 1e-11 * abs(ratio)

    def test_term_ratio_at_lattice_agreement(self):
        rng = np.random.default_rng(2)
        num = rand_params(rng, 2)
        den = rand_params(rng, 2)
        spec = ThetaSeriesSpec("bilateral_G", num, den, 2, 0.3 + 0.1j, NOME)
        q = NOME.q
        for n in (-2, 0, 3):
            a = term_ratio_at(spec, q**n)
            b = term_ratio_at(spec, q**n, n=n)
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_term_ratio_at_noninteger_alpha_rejected(self):
        spec = ThetaSeriesSpec("unilateral_E", (0.4 + 0.1j,), (), 0.5, 0.3 + 0j, NOME)
        with pytest.raises(ValueError):
            term_ratio_at(spec, 0.7 + 0.2j)

    @staticmethod
    def _by_theta_factors(spec, w, n=None):
        """term_ratio_at as the product of theta_factor values, retyped."""
        ratio = FactorialValue(1.0 + 0j)
        for a, b in itertools.zip_longest(spec.numerator, spec.effective_denominator()):
            if a is not None:
                ratio = ratio * theta_factor(a * w, spec.nome.p)
            if b is not None:
                ratio = ratio / theta_factor(b * w, spec.nome.p)
        alpha = complex(spec.alpha)
        if n is not None:
            expo = spec.nome.q ** (spec.alpha * n)
        elif alpha.imag == 0 and alpha.real.is_integer():
            expo = w ** int(alpha.real)
        else:
            raise ValueError("non-integer alpha")
        value = ratio.value * expo * spec.z
        if not cmath.isfinite(value):
            raise FloatRangeError("not finite")
        return value

    @staticmethod
    def _outcome(fn):
        try:
            value = fn()
        except (ValueError, ArithmeticError) as err:
            return type(err)
        return value.real.hex(), value.imag.hex()

    @staticmethod
    def _lattice_cases(rng):
        """(spec, w, n, kind) at lattice points: theta(a w) = 0 for a numerator
        a when w = p^M / a, and theta(b w) = 0 for b = a p^j, so a numerator
        zero cancels a denominator zero ("cancel"), stands alone ("zero"), or
        a denominator zero does ("pole")."""
        p, cases = NOME.p, []
        for kind, M, j in itertools.product(("unilateral_E", "bilateral_G"), (-1, 0, 1), (0, 1, 2)):
            num, den, z = rand_params(rng, 3), rand_params(rng, 2), complex(*rng.uniform(-1, 1, 2))
            w = p**M / num[1]
            hit = (num[0], num[1] * p**j, *den[1:])
            cases += [
                (ThetaSeriesSpec(kind, num, hit, 1, z, NOME), w, None, "cancel"),
                (ThetaSeriesSpec(kind, num, den, 0, z, NOME), w, M, "zero"),
                (ThetaSeriesSpec(kind, num[:1], (den[0], num[1] * p**j), -1, z, NOME), w, None, "pole"),
            ]
        return cases

    def test_term_ratio_at_is_the_theta_factor_product_bit_for_bit(self):
        # term_ratio_at multiplies (finite_part, order) pairs and builds one
        # FactorialValue at the end; the theta_factor product it replaced is
        # the reference, off the lattice, at lattice points and past the
        # float64 range
        rng = np.random.default_rng(29)
        cases = self._lattice_cases(rng)
        for k in range(120):
            kind = ("unilateral_E", "bilateral_G")[k % 2]
            num, den = rand_params(rng, 1 + k % 4), rand_params(rng, k % 3)
            alpha = (0, 1, -2, 0.5 + 0.25j)[k % 4]
            # past the float64 range: a theta factor, or only the product
            z = complex(*rng.uniform(-1, 1, 2)) * (1e308 if k % 13 == 0 else 1.0)
            w = complex(*rng.uniform(-2, 2, 2)) * (1e40 if k % 17 == 0 else 1.0)
            cases.append((ThetaSeriesSpec(kind, num, den, alpha, z, NOME), w, k % 5 if k % 3 == 0 else None, "off"))
        seen = collections.Counter()
        for spec, w, n, kind in cases:
            got = self._outcome(lambda: term_ratio_at(spec, w, n))
            assert got == self._outcome(lambda: self._by_theta_factors(spec, w, n)), (spec, w, n)
            zero = not isinstance(got, type) and not any(map(float.fromhex, got))
            seen[kind, got if isinstance(got, type) else "zero" if zero else "value"] += 1
        assert seen["cancel", "value"] == seen["zero", "zero"] == seen["pole", PoleError] == 18
        assert seen["off", ValueError] and seen["off", FloatRangeError] and seen["off", "value"]

    E_SPEC = ThetaSeriesSpec("unilateral_E", (0.4 + 0.1j,), (0.6 - 0.2j,), 0, 0.3 + 0j, NOME)
    VWP_SPEC = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3 + 0j, NOME, "unilateral")

    @pytest.mark.parametrize(
        "call, spec, expects",
        [
            (lambda s: coefficient(s, 2), VWP_SPEC, "ThetaSeriesSpec"),
            (lambda s: term_ratio_at(s, 0.7 + 0.2j), VWP_SPEC, "ThetaSeriesSpec"),
            (lambda s: vwp_coefficient(s, 2), E_SPEC, "VwpSpec"),
            (lambda s: eval_vwp(s, trunc=3), E_SPEC, "VwpSpec"),
        ],
        ids=["coefficient", "term_ratio_at", "vwp_coefficient", "eval_vwp"],
    )
    def test_other_spec_class_is_refused(self, call, spec, expects):
        # each raised AttributeError on the attribute the other class lacks
        with pytest.raises(ValueError, match=f"expects a {expects}, got a {type(spec).__name__}"):
            call(spec)

    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_an_underflowed_head_argument_names_its_term(self, n):
        # t0^2 q^(2n) underflows to 0, where theta raised ThetaDomainError on z = -0j
        with pytest.raises(FloatRangeError, match=f"term {n} of the series: a head argument"):
            vwp_coefficient(self.VWP_SPEC, n)

    G_SPEC = ThetaSeriesSpec("bilateral_G", (0.4 + 0.1j,), (0.6 - 0.2j,), 0, 0.3 + 0j, NOME)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: VwpSpec.from_json(TestCoefficients.E_SPEC.to_json()), "not a vwp spec: kind='unilateral_E'"),
            (lambda: eval_E(TestCoefficients.G_SPEC), "eval_E expects a unilateral_E spec"),
            (lambda: eval_G(TestCoefficients.E_SPEC, (-2, 2)), "eval_G expects a bilateral_G spec"),
            (lambda: eval_basic("psi", [0.4 + 0j], [0.6 + 0j], 0.3 + 0j, 0, 0.5 + 0j), "psi evaluation needs a finite window"),
            (lambda: eval_basic("chi", [0.4 + 0j], [0.6 + 0j], 0.3 + 0j, 0, 0.5 + 0j), "unknown basic series kind 'chi'"),
        ],
        ids=["vwp_from_json", "eval_E", "eval_G", "basic_psi_window", "basic_kind"],
    )
    def test_wrong_kind_or_extent_is_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
        # a G spec has no unbounded sum to fall back on
        with pytest.raises(ValueError, match="needs a finite window"):
            eval_G(spec, None)

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
        # the balanced spec of the CI ellipticity step: c_18 is about 3e-10, and
        # from n = 19 on a factorial prefix overflows, so coefficient raises
        # where it returned NaN (ROADMAP item 1)
        nome = Nome(0.35 + 0.1j, 0.25 + 0.05j)
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        den = (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j)
        spec = ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, nome)
        assert cmath.isfinite(coefficient(spec, 18).value)
        with pytest.raises(FloatRangeError, match="coefficient at index 19 "):
            coefficient(spec, 19)
        with pytest.raises(FloatRangeError, match="term 19 "):
            eval_E(spec)
        # an explicit truncation sums exactly the terms it names, and raises
        # at the first of them that is not finite
        sv = eval_E(spec, trunc=18)
        assert sv.terminated and sv.terms_used == 19 and cmath.isfinite(sv.value)
        with pytest.raises(FloatRangeError, match="term 19 of the series is not finite"):
            eval_E(spec, trunc=20)

    def test_untruncated_sum_stops_where_its_true_terms_overflow(self):
        # the same bases at alpha = -8: |c_13| is about 1.7e266 and |c_14|
        # about 3.1e311 (tests/test_replay.py), so the stop at term 14 is the
        # series' own, not a prefix overflow
        nome = Nome(0.35 + 0.1j, 0.25 + 0.05j)
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        den = (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j)
        spec = ThetaSeriesSpec("unilateral_E", num, den, -8, 0.4 + 0j, nome)
        assert cmath.isfinite(coefficient(spec, 13).value)
        with pytest.raises(FloatRangeError, match="term 14 of the series"):
            eval_E(spec)

    @pytest.mark.parametrize("z", [1, -1])
    def test_untruncated_sum_that_never_converges_raises(self, z):
        # the numerator q cancels the implicit denominator (q; p; q)_n, so
        # c_n = z^n never shrinks; the sum returned its 512 terms unflagged
        nome = Nome(0.99 + 0j, 1e-6 + 0j)
        spec = ThetaSeriesSpec("unilateral_E", (nome.q,), (), 0, z, nome)
        with pytest.raises(NonConvergenceError, match="did not converge in 512 terms"):
            eval_E(spec)
        with pytest.raises(NonConvergenceError, match="did not converge in 512 terms"):
            eval_basic("phi", [nome.q], [], nome.q, 0, z)
        # an explicit truncation sums the terms it names
        assert eval_E(spec, trunc=511).terms_used == 512

    def test_vwp_refuses_the_extent_of_the_other_kind(self):
        # a unilateral spec given a window was summed as if untruncated, and
        # a bilateral one given a trunc dropped it
        ts = (0.4 + 0.1j,)
        with pytest.raises(ValueError, match="takes no window"):
            eval_vwp(VwpSpec(0.5 + 0.2j, ts, 0.3 + 0j, NOME, "unilateral"), window=(0, 5))
        with pytest.raises(ValueError, match="takes no trunc"):
            eval_vwp(VwpSpec(0.5 + 0.2j, ts, 0.3 + 0j, NOME, "bilateral"), trunc=5, window=(-2, 2))

    def test_trunc_below_minus_one_is_refused(self):
        # trunc = -5 summed no term and reported terms_used = -4
        nome = Nome(0.35 + 0.1j, 0.25 + 0.05j)
        spec = ThetaSeriesSpec("unilateral_E", (0.5 + 0.1j,), (0.4 - 0.2j,), 0, 0.4, nome)
        vwp = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3 + 0j, nome, "unilateral")
        for trunc in (-2, -5, np.int64(-3)):
            with pytest.raises(ValueError, match="last index >= -1"):
                eval_E(spec, trunc=trunc)
            with pytest.raises(ValueError, match="last index >= -1"):
                eval_vwp(vwp, trunc=trunc)
            with pytest.raises(ValueError, match="last index >= -1"):
                eval_basic("phi", [0.5 + 0.1j], [0.4 - 0.2j], nome.q, 0, 0.4, trunc=trunc)
        # -1 is the empty sum
        sv = eval_E(spec, trunc=-1)
        assert (sv.value, sv.terms_used, sv.terminated) == (0j, 0, True)
        assert eval_vwp(vwp, trunc=-1).terms_used == 0

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

    @pytest.mark.parametrize(
        "lhs, rhs, want",
        # 2^-70 is below the 1e-20 floor and 2^-64 above it
        [(1e-21 + 0j, 0j, 1e-21), (2.0**-69 + 0j, 2.0**-70 + 0j, 2.0**-70), (1.5 * 2.0**-64 + 0j, 2.0**-64 + 0j, 0.5),
         (1.5 + 0j, 1 + 0j, 0.5)],
        ids=["zero_reference", "tiny_reference", "small_reference", "unit_reference"],
    )
    def test_rel_err_falls_back_to_absolute_below_1e_20(self, lhs, rhs, want):
        assert rel_err(lhs, rhs) == want


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

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_terminating_basic_series_match_the_elliptic_ones_at_p_zero(self, N):
        # a numerator q^-N ends each sum after its term N: on the basic side
        # at _qp_factor's structural zero, on the elliptic side at theta's
        # lattice zero 1 = p^0
        q = 0.3 + 0.1j
        nome0 = Nome(q, 0j)
        a, b, z = 0.6 + 0.2j, 0.7 - 0.1j, 0.4 + 0.2j
        t0, ts, z_vwp = 0.62 + 0.21j, (q**-N / (0.62 + 0.21j), 0.55 - 0.3j, -0.48 + 0.4j), 0.45 + 0.15j
        pairs = [
            (eval_basic("phi", [q**-N, a], [b], q, 0, z),
             eval_E(ThetaSeriesSpec("unilateral_E", (q**-N, a), (b,), 0, z, nome0))),
            (eval_basic("vwp_phi", q=q, z=z_vwp, t0=t0, ts=list(ts)),
             eval_vwp(VwpSpec(t0, ts, z_vwp, nome0, "unilateral"))),
        ]
        for basic, elliptic in pairs:
            assert basic.terminated and elliptic.terminated
            assert basic.terms_used == elliptic.terms_used == N + 1
            assert abs(basic.value - elliptic.value) <= 1e-12 * abs(elliptic.value)

    def test_basic_rejects_big_q(self):
        with pytest.raises(Exception):
            eval_basic("phi", [0.3 + 0j], [], 1.2 + 0j, 0, 0.1 + 0j)
