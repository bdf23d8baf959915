"""FactorTable: bit-identity with the factor-by-factor product, and the
theta-call budget of the sums and ellipticity checks that read their
factors through it.

The pinned reprs were computed by the direct per-coefficient factorial
products that the tables replace; a table that changed any argument or
the multiplication order would move the last digits. The one exception is
the ge_split_4 lhs, whose negative-index factorials are read from downward
prefixes (arguments t q^-1, t q^-2, ...) instead of upward ones from
t q^{-n}; it agrees with tests/test_reference.py's 40-digit window sum to
5.3e-15, where the upward products did to 6.7e-15.
"""

import collections

import pytest

from thetahyp import (
    Nome,
    ThetaSeriesSpec,
    TruncationDecl,
    VwpSpec,
    check_total_ellipticity_multi1,
    check_total_ellipticity_multi2,
    eval_E,
    eval_G,
    ge_split_check,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    verify_bailey,
    verify_ft_sum,
    verify_multi1,
    verify_multi2,
    vwp_coefficient,
)
from thetahyp import ellipticity, factorials
from thetahyp.cli import main
from thetahyp.errors import ThetaDomainError
from thetahyp.factorials import ONE, FactorialValue, FactorTable, theta_factor, theta_factorial

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)

GE_SPEC = VwpSpec(
    0.62 + 0.21j,
    (0.55 - 0.3j, -0.48 + 0.4j, 0.71 + 0.12j, -0.2 - 0.6j),
    0.45 + 0.15j,
    NOME,
    "bilateral",
)

REPORTS = {
    "ft_4": lambda: verify_ft_sum(sample_ft(11, 4, NOME)),
    "ft_6": lambda: verify_ft_sum(sample_ft(12, 6, NOME)),
    "bailey_5": lambda: verify_bailey(sample_bailey(13, 5, NOME)),
    "multi1_2_4": lambda: verify_multi1(sample_multi1(14, 2, 4, NOME)),
    "multi1_3_3": lambda: verify_multi1(sample_multi1(15, 3, 3, NOME)),
    "multi2_3_3": lambda: verify_multi2(sample_multi2(16, 3, (3, 3, 3), NOME)),
    "multi2_4_2": lambda: verify_multi2(sample_multi2(17, 4, (2, 2, 2, 2), NOME)),
    "ge_split_4": lambda: ge_split_check(GE_SPEC, 4, 4, tol=1e-10),
}

# (lhs, rhs, rel_err) reprs and terms_summed
PINNED = {
    "ft_4": ("(4.978888004470478-5.235353828880813j)", "(4.978888004470525-5.235353828880788j)", "7.3688689179548e-15", 5),
    "ft_6": ("(1.666934138856118-0.3498911273556671j)", "(1.666934138856118-0.3498911273556714j)", "2.5421079830783528e-15", 7),
    "bailey_5": ("(-411.5889456306745+7026.598761090785j)", "(-411.58894563074955+7026.598761090657j)", "2.1108780585965366e-14", 6),
    "multi1_2_4": ("(0.02413054990842666-0.01615435144160207j)", "(0.024130549908432684-0.01615435144160433j)", "2.215155097115239e-13", 15),
    "multi1_3_3": ("(0.3411335307708657-0.46233076426601394j)", "(0.34113353077086206-0.46233076426601266j)", "6.752668062805524e-15", 20),
    "multi2_3_3": ("(0.8486027420737523+0.2469074589486195j)", "(0.8486027420737452+0.2469074589486262j)", "1.1041773273056647e-14", 64),
    "multi2_4_2": ("(181.0662247897613+234.58240865372895j)", "(181.06622478976027+234.58240865372622j)", "9.83357144630538e-15", 81),
    "ge_split_4": ("(-17254855625.884758-259597370631.37366j)", "(-17254855625.883698-259597370631.37256j)", "5.8691033759731e-15", 0),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_verifier_values_are_pinned(case):
    rep = REPORTS[case]()
    assert (repr(rep.lhs), repr(rep.rhs), repr(rep.rel_err), rep.terms_summed) == PINNED[case]
    assert rep.passed


def test_series_values_are_pinned():
    q = NOME.q
    num = (0.6 + 0.2j, -0.45 + 0.5j)
    den = (0.7 - 0.1j, 0.52 + 0.33j)
    e_spec = ThetaSeriesSpec("unilateral_E", (q**-5,) + num, den, 1, 0.4 + 0.2j, NOME)
    assert repr(eval_E(e_spec, trunc=TruncationDecl(0, 5)).value) == "(608531373838.0453-146526861622.2114j)"
    g_spec = ThetaSeriesSpec("bilateral_G", num, den, 0, 0.5 + 0.1j, NOME)
    assert repr(eval_G(g_spec, (-3, 4)).value) == "(-5086.645925922481-606.5745846456329j)"


def _loop_factorial(t, nome, n):
    """The factor-by-factor product, written out as the reference: upward
    from t for n >= 0, and for n < 0 the inverse of the downward product
    theta(t q^-1) theta(t q^-2) ... theta(t q^n)."""
    if n < 0:
        out = ONE
        for m in range(1, -n + 1):
            out = out * theta_factor(complex(t) * nome.q**-m, nome.p)
        return out.inverse()
    out = ONE
    arg = complex(t)
    for _ in range(n):
        out = out * theta_factor(arg, nome.p)
        arg *= nome.q
    return out


@pytest.mark.parametrize(
    "t, on_lattice",
    [(0.6 + 0.2j, False), (-0.45 + 0.5j, False), (NOME.q**-3, True), (NOME.p / NOME.q**2, True)],
)
def test_factorial_matches_loop_product(t, on_lattice):
    table = FactorTable(NOME)
    # the longest prefix first, so the later calls read entries grown earlier
    for n in [8, *range(-3, 9)]:
        want = _loop_factorial(t, NOME, n)
        for got in (table.factorial(t, n), theta_factorial(t, NOME, n)):
            assert (got.finite_part, got.zero_order, got.pole_order) == (
                want.finite_part,
                want.zero_order,
                want.pole_order,
            ), n
    # the lattice cases put a factor of the range on a zero of theta
    assert any(table.factorial(t, n).zero_order for n in range(9)) == on_lattice


def test_negative_factorials_read_one_downward_prefix(monkeypatch):
    # each theta(t;p;q)_{-n} once started its own upward prefix at t q^{-n},
    # 56 theta calls for n = 1..12; the downward prefix adds one factor per n
    table = FactorTable(NOME)
    calls = _count_theta_calls(monkeypatch, lambda: [table.factorial(0.6 + 0.2j, -n) for n in range(1, 13)])
    assert calls == 12


def test_ge_split_theta_budget(monkeypatch):
    # the window, the two unilateral sums and the prefactor read one table;
    # with a table per sum and upward prefixes for negative indices this
    # made 505 calls
    assert _count_theta_calls(monkeypatch, lambda: ge_split_check(GE_SPEC, 8, 8)) == 270


@pytest.mark.parametrize("M", [6, 8, 10])
def test_ge_split_passes_at_depth(M):
    assert ge_split_check(GE_SPEC, M, M, tol=1e-10).passed


def test_underflowed_coefficient_raises_overflow():
    # the factorials of the coefficient at n = -12 underflow to 0
    with pytest.raises(OverflowError):
        vwp_coefficient(GE_SPEC, -12)


def _count_calls(monkeypatch, owner, name, fn) -> int:
    calls = 0
    target = getattr(owner, name)

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return target(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(owner, name, counting)
        fn()
    return calls


def _count_theta_calls(monkeypatch, fn) -> int:
    """Theta evaluations: scalar theta calls plus the lanes of theta_many batches."""
    lanes = 0
    batch = factorials.theta_many

    def counting(zs, p):
        nonlocal lanes
        lanes += len(zs)
        return batch(zs, p)

    with monkeypatch.context() as m:
        m.setattr(factorials, "theta_many", counting)
        calls = _count_calls(monkeypatch, factorials, "theta", fn)
    return calls + lanes


def test_multi2_theta_budget(monkeypatch):
    # the per-coefficient factorial products made 7,020 calls here
    params = sample_multi2(16, 3, (3, 3, 3), NOME)
    assert _count_theta_calls(monkeypatch, lambda: verify_multi2(params)) <= 702


@pytest.mark.parametrize(
    "argv, sample, calls",
    [
        (["ft_sum", "--N", "6", "--seed", "12"], lambda: sample_ft(12, 6, NOME), 103),
        (["multi2", "--n", "3", "--N", "3", "--seed", "16"], lambda: sample_multi2(16, 3, (3, 3, 3), NOME), 268),
    ],
)
def test_sampled_verify_sums_each_draw_once(monkeypatch, tmp_path, argv, sample, calls):
    # the CLI checks a sampled draw on the sides its sampler admitted, so it
    # evaluates no theta factor beyond the sampler's; summing the draw again
    # on a fresh table made 206 and 536 calls here
    out = str(tmp_path / "report.json")
    cli_calls = _count_theta_calls(monkeypatch, lambda: main(["verify", *argv, "--draws", "1", "--out", out]))
    assert cli_calls == _count_theta_calls(monkeypatch, sample) == calls


# verifier, sampled params and budget of FactorTable.factorial calls; building
# every coefficient's blocks afresh made 3,867 calls for multi2 and 984 for
# multi1 here, reusing each block and cross factor across the lattice 267 and 288
FACTORIAL_BUDGETS = {
    "multi2_3_3": (verify_multi2, lambda: sample_multi2(16, 3, (3, 3, 3), NOME), 300),
    "multi1_3_3": (verify_multi1, lambda: sample_multi1(15, 3, 3, NOME), 320),
}


@pytest.mark.parametrize("case", sorted(FACTORIAL_BUDGETS))
def test_multisum_factorial_budget(monkeypatch, case):
    verify, sample, budget = FACTORIAL_BUDGETS[case]
    params = sample()
    assert _count_calls(monkeypatch, FactorTable, "factorial", lambda: verify(params)) <= budget


def test_ft_theta_calls_grow_linearly(monkeypatch):
    p6, p12 = sample_ft(12, 6, NOME), sample_ft(12, 12, NOME)
    calls6 = _count_theta_calls(monkeypatch, lambda: verify_ft_sum(p6))
    calls12 = _count_theta_calls(monkeypatch, lambda: verify_ft_sum(p12))
    assert calls12 <= 2.2 * calls6


# check, sampled params, check seed, theta-evaluation budget and count, and
# the repr of each report's max_rel_dev. The budgets date from when every h_l
# evaluation built its factors afresh (4,320 theta calls for multi1, 5,760 for
# multi2); the counts are those of the scalar path, which evaluated each
# distinct argument once, so batching moved no evaluation. The reprs are
# those of h_l read off the coefficient description, with each theta argument
# formed as c X; h_l agrees with tests/test_reference.py's 40-digit
# coefficients to 1e-12.
ELLIPTICITY = {
    "multi1": (
        check_total_ellipticity_multi1,
        lambda: sample_multi1(53, 3, 2, NOME),
        5,
        (3300, 3119),
        (
            "4.834092339502062e-15", "6.825515167216004e-15", "2.525112861946668e-15",
            "8.418118390339422e-15", "2.1590538927079693e-15", "2.131914425968306e-15",
            "2.2184884437707348e-15", "2.2979470562062842e-15", "8.966380743798686e-15",
        ),
    ),
    "multi2": (
        check_total_ellipticity_multi2,
        lambda: sample_multi2(63, 3, (2, 2, 2), NOME),
        6,
        (4000, 3743),
        (
            "2.2050546483753636e-15", "7.267421880974129e-15", "2.7327950679048626e-15",
            "4.2154922140619984e-15", "4.396223943256842e-15", "7.250491222023151e-15",
            "2.602837045092776e-15", "2.543559535480506e-15", "3.3914153361562435e-15",
            "1.998641121955612e-15", "3.811194901348079e-15", "5.2850782623436985e-15",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(ELLIPTICITY))
def test_ellipticity_reports_are_pinned(case):
    check, sample, seed, _, devs = ELLIPTICITY[case]
    reports = check(sample(), seed=seed)
    assert tuple(repr(rep.max_rel_dev) for rep in reports) == devs
    assert all(rep.passed and rep.sample_count == 8 for rep in reports)


@pytest.mark.parametrize("case", sorted(ELLIPTICITY))
def test_ellipticity_theta_budget(monkeypatch, case):
    check, sample, seed, (budget, count), _ = ELLIPTICITY[case]
    params = sample()
    calls = _count_theta_calls(monkeypatch, lambda: check(params, seed=seed))
    assert calls <= budget
    assert calls == count


@pytest.mark.parametrize("case", sorted(ELLIPTICITY))
def test_ellipticity_does_each_points_work_once(monkeypatch, case):
    # the warm-up once drew every point and formed every h_l argument list a
    # second time, and the table wrapped every batched value in a
    # FactorialValue that h_l unwrapped again
    check, sample, seed, _, _ = ELLIPTICITY[case]
    params = sample()
    formed = collections.Counter()
    draws = built = 0
    lattice_h, rand_mult_args, init = ellipticity._lattice_h, ellipticity._rand_mult_args, FactorialValue.__init__

    def counting_lattice_h(desc, l, q):
        ratio, pairs = lattice_h(desc, l, q)

        def counting_pairs(xs):
            formed[pairs, tuple(xs)] += 1
            return pairs(xs)

        return ratio, counting_pairs

    def counting_rand_mult_args(rng, n):
        nonlocal draws
        draws += 1
        return rand_mult_args(rng, n)

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ellipticity, "_lattice_h", counting_lattice_h)
        m.setattr(ellipticity, "_rand_mult_args", counting_rand_mult_args)
        m.setattr(FactorialValue, "__init__", counting_init)
        reports = check(params, seed=seed)
    assert formed and max(formed.values()) == 1
    # no point of these checks is rejected, so none is redrawn
    assert draws == sum(rep.sample_count for rep in reports) == 8 * len(reports)
    assert built == 0


def _hex_or_error(fn):
    try:
        value = fn()
    except (ThetaDomainError, ValueError, OverflowError) as err:
        return type(err)
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("prefetch", [False, True], ids=["scalar", "prefetched"])
@pytest.mark.parametrize(
    "arg, outcome",
    [(NOME.p, "zero"), (NOME.p**-2, "zero"), (0.3 + 0.4j, "value"), (-1.7 + 0.2j, "value"),
     (0j, "raises"), (complex(float("nan"), 0.0), "raises")],
)
def test_value_is_the_factor_value(arg, outcome, prefetch):
    table = FactorTable(NOME)
    if prefetch:
        table.prefetch([arg])
    got = _hex_or_error(lambda: table.value(arg))
    assert got == _hex_or_error(lambda: FactorTable(NOME).factor(arg).value)
    assert got == _hex_or_error(lambda: theta_factor(arg, NOME.p).value)
    if outcome == "zero":
        assert got == ((0.0).hex(), (0.0).hex())
    else:
        assert isinstance(got, type) == (outcome == "raises")
