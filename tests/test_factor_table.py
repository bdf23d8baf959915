"""FactorTable: bit-identity with the factor-by-factor product, and the
theta-call budget of the sums and ellipticity checks that read their
factors through it.

The pinned reprs are those of the tables' arguments and multiplication
order over the reduced theta kernel; a table that changed any argument
or the multiplication order would move the last digits. Every term, vwp
or multisum, multiplies its quotients (a)_m / (b)_m in turn. Every pinned
side agrees with tests/test_reference.py's 40-digit sums to 1.6e-13 or
better (multi1_2_4's lhs is the worst; 2.1e-13 when theta ran its
product from z itself).
"""

import collections
import functools
import itertools
import json

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
    eval_vwp,
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
from thetahyp.errors import FloatRangeError, ThetaDomainError
from thetahyp.factorials import ONE, FactorialValue, FactorTable, theta_factor, theta_factorial
from thetahyp.identities import _LatticeTerms, _multi1_lattice, _multi2_lattice
from thetahyp.theta import theta

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
    "ft_4": ("(4.978888004470493-5.235353828880811j)", "(4.978888004470524-5.235353828880823j)", "4.589904076195102e-15", 5),
    "ft_6": ("(1.6669341388561194-0.34989112735566885j)", "(1.6669341388561252-0.3498911273556741j)", "4.590723863695183e-15", 7),
    "bailey_5": ("(-411.5889456307209+7026.598761090812j)", "(-411.5889456307423+7026.598761090679j)", "1.9235716165337897e-14", 6),
    "multi1_2_4": ("(0.024130549908427956-0.016154351441603782j)", "(0.024130549908432608-0.016154351441604264j)", "1.6107656937678265e-13", 15),
    "multi1_3_3": ("(0.34113353077086706-0.46233076426601244j)", "(0.34113353077086134-0.46233076426601183j)", "1.0007900498551736e-14", 20),
    "multi2_3_3": ("(0.8486027420737524+0.2469074589486193j)", "(0.8486027420737494+0.24690745894862876j)", "1.123340416926176e-14", 64),
    "multi2_4_2": ("(181.06622478976+234.5824086537264j)", "(181.0662247897614+234.5824086537272j)", "5.4610368448283035e-15", 81),
    "ge_split_4": ("(-17254855625.885017-259597370631.37378j)", "(-17254855625.884285-259597370631.37378j)", "2.81516452979885e-15", 0),
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
    assert repr(eval_E(e_spec, trunc=TruncationDecl(0, 5)).value) == "(608531373838.0449-146526861622.211j)"
    g_spec = ThetaSeriesSpec("bilateral_G", num, den, 0, 0.5 + 0.1j, NOME)
    assert repr(eval_G(g_spec, (-3, 4)).value) == "(-5086.645925922476-606.574584645638j)"


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


def _hex(v) -> tuple:
    """A FactorialValue's fields, or a complex number, bit for bit."""
    if isinstance(v, FactorialValue):
        return (*_hex(v.finite_part), v.zero_order, v.pole_order)
    return complex(v).real.hex(), complex(v).imag.hex()


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
@pytest.mark.parametrize("t", [0.6 + 0.2j, NOME.q**-3], ids=["off_lattice", "on_lattice"])
def test_factorial_arguments_are_those_factorial_evaluates(monkeypatch, t, grown):
    for n in range(-12, 13):
        table = FactorTable(NOME)
        if grown:
            table.factorial(t, 5)
            table.factorial(t, -4)
        listed = table.factorial_arguments([t], n)
        received = []
        with monkeypatch.context() as m:
            m.setattr(factorials, "theta", lambda z, p: received.append(z) or theta(z, p))
            table.factorial(t, n)
        assert [_hex(z) for z in listed] == [_hex(z) for z in received], n
        # as _loop_factorial forms them, past the entries grown before
        want, arg = [], complex(t)
        for m in range(1, abs(n) + 1):
            want.append(complex(t) * NOME.q**-m if n < 0 else arg)
            arg *= NOME.q
        skip = (5 if n >= 0 else 4) if grown else 0
        assert [_hex(z) for z in listed] == [_hex(z) for z in want[skip:]], n


# each case's draw or spec, and the lanes of its one batch: as many theta
# evaluations as the sum made by scalar calls before it was batched
BATCHED = {
    "ft_6": (lambda: sample_ft(12, 6, NOME), 103),
    "bailey_6": (lambda: sample_bailey(12, 6, NOME), 200),
    "ge_split_8": (lambda: GE_SPEC, 270),
    "multi1_3_3": (lambda: sample_multi1(15, 3, 3, NOME), 261),
    "multi2_3_3": (lambda: sample_multi2(16, 3, (3, 3, 3), NOME), 268),
    "multi2_4_2": (lambda: sample_multi2(17, 4, (2,) * 4, NOME), 289),
}


def _batched_values(arg) -> list:
    """The values a case computes: a draw's sides, or a split's two sides."""
    if isinstance(arg, VwpSpec):
        rep = ge_split_check(arg, 8, 8)
        return [rep.lhs, rep.rhs]
    *series, closed = arg.sides(FactorTable(NOME))
    return [v for terms in series for v in terms] + [closed]


@pytest.mark.parametrize("case", sorted(BATCHED))
def test_sum_reads_its_factors_from_one_batch(monkeypatch, case):
    make, lanes = BATCHED[case]
    arg = make()
    batches, batch = [], factorials.theta_many

    def recording(zs, p):
        batches.append(len(zs))
        return batch(zs, p)

    with monkeypatch.context() as m:
        m.setattr(factorials, "theta_many", recording)
        scalar = _count_calls(monkeypatch, factorials, "theta", lambda: _batched_values(arg))
    assert (batches, scalar) == ([lanes], 0)


@pytest.mark.parametrize("case", sorted(BATCHED))
def test_batch_moves_no_bit(monkeypatch, case):
    # the same sum with its prefetch a no-op evaluates every factor by a
    # scalar theta call
    make, lanes = BATCHED[case]
    arg = make()
    runs = []
    for batched in (True, False):
        tables, prefetch = [], FactorTable.prefetch

        def recording(self, args):
            tables.append(self)
            if batched:
                prefetch(self, args)

        with monkeypatch.context() as m:
            m.setattr(FactorTable, "prefetch", recording)
            values = _batched_values(arg)
        assert len(tables) == 1
        runs.append((set(tables[0].arguments), [_hex(v) for v in values]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == lanes


def _multi1_off_tuples():
    # every point of the box, so a cross pair's exponent lam_k - lam_j is
    # also negative and its bases read downward prefixes
    params = sample_multi1(15, 3, 3, NOME)
    return _multi1_lattice(params), itertools.product(range(params.N + 1), repeat=params.n)


def _multi2_unequal(seed):
    params = sample_multi2(seed, 2, (1, 4), NOME)
    return _multi2_lattice(params), itertools.product(*(range(N + 1) for N in params.Ns))


@pytest.mark.parametrize(
    "make",
    [_multi1_off_tuples, *(functools.partial(_multi2_unequal, seed) for seed in range(10))],
    ids=["multi1_off_tuples", *(f"multi2_1_4_seed{seed}" for seed in range(10))],
)
def test_lattice_arguments_are_those_the_terms_evaluate(make):
    # exactly, not a superset: the sampler's lattice guard scans every
    # argument the table holds, so an extra one could reject a draw
    desc, lattice = make()
    points = list(lattice)
    listed = _LatticeTerms(desc, FactorTable(NOME), points).arguments()
    table = FactorTable(NOME)
    terms = _LatticeTerms(desc, table, points)
    for lam in points:
        terms(*lam)
    assert set(listed) == set(table.arguments)


def test_early_raising_sum_batches_only_the_terms_it_reads(monkeypatch):
    # theta(t0^2 q^44) leaves the float64 range, so the listing stops before
    # term 22, and term 18 is already NaN, so the sum raises there; all 512
    # terms were listed before, a batch of 4,456 lanes. A term reads at most
    # 9 new arguments here: its head and one per factorial base.
    spec = VwpSpec(0.5 + 0.2j, (0.6 + 0.1j, 0.4 + 0.1j, 0.5 - 0.3j), 0.3 - 0.1j, NOME, "unilateral")
    batches, batch = [], factorials.theta_many
    with monkeypatch.context() as m:
        m.setattr(factorials, "theta_many", lambda zs, p: batches.append(len(zs)) or batch(zs, p))
        with pytest.raises(FloatRangeError, match="term 18 of the series is not finite"):
            eval_vwp(spec, trunc=600)
    assert len(batches) == 1 and batches[0] <= 22 * 9


def test_window_without_parameters_is_the_sum_of_its_coefficients():
    # a bilateral spec with no t's has no factorial bases to bound the batch by
    spec = VwpSpec(0.5 + 0.2j, (), 0.3 + 0j, NOME, "bilateral")
    terms = [vwp_coefficient(spec, n).value for n in range(-2, 3)]
    assert eval_vwp(spec, window=(-2, 2)).value == sum(terms, 0j)


def test_factorial_value_keeps_the_dataclass_semantics(monkeypatch):
    a, b = FactorialValue(2.5 - 1j, 1, 2), FactorialValue(2.5 - 1j, zero_order=1, pole_order=2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != FactorialValue(2.5 - 1j, 1, 1)
    assert FactorialValue(1 + 0j) != (1 + 0j, 0, 0)
    assert len({a, b, ONE}) == 2
    zero = theta_factor(NOME.p, NOME.p)
    assert repr(ONE) == "FactorialValue(finite_part=(1+0j), zero_order=0, pole_order=0)"
    assert repr(zero) == "FactorialValue(finite_part=(1+0j), zero_order=1, pole_order=0)"
    assert repr(zero.inverse()) == "FactorialValue(finite_part=(1+0j), zero_order=0, pole_order=1)"
    assert repr(a) == "FactorialValue(finite_part=(2.5-1j), zero_order=1, pole_order=2)"
    assert not hasattr(ONE, "__dict__")
    # every value is built through __init__, which the budget tests count
    built = _count_calls(
        monkeypatch, FactorialValue, "__init__", lambda: (a * b / zero * 2.0).inverse() == theta_factor(0.3, NOME.p)
    )
    assert built == 5


@pytest.mark.parametrize(
    "run", [lambda: eval_vwp(GE_SPEC, window=(-400, 400)), lambda: ge_split_check(GE_SPEC, 400, 400)],
    ids=["eval_vwp", "ge_split"],
)
def test_deep_window_raises_at_its_first_term(run):
    # q^-800 overflows as the window's arguments are formed, so the window is
    # not batched and its first term raises, as it does unbatched
    with pytest.raises(FloatRangeError, match="term -400 of the series"):
        run()


def test_ge_split_refuses_an_underflowing_product():
    # t0^2 underflows to 0, which the prefactor's bases divide by
    spec = VwpSpec(1e-170 + 0j, GE_SPEC.ts, GE_SPEC.z, NOME, "bilateral")
    with pytest.raises(ThetaDomainError):
        ge_split_check(spec, 3, 3)


def test_underflowed_coefficient_raises_overflow():
    # a downward factorial prefix of the coefficient at n = -18 underflows to
    # 0, so its inverse overflows; GE_SPEC's coefficients stay finite to -17
    # and overflow to NaN from -18
    spec = VwpSpec(-0.32 - 0.63j, (0.27 - 0.77j, -0.8 + 0.01j, -0.83 - 0.12j, -0.14 + 0.59j), -0.68 - 0.5j, NOME,
                   "bilateral")
    with pytest.raises(OverflowError):
        vwp_coefficient(spec, -18)


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
    """Theta evaluations: scalar theta calls plus the lanes of theta_many
    batches and of the ellipticity checks' _theta_lanes passes."""
    count = 0

    def counting(evaluate, evaluations):
        def counted(*args):
            nonlocal count
            count += evaluations(*args)
            return evaluate(*args)

        return counted

    with monkeypatch.context() as m:
        for owner in (factorials, ellipticity):
            m.setattr(owner, "theta", counting(owner.theta, lambda z, p: 1))
        m.setattr(factorials, "theta_many", counting(factorials.theta_many, lambda zs, p: len(zs)))
        m.setattr(ellipticity, "_theta_lanes", counting(ellipticity._theta_lanes, lambda zs, p: len(zs)))
        fn()
    return count


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


def test_all_rejected_draws_exit_2(monkeypatch, capsys):
    # q = p (1 + 1e-9), so every draw reads theta near the lattice zero p;
    # the guard scans each draw's listed arguments before evaluating any
    argv = ["sample", "multi1", "--n", "2", "--N", "2", "--draws", "1", "--nome", "0.25000000025,0.05000000005,0.25,0.05"]
    codes = []
    assert _count_theta_calls(monkeypatch, lambda: codes.append(main(argv))) == 0
    assert codes == [2]
    assert "sample_multi1: could not find admissible parameters" in json.loads(capsys.readouterr().out)["error"]


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
    # the sides verify_ft_sum compares; at N = 12 they are not finite
    # (ROADMAP item 1), so the comparison itself raises
    p6, p12 = sample_ft(12, 6, NOME), sample_ft(12, 12, NOME)
    assert _count_theta_calls(monkeypatch, lambda: verify_ft_sum(p6)) == _count_theta_calls(
        monkeypatch, lambda: p6.sides(FactorTable(NOME))
    )
    calls6 = _count_theta_calls(monkeypatch, lambda: p6.sides(FactorTable(NOME)))
    calls12 = _count_theta_calls(monkeypatch, lambda: p12.sides(FactorTable(NOME)))
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
            "2.612292356199124e-15", "2.9375701199848062e-15", "3.063758177203876e-15",
            "4.775192369755618e-15", "1.4081487655738626e-15", "1.1424034727727198e-15",
            "1.38447107044941e-15", "1.0494105239906686e-15", "6.472467476262984e-15",
        ),
    ),
    "multi2": (
        check_total_ellipticity_multi2,
        lambda: sample_multi2(63, 3, (2, 2, 2), NOME),
        6,
        (4000, 3743),
        (
            "1.6757874388232292e-15", "3.614538597459466e-15", "1.33398823708895e-15",
            "2.814248677598951e-15", "3.8581921113063845e-15", "5.733022721235193e-15",
            "1.47570002296673e-15", "3.1006057462040267e-15", "1.9368020746224526e-15",
            "1.990827682893875e-15", "2.6803925780966487e-15", "4.140526033798511e-15",
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
    # the scalar path once drew every point and formed every h_l argument
    # list a second time for its warm-up, and its table wrapped every batched
    # value in a FactorialValue that h_l unwrapped again; now each point's
    # shifted and reference rows are formed once, in one _h_rows batch whose
    # distinct arguments take one theta pass
    check, sample, seed, _, _ = ELLIPTICITY[case]
    params = sample()
    batches, passes = [], 0
    draws = built = 0
    h_rows, theta_lanes = ellipticity._h_rows, ellipticity._theta_lanes
    rand_mult_args, init = ellipticity._rand_mult_args, FactorialValue.__init__

    def counting_h_rows(hs, sets, points, p):
        batches.append(collections.Counter(zip(sets, points)))
        return h_rows(hs, sets, points, p)

    def counting_theta_lanes(zs, p):
        nonlocal passes
        passes += 1
        return theta_lanes(zs, p)

    def counting_rand_mult_args(rng, n):
        nonlocal draws
        draws += 1
        return rand_mult_args(rng, n)

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ellipticity, "_h_rows", counting_h_rows)
        m.setattr(ellipticity, "_theta_lanes", counting_theta_lanes)
        m.setattr(ellipticity, "_rand_mult_args", counting_rand_mult_args)
        m.setattr(FactorialValue, "__init__", counting_init)
        reports = check(params, seed=seed)
    # no point of these checks is rejected, so none is redrawn
    assert draws == sum(rep.sample_count for rep in reports) == 8 * len(reports)
    [rows] = batches
    assert sum(rows.values()) == 2 * draws and max(rows.values()) == 1
    assert passes == 1 and built == 0


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
