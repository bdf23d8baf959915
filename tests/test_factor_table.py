"""FactorTable: bit-identity with the factor-by-factor product, and the
theta-call budget of the sums and ellipticity checks that read their
factors through it.

The pinned reprs are those of the tables' arguments and multiplication
order over the reduced theta kernel, which takes Jacobi's imaginary
transformation at the default nome; a table that changed any argument
or the multiplication order would move the last digits. Every term, E,
G, vwp or multisum, multiplies its quotients (a)_m / (b)_m in turn. Every pinned
side agrees with tests/test_reference.py's 40-digit sums to 6.5e-14 or
better (multi1_2_4's lhs is the worst; 1.5e-13 when theta(w) was the
direct product of 29 factors, 2.1e-13 when theta ran its product from z
itself).
"""

import collections
import dataclasses
import functools
import itertools
import json
import math
import operator
import random
import sys

import pytest

from thetahyp import (
    ModularPair,
    Nome,
    ThetaSeriesSpec,
    TruncationDecl,
    VwpSpec,
    check_ellipticity,
    check_total_ellipticity_multi1,
    check_total_ellipticity_multi2,
    check_total_ellipticity_wp,
    eval_E,
    eval_G,
    eval_vwp,
    ge_split_check,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    term_ratio_at,
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
from thetahyp.identities import _LatticeTerms
from thetahyp.series import _dot, _eg_desc, _Multisum, _rank1, _sum_unilateral, _vwp_desc
from thetahyp.theta import theta, theta_zero_index

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
    "ft_4": ("(4.978888004470491-5.235353828880799j)", "(4.978888004470504-5.235353828880809j)", "2.3614861650218896e-15", 5),
    "ft_6": ("(1.6669341388561303-0.3498911273556826j)", "(1.6669341388561296-0.3498911273556703j)", "7.245792799165785e-15", 7),
    "bailey_5": ("(-411.58894563067315+7026.598761090835j)", "(-411.5889456307573+7026.598761090734j)", "1.8670153111964623e-14", 6),
    "multi1_2_4": ("(0.02413054990843071-0.016154351441604983j)", "(0.024130549908432657-0.016154351441604268j)", "7.140235872683149e-14", 15),
    "multi1_3_3": ("(0.341133530770868-0.4623307642660127j)", "(0.3411335307708647-0.4623307642660136j)", "5.906152639782839e-15", 20),
    "multi2_3_3": ("(0.8486027420737523+0.24690745894862018j)", "(0.8486027420737484+0.24690745894862726j)", "9.135852228251027e-15", 64),
    "multi2_4_2": ("(181.06622478975987+234.58240865372753j)", "(181.06622478976044+234.5824086537273j)", "2.0659870344785397e-15", 81),
    "ge_split_4": ("(-17254855625.884377-259597370631.37286j)", "(-17254855625.88308-259597370631.37225j)", "5.509597863150819e-15", 0),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_verifier_values_are_pinned(case):
    rep = REPORTS[case]()
    assert (repr(rep.lhs), repr(rep.rhs), repr(rep.rel_err), rep.terms_summed) == PINNED[case]
    assert rep.passed


NUM = (0.6 + 0.2j, -0.45 + 0.5j)
DEN = (0.7 - 0.1j, 0.52 + 0.33j)
E_SPEC = ThetaSeriesSpec("unilateral_E", (NOME.q**-5,) + NUM, DEN, 1, 0.4 + 0.2j, NOME)
G_SPEC = ThetaSeriesSpec("bilateral_G", NUM, DEN, 0, 0.5 + 0.1j, NOME)


def test_series_values_are_pinned():
    assert repr(eval_E(E_SPEC, trunc=TruncationDecl(0, 5)).value) == "(608531373838.0438-146526861622.21024j)"
    assert repr(eval_G(G_SPEC, (-3, 4)).value) == "(-5086.645925922441-606.574584645632j)"


def _loop_factorial(t, nome, n, factor=None):
    """The factor-by-factor product, written out as the reference: upward
    from t for n >= 0, and for n < 0 the inverse of the downward product
    theta(t q^-1) theta(t q^-2) ... theta(t q^n). Each factor is
    theta_factor's, or factor's where given."""
    factor = factor or (lambda z: theta_factor(z, nome.p))
    if n < 0:
        out = ONE
        for m in range(1, -n + 1):
            out = out * factor(complex(t) * nome.q**-m)
        return out.inverse()
    out = ONE
    arg = complex(t)
    for _ in range(n):
        out = out * factor(arg)
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
        for got in (FactorialValue(*table.factorial(t, n)), theta_factorial(t, NOME, n)):
            assert (got.finite_part, got.order) == (want.finite_part, want.order), n
    # the lattice cases put a factor of the range on a zero of theta
    assert any(table.factorial(t, n)[1] for n in range(9)) == on_lattice


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
        return (*_hex(v.finite_part), v.order)
    return complex(v).real.hex(), complex(v).imag.hex()


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
@pytest.mark.parametrize("t", [0.6 + 0.2j, NOME.q**-3], ids=["off_lattice", "on_lattice"])
def test_factorial_arguments_are_those_factorial_evaluates(monkeypatch, t, grown):
    for n in range(-12, 13):
        table = FactorTable(NOME)
        if grown:
            table.factorial(t, 5)
            table.factorial(t, -4)
        listed = table.factorial_arguments([t], min(n, 0), max(n, 0))
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


def _entries(prefix) -> list:
    """A prefix's (finite_part, order) entries, bit for bit."""
    return [(*_hex(finite), order) for finite, order in prefix]


def _lazily_grown(table) -> FactorTable:
    """A fresh table whose prefixes of every base of table are grown as
    long as table's, one factorial call each, with no batch."""
    grown = FactorTable(table.nome)
    for t, prefix in table._prefixes.items():
        grown.factorial(t, len(prefix) - 1)
    for t, prefix in table._downward.items():
        grown.factorial(t, 1 - len(prefix))
    return grown


def _assert_same_prefixes(table, grown):
    # a lazily grown prefix may run on past table's, through a factor that
    # another base's growth evaluated; the entries both hold are the same
    for filled, lazy in ((table._prefixes, grown._prefixes), (table._downward, grown._downward)):
        assert filled.keys() == lazy.keys()
        for t, prefix in filled.items():
            assert _entries(prefix) == _entries(lazy[t][: len(prefix)]), t


@pytest.mark.parametrize(
    "t", [0.6 + 0.2j, -0.45 + 0.5j, NOME.q**-3, NOME.p / NOME.q**2, NOME.q**5 / NOME.p],
    ids=["off_lattice", "off_lattice_2", "on_lattice", "on_lattice_p", "on_lattice_downward"],
)
def test_filled_prefixes_are_the_lazily_grown_ones(t):
    # after a batch of the listing, a base's first read in each direction
    # fills its prefix in one loop through the held factors; the entries
    # are those factorial grows one read at a time
    table = FactorTable(NOME)
    table.prefetch(table.factorial_arguments([t], -9, 9))
    table.factorial(t, 1)
    table.factorial(t, -1)
    assert len(table._prefixes[t]) == len(table._downward[t]) == 10
    _assert_same_prefixes(table, _lazily_grown(table))
    grown = FactorTable(NOME)
    for n in range(-9, 10):
        assert _hex(FactorialValue(*table.factorial(t, n))) == _hex(FactorialValue(*grown.factorial(t, n))), n


@pytest.mark.parametrize("t, lo, hi", [((0.6 + 0.2j) * NOME.q**-41, -8, 0), ((0.6 + 0.2j) * NOME.q**41, 0, 8)],
                         ids=["downward", "upward"])
def test_fill_stops_where_theta_raises(t, lo, hi):
    # theta leaves the float64 range from the prefix's (j + 1)-th factor
    # on, so the batch leaves those arguments out and the first read's fill
    # stops at entry j; a read past it evaluates the next factor and raises
    # as a fresh table's does
    table = FactorTable(NOME)
    table.prefetch(table.factorial_arguments([t], lo, hi))
    sign = -1 if lo < 0 else 1
    table.factorial(t, sign)
    j = len((table._downward if lo < 0 else table._prefixes)[t]) - 1
    assert 0 < j < 8
    _assert_same_prefixes(table, _lazily_grown(table))
    for n in range(j + 1, 9):
        errors = []
        for reader in (table, FactorTable(NOME)):
            with pytest.raises(FloatRangeError) as info:
                reader.factorial(t, sign * n)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "leaves the float64 range" in errors[0], n
    fresh = FactorTable(NOME).factorial(t, sign * j)
    assert _hex(FactorialValue(*table.factorial(t, sign * j))) == _hex(FactorialValue(*fresh))


def test_a_read_after_a_raise_mid_growth_raises_again():
    # theta leaves the float64 range at the upward prefix's fourth factor;
    # a growth that appended entries and then raised once left the prefix
    # a stale next argument, so the next read returned NaN
    t = (0.6 + 0.2j) * NOME.q**41
    table = FactorTable(NOME)
    table.factorial(t, 1)
    for n in (8, 5):
        with pytest.raises(FloatRangeError, match="leaves the float64 range"):
            table.factorial(t, n)


@pytest.mark.parametrize("q", [1e-103 + 0j, 1e-150 + 0j], ids=["overflows", "divides_by_0"])
def test_a_downward_read_past_a_failing_power_of_q(q):
    # q**-3 overflows, or divides by a q**3 that underflowed to 0, past the
    # entry a read of -2 asks for, whose factors theta(t/q), theta(t/q^2)
    # are finite: the read returns it with or without a batch before it
    nome = Nome(q, 1e-300 + 0j)
    t = 0.5 * q**2
    table = FactorTable(nome)
    assert table.factorial(t, -2) == (2 + 0j, 0)
    table = FactorTable(nome)
    table.prefetch(table.factorial_arguments([t], -2, 0))
    assert table.factorial(t, -2) == (2 + 0j, 0)


def _reference_term(terms, lam, read):
    """terms(*lam) in FactorialValue arithmetic, _LatticeTerms' assembly
    retyped from before its parts and products kept plain pairs: each part
    its heads multiplied, divided by each head base, then times each
    quotient (a)_m / (b)_m in turn; the cross parts, then the blocks, then
    the scalar, from ONE. read reads the theta factors as (finite_part,
    order) pairs, and each factorial is their loop product."""
    nome = terms.table.nome

    def factor(z):
        return FactorialValue(*read(z))

    keys = [(j, k, lam[j], lam[k]) for j, k in itertools.combinations(range(len(lam)), 2)] + list(enumerate(lam))
    out = ONE
    for key in keys:
        heads, runs = terms._shapes[key[: len(key) // 2]]
        at = key[len(key) // 2 :]
        part = functools.reduce(operator.mul, [factor(c * nome.q ** _dot(e, at)) for c, e in heads] or [ONE])
        for c, _ in heads:
            part = part / factor(c)
        for e, pairs in runs:
            m = _dot(e, at)
            for a, b in pairs:
                top = ONE if a is None else _loop_factorial(a, nome, m, factor)
                bottom = ONE if b is None else _loop_factorial(b, nome, m, factor)
                part = part * (top / bottom)
        out = out * part
    return out * terms.scalar(lam)


def _sides(params):
    """An identity's series and closed form as (terms, points), filled by one
    batch as its sides are."""
    table = FactorTable(params.nome)
    series, closed = params._describe(table)
    table.prefetch([arg for terms, _ in series for arg in terms.arguments()] + closed.arguments())
    return series + [(closed, [(1,)])]


def _listed(desc, points):
    table = FactorTable(NOME)
    terms = _LatticeTerms(desc, table, points)
    table.prefetch(terms.arguments())
    return [(terms, points)]


def _box(params):
    # every point of the box, so the cross pairs' lam_k - lam_j is also
    # negative and their bases read downward prefixes
    return _listed(params._lattice(), list(itertools.product(range(params.N + 1), repeat=params.n)))


# each case's (terms, points) and whether a term is a structural zero (order
# > 0) and a factorial reads a downward prefix; the closed forms of the
# identities are _closed's, with its integer scalar 1
ASSEMBLED = {
    "multi1_2_4": (lambda: _sides(sample_multi1(14, 2, 4, NOME)), False, False),
    "multi1_3_3": (lambda: _sides(sample_multi1(15, 3, 3, NOME)), False, False),
    "multi1_2_4_box": (lambda: _box(sample_multi1(14, 2, 4, NOME)), True, True),
    "multi1_3_3_box": (lambda: _box(sample_multi1(15, 3, 3, NOME)), True, True),
    "multi2_3_3": (lambda: _sides(sample_multi2(16, 3, (3, 3, 3), NOME)), False, False),
    "multi2_4_2": (lambda: _sides(sample_multi2(17, 4, (2,) * 4, NOME)), False, False),
    **{f"ft_{N}": (functools.partial(lambda N: _sides(sample_ft(20 + N, N, NOME)), N), False, False)
       for N in range(4, 9)},
    **{f"bailey_{N}": (functools.partial(lambda N: _sides(sample_bailey(30 + N, N, NOME)), N), False, False)
       for N in range(4, 9)},
    "G_window": (lambda: _listed(_eg_desc(G_SPEC), [(n,) for n in range(-3, 5)]), False, True),
    "E_zero": (lambda: _listed(_eg_desc(E_SPEC), [(n,) for n in range(9)]), True, False),
    "vwp_window": (lambda: _listed(_vwp_desc(GE_SPEC), [(n,) for n in range(-8, 9)]), False, True),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLED))
def test_terms_are_the_factorial_value_products_bit_for_bit(case):
    make, zero, downward = ASSEMBLED[case]
    readers = make()
    factor = FactorTable(NOME).factor
    orders = set()
    for terms, points in readers:
        for lam in points:
            got = terms(*lam)
            assert _hex(got) == _hex(_reference_term(terms, lam, factor)), lam
            orders.add(got.order)
    assert (max(orders) > 0, any(terms.table._downward for terms, _ in readers)) == (zero, downward)


@pytest.mark.parametrize("case", sorted(ASSEMBLED))
def test_assembled_tables_hold_the_lazily_grown_prefixes(case):
    make, _, _ = ASSEMBLED[case]
    for table in {id(terms.table): terms.table for terms, _ in make()}.values():
        _assert_same_prefixes(table, _lazily_grown(table))


@pytest.mark.parametrize("where", ["pair", "downward_pair"])
def test_underflowed_divisor_raises_as_factorial_value_does(where):
    # a theta factor whose finite part underflowed to 0, planted in the memo:
    # the pair's b at m = 1, or t q^-1 for b at m = -1. A head divisor needs
    # no such case: the memo holds only _factor_pair pairs, whose finite part
    # is never 0
    b = 0.6 + 0.2j
    n = -1 if where == "downward_pair" else 1
    terms = _LatticeTerms(_Multisum({}, (((), ((0.3 - 0.1j, b, (1,)),)),), lambda lam: 1), FactorTable(NOME))
    terms.table._factors[b * NOME.q**-1 if n < 0 else b] = (0j, 0)
    errors = []
    for run in (lambda: terms(n), lambda: _reference_term(terms, (n,), terms.table.factor)):
        with pytest.raises(FloatRangeError) as info:
            run()
        errors.append(str(info.value))
    assert errors == [factorials._UNDERFLOWED] * 2


CONVERGENT_E = ThetaSeriesSpec("unilateral_E", NUM, DEN, 0, 0.1 + 0.05j, NOME)


def test_unlisted_calls_are_the_factorial_value_products_bit_for_bit():
    # no listing and no batch: each call evaluates its factors as it reads them
    factor = FactorTable(NOME).factor
    shapes = _rank1(_vwp_desc(GE_SPEC), FactorTable(NOME))
    for n in range(-8, 9):
        assert _hex(vwp_coefficient(GE_SPEC, n)) == _hex(_reference_term(shapes, (n,), factor)), n
    for t in (0.6 + 0.2j, NOME.q**-3):
        for n in range(-6, 7):
            assert _hex(theta_factorial(t, NOME, n)) == _hex(_loop_factorial(t, NOME, n)), n
    # E_SPEC ends at its first structural zero, CONVERGENT_E at its tolerance
    for spec in (E_SPEC, CONVERGENT_E):
        shapes = _rank1(_eg_desc(spec), FactorTable(NOME))
        want = _sum_unilateral(lambda n: _reference_term(shapes, (n,), factor), None)
        got = eval_E(spec)
        assert (_hex(got.value), got.terms_used, got.terminated) == (_hex(want.value), want.terms_used, want.terminated)


@pytest.mark.parametrize("n", [3, -3])
def test_factorial_reads_equal_after_its_prefix_grows(n):
    table = FactorTable(NOME)
    first = FactorialValue(*table.factorial(0.6 + 0.2j, n))
    table.factorial(0.6 + 0.2j, 4 * n)
    again = FactorialValue(*table.factorial(0.6 + 0.2j, n))
    assert again == first and _hex(again) == _hex(first)


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

        def recording(self, args, distance=None):
            tables.append(self)
            return prefetch(self, args, distance) if batched else True

        with monkeypatch.context() as m:
            m.setattr(FactorTable, "prefetch", recording)
            values = _batched_values(arg)
        assert len(tables) == 1
        runs.append((set(tables[0]._factors), [_hex(v) for v in values]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == lanes


@pytest.mark.parametrize("case", sorted(BATCHED))
def test_reads_after_the_batch_grow_each_prefix_once(monkeypatch, case):
    # the batch holds every factor the terms read, so a base's first read
    # in a direction fills its prefix in one loop through them and every
    # later read is an index: one growth per base and direction, no theta
    make, _ = BATCHED[case]
    arg = make()
    grown, grow = [], FactorTable._grow

    def recording(self, t, n):
        grown.append((t, n < 0))
        grow(self, t, n)

    with monkeypatch.context() as m:
        m.setattr(FactorTable, "_grow", recording)
        scalar = _count_calls(monkeypatch, factorials, "theta", lambda: _batched_values(arg))
    assert scalar == 0 and grown and len(set(grown)) == len(grown)


def _multi1_off_tuples():
    # every point of the box, so a cross pair's exponent lam_k - lam_j is
    # also negative and its bases read downward prefixes
    params = sample_multi1(15, 3, 3, NOME)
    return params._lattice(), itertools.product(range(params.N + 1), repeat=params.n)


def _multi2_unequal(seed):
    params = sample_multi2(seed, 2, (1, 4), NOME)
    return params._lattice(), itertools.product(*(range(N + 1) for N in params.Ns))


def _single(spec, ns):
    return _eg_desc(spec), [(n,) for n in ns]


@pytest.mark.parametrize(
    "make",
    [
        _multi1_off_tuples,
        *(functools.partial(_multi2_unequal, seed) for seed in range(10)),
        functools.partial(_single, E_SPEC, range(6)),
        functools.partial(_single, G_SPEC, range(-3, 5)),
        # three numerators over two denominators: the last pair has no b
        functools.partial(_single, dataclasses.replace(G_SPEC, numerator=NUM + (0.3 - 0.5j,)), range(-5, 6)),
    ],
    ids=["multi1_off_tuples", *(f"multi2_1_4_seed{seed}" for seed in range(10)), "E_trunc", "G_window", "G_unequal"],
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
    assert set(listed) == set(table._factors)


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
    a, b = FactorialValue(2.5 - 1j, -1), FactorialValue(2.5 - 1j, order=-1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != FactorialValue(2.5 - 1j, 0)
    assert FactorialValue(1 + 0j) != (1 + 0j, 0)
    assert len({a, b, ONE}) == 2
    zero = theta_factor(NOME.p, NOME.p)
    assert repr(ONE) == "FactorialValue(finite_part=(1+0j), order=0)"
    assert repr(zero) == "FactorialValue(finite_part=(1+0j), order=1)"
    assert repr(zero.inverse()) == "FactorialValue(finite_part=(1+0j), order=-1)"
    assert repr(a) == "FactorialValue(finite_part=(2.5-1j), order=-1)"
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
    # _rank1's range cut lists no point of the window, as its first index
    # reads a theta argument past the range theta takes, so the window is
    # not batched and its first term raises, as it does unbatched
    with pytest.raises(FloatRangeError, match="term -400 of the series"):
        run()


def test_listing_that_overflows_lists_no_argument():
    # q^-800 overflows as the point's arguments are formed; its terms raise
    terms = _LatticeTerms(_vwp_desc(GE_SPEC), FactorTable(NOME), [(-800,)])
    assert terms.arguments() == []


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
    batches, of the sampler's guarded batches, none where the guard refuses
    one, and of the ellipticity checks' _theta_lanes passes."""
    count, theta_list = 0, factorials._theta_list

    def counting(evaluate, evaluations):
        def counted(*args):
            nonlocal count
            count += evaluations(*args)
            return evaluate(*args)

        return counted

    def guarded(zs, p, distance):
        nonlocal count
        values = theta_list(zs, p, distance)
        count += 0 if values is None else len(zs)
        return values

    with monkeypatch.context() as m:
        for owner in (factorials, ellipticity):
            m.setattr(owner, "theta", counting(owner.theta, lambda z, p: 1))
        m.setattr(factorials, "theta_many", counting(factorials.theta_many, lambda zs, p: len(zs)))
        m.setattr(factorials, "_theta_list", guarded)
        m.setattr(ellipticity, "_theta_lanes", counting(ellipticity._theta_lanes, lambda zs, p: len(zs)))
        fn()
    return count


def _count_zero_index_calls(monkeypatch, fn) -> int:
    """theta_zero_index calls, through every thetahyp module that binds it."""
    calls, target = 0, theta_zero_index

    def counting(*args):
        nonlocal calls
        calls += 1
        return target(*args)

    with monkeypatch.context() as m:
        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "thetahyp" and getattr(module, "theta_zero_index", None) is target:
                m.setattr(module, "theta_zero_index", counting)
        fn()
    return calls


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
    # on a fresh table made 206 and 536 calls here. The lattice guard reads
    # the draw's batch reduction, where a theta_zero_index call on each
    # distinct argument before the batch made 103 and 268 calls
    out = str(tmp_path / "report.json")
    cli_calls = _count_theta_calls(monkeypatch, lambda: main(["verify", *argv, "--draws", "1", "--out", out]))
    assert cli_calls == _count_theta_calls(monkeypatch, sample) == calls
    assert _count_zero_index_calls(monkeypatch, sample) == 0


def test_all_rejected_draws_exit_2(monkeypatch, capsys):
    # q = p (1 + 1e-9), so every draw reads theta near the lattice zero p;
    # the guard scans each draw's listed arguments before evaluating any
    argv = ["sample", "multi1", "--n", "2", "--N", "2", "--draws", "1", "--nome", "0.25000000025,0.05000000005,0.25,0.05"]
    codes = []
    assert _count_theta_calls(monkeypatch, lambda: codes.append(main(argv))) == 0
    assert codes == [2]
    assert "sample_multi1: could not find admissible parameters" in json.loads(capsys.readouterr().out)["error"]


# verifier, sampled params and budget of FactorTable.factorial calls, the
# prefix reads the terms make, each a (finite_part, order) pair; building
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


# verifier, sampled params or spec and the FactorialValues the check builds:
# one per term and one per closed form or prefactor, since the table and the
# term assembly keep (finite_part, order) pairs; when the table's memo and
# factorials held FactorialValues these checks built 333, 282, 111, 215 and 305
BUILT = {
    "multi2_3_3": (verify_multi2, lambda: sample_multi2(16, 3, (3, 3, 3), NOME), 65),
    "multi1_3_3": (verify_multi1, lambda: sample_multi1(15, 3, 3, NOME), 21),
    "ft_6": (verify_ft_sum, lambda: sample_ft(12, 6, NOME), 8),
    "bailey_6": (verify_bailey, lambda: sample_bailey(12, 6, NOME), 15),
    "ge_split_8": (lambda spec: ge_split_check(spec, 8, 8), lambda: GE_SPEC, 35),
}


@pytest.mark.parametrize("case", sorted(BUILT))
def test_factorial_values_are_built_only_at_the_edge(monkeypatch, case):
    check, sample, built = BUILT[case]
    arg = sample()
    assert _count_calls(monkeypatch, FactorialValue, "__init__", lambda: check(arg)) == built


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
# those of h_l read off the coefficient description as monomial columns, each
# theta argument formed as a X with the column's constant a and each theta(w)
# through Jacobi's imaginary transformation; h_l agrees with
# tests/test_reference.py's 40-digit coefficients to 1e-12. Folding a head's
# q^{e_l} and a reversed pair's 1/q into a leaves multi1 with 8 fewer
# distinct arguments (3,119 before).
ELLIPTICITY = {
    "multi1": (
        check_total_ellipticity_multi1,
        lambda: sample_multi1(53, 3, 2, NOME),
        5,
        (3300, 3111),
        (
            "3.831594054946816e-15", "4.54731840032309e-15", "2.8059707369506017e-15",
            "4.083957275320181e-15", "1.3229627251479104e-15", "1.7523669335086406e-15",
            "1.624827947806239e-15", "1.300679196443622e-15", "6.2564251434887625e-15",
        ),
    ),
    "multi2": (
        check_total_ellipticity_multi2,
        lambda: sample_multi2(63, 3, (2, 2, 2), NOME),
        6,
        (4000, 3743),
        (
            "1.8912163834798203e-15", "5.126012997950834e-15", "1.5454984181478063e-15",
            "2.9532091929634446e-15", "3.612348595089011e-15", "3.911189678095749e-15",
            "3.240701117790426e-15", "3.1364515048558937e-15", "2.83842960711186e-15",
            "1.4872657223506195e-15", "2.6033813379034577e-15", "2.994593839931487e-15",
        ),
    ),
}


# the well-poised check's one theta pass, 50 * 8 + 10 * 8 + 10 * 8 + 30 * 4
# lanes: the reference rows of its 50 first points take all 8 lanes, as do
# their 10 index and 10 u0 shifts; each of the 30 u_m shifts moves only the
# columns of u_m and of the balancing pair, 4 lanes
WP_ELLIPTICITY = (
    lambda: check_total_ellipticity_wp(
        0.11 - 0.04j, [0.21 + 0.05j, -0.17 + 0.08j, 0.26 - 0.03j], 0.5 + 0.2j, ModularPair(0.04 + 0.3j, 0.08 + 0.45j),
        seed=4,
    ),
    680,
)


def test_wp_ellipticity_theta_count(monkeypatch):
    check, count = WP_ELLIPTICITY
    assert _count_theta_calls(monkeypatch, check) == count



def _balanced_e_spec(seed: int, z: complex = 0.4 + 0.1j) -> ThetaSeriesSpec:
    """A balanced E spec: three numerator parameters and two denominator
    ones, the second solving prod num = q prod den."""
    rng = random.Random(f"E/{seed}")
    num = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(3)]
    den = [complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3))]
    den.append(math.prod(num, start=1 + 0j) / (NOME.q * den[0]))
    return ThetaSeriesSpec("unilateral_E", tuple(num), tuple(den), 0, z, NOME)


# check_ellipticity on balanced E specs: (spec and check seed, samples, z)
# and the report's max_rel_dev.hex() and sample_count. At z = 1e12 the
# reference |h| of most points passes 1e12, so 68 of the 80 points drawn are
# redrawn, one rng call each.
SPEC_ELLIPTICITY = [
    ((0, 5, 0.4 + 0.1j), ("0x1.46bbeb247d8c8p-49", 5)),
    ((1, 8, 0.4 + 0.1j), ("0x1.d950ca2990b6cp-49", 8)),
    ((2, 11, 0.4 + 0.1j), ("0x1.cfbbfec62ffb0p-49", 11)),
    ((3, 14, 0.4 + 0.1j), ("0x1.77df7533a110dp-49", 14)),
    ((4, 17, 0.4 + 0.1j), ("0x1.daf0fb59095c7p-49", 17)),
    ((5, 20, 0.4 + 0.1j), ("0x1.1c58a51496952p-48", 20)),
    ((6, 12, 1e12 + 0j), ("0x1.88fb45b202155p-48", 12)),
]


@pytest.mark.parametrize("case, pinned", SPEC_ELLIPTICITY)
def test_check_ellipticity_reports_are_pinned(case, pinned):
    seed, samples, z = case
    spec = _balanced_e_spec(seed, z)
    rep = check_ellipticity(lambda w: term_ratio_at(spec, w), NOME, samples=samples, seed=seed)
    assert (rep.max_rel_dev.hex(), rep.sample_count) == pinned
    assert rep.passed

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
    batches, pairs, passes = [], [], 0
    draws = built = 0
    h_rows, theta_lanes = ellipticity._h_rows, ellipticity._theta_lanes
    rand_mult_args, init = ellipticity._rand_mult_args, FactorialValue.__init__

    def counting_h_rows(hs, sets, points, p, refs):
        batches.append(collections.Counter(zip(sets, points)))
        pairs.append(refs)
        return h_rows(hs, sets, points, p, refs)

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
    [rows], [refs] = batches, pairs
    assert sum(rows.values()) == 2 * draws and max(rows.values()) == 1
    # each point's shifted row is paired with its reference row, which
    # stands alone
    assert refs == list(range(draws, 2 * draws)) * 2
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
    got = _hex_or_error(lambda: FactorialValue(*table.factor(arg)).value)
    assert got == _hex_or_error(lambda: FactorialValue(*FactorTable(NOME).factor(arg)).value)
    assert got == _hex_or_error(lambda: theta_factor(arg, NOME.p).value)
    if outcome == "zero":
        assert got == ((0.0).hex(), (0.0).hex())
    else:
        assert isinstance(got, type) == (outcome == "raises")
