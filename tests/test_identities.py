import cmath
import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

from thetahyp import (
    BaileyParams,
    FTParams,
    Multi1Params,
    Multi2Params,
    Nome,
    bailey_from_ft,
    bailey_map,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    verify_bailey,
    verify_ft_sum,
    verify_multi1,
    verify_multi2,
)
from thetahyp import identities
from thetahyp.errors import FloatRangeError
from thetahyp.identities import DEFAULT_BAND, MAX_LATTICE_POINTS, _admissible
from thetahyp.factorials import FactorTable
from thetahyp.series import _LatticeTerms
from thetahyp.theta import MAX_ZERO_ORDER, _reduction, _theta_lanes, _theta_list, theta_many

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Multi1Params(0, 0.8 + 0j, (0.5 + 0j,) * 6, 2, NOME), "rank n must be >= 1"),
        (lambda: Multi1Params(2, 0.8 + 0j, (0.5 + 0j,) * 5, 2, NOME), "exactly 6 t-parameters"),
        (lambda: Multi2Params(0, (0.5 + 0j,) * 4, (), NOME), "rank n must be >= 1"),
        (lambda: Multi2Params(2, (0.5 + 0j,) * 7, (2, 2), NOME), "needs 8 parameters"),
        (lambda: Multi2Params(2, (0.5 + 0j,) * 8, (2,), NOME), "one entry per rank"),
    ],
    ids=["multi1_rank", "multi1_params", "multi2_rank", "multi2_params", "multi2_depths"],
)
def test_multisum_shapes_are_refused(make, message):
    # each is refused before any constraint or theta value is computed
    with pytest.raises(ValueError, match=message):
        make()


class TestFTSum:
    def test_random_draws(self):
        for i in range(15):
            params = sample_ft(seed=100 + i, N=1 + i % 4, nome=NOME)
            rep = verify_ft_sum(params, tol=1e-8)
            assert rep.passed, f"seed {100 + i}: rel={rep.rel_err}"

    def test_trivial_truncation(self):
        params = sample_ft(seed=7, N=0, nome=NOME)
        rep = verify_ft_sum(params, tol=1e-10)
        assert rep.passed
        assert abs(rep.lhs - 1.0) < 1e-12  # single unit term

    def test_json_round_trip(self):
        params = sample_ft(seed=3, N=2, nome=NOME)
        back = FTParams.from_json(params.to_json())
        assert back == params

    def test_constraint_violation(self):
        params = sample_ft(seed=3, N=2, nome=NOME)
        bad = list(params.t)
        bad[1] *= 1.05
        with pytest.raises(ValueError):
            FTParams(tuple(bad), NOME, 2)

    def test_sampler_determinism(self):
        a = sample_ft(seed=42, N=3, nome=NOME)
        b = sample_ft(seed=42, N=3, nome=NOME)
        assert a == b

    def test_structural_zero_terms_are_skipped(self):
        # t0 t1 = q^-2: terms 3..N are exact zeros, which the check skips
        q, N = NOME.q, 5
        t0, t2, t3 = 0.6 + 0.2j, 0.5 - 0.3j, -0.45 + 0.4j
        t1, t4 = q**-2 / t0, q**-N / t0
        rep = verify_ft_sum(FTParams((t0, t1, t2, t3, t4, q / (t0 * t1 * t2 * t3 * t4)), NOME, N), tol=1e-10)
        assert rep.passed and rep.terms_summed == 3

    def test_sampler_resamples_a_draw_whose_sides_raise(self):
        # at N = 22 the first draw's terms read a theta argument past the
        # float64 range; the sampler rejects it and admits the 47th draw
        rng = np.random.default_rng(0)
        draws = [FTParams.draw(rng, 22, NOME, DEFAULT_BAND) for _ in range(47)]
        with pytest.raises(FloatRangeError):
            draws[0].sides(FactorTable(NOME))
        assert _admissible(draws[0]) is None
        assert sample_ft(seed=0, N=22, nome=NOME) == draws[46]

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0)])
    def test_a_non_finite_argument_is_rejected(self, monkeypatch, bad):
        # an infinite argument was rejected only through the OverflowError
        # the lattice scan raised, and a nan one raised ValueError out of it
        params = sample_ft(seed=3, N=2, nome=NOME)
        assert _admissible(params) is not None
        prefetch = FactorTable.prefetch
        monkeypatch.setattr(
            FactorTable, "prefetch", lambda table, args, distance: prefetch(table, [*args, bad], distance)
        )
        assert _admissible(params) is None


class TestBailey:
    def test_random_draws(self):
        for i in range(10):
            params = sample_bailey(seed=200 + i, N=1 + i % 3, nome=NOME)
            rep = verify_bailey(params, tol=1e-8)
            assert rep.passed, f"seed {200 + i}: rel={rep.rel_err}"

    def test_s_map_balancing(self):
        params = sample_bailey(seed=5, N=2, nome=NOME)
        s = bailey_map(params.t, NOME)
        q = NOME.q
        # the image parameters satisfy the same constraints
        assert abs(math.prod(s, start=1 + 0j) - q * q) < 1e-10 * abs(q * q)
        assert abs(s[0] * s[6] - q**-2) < 1e-10 * abs(q**-2)

    @pytest.mark.parametrize("N", [2, 4, 6])
    @pytest.mark.parametrize("seed", range(20))
    def test_both_roots_give_the_same_report_bit_for_bit(self, monkeypatch, seed, N):
        # the other root negates every mapped parameter, and the mapped 12E11
        # sum and its prefactor read them only through products of two, so
        # verify_bailey takes the principal root alone
        params = sample_bailey(seed, N, NOME)
        principal = json.dumps(verify_bailey(params).to_json())
        monkeypatch.setattr(identities, "bailey_map", lambda t, nome: tuple(-s for s in bailey_map(t, nome)))
        assert json.dumps(verify_bailey(params).to_json()) == principal

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_the_map_inverts_itself_with_the_root_that_returns_t0(self, seed, N):
        # mapped twice, s0 = r sqrt(t0^2): the root r with r sqrt(t0^2) = t0
        # returns t, the sign of Re t0, and the other root returns -t, whose
        # 12E11 sum reads only products of two t's and so is t's, bit for bit
        params = sample_bailey(seed, N, NOME)
        t, s = params.t, bailey_map(params.t, NOME)
        r = 1 if abs(cmath.sqrt(t[0] ** 2) - t[0]) < abs(t[0]) else -1
        assert r == (1 if t[0].real > 0 else -1)
        for sign in (r, -r):
            # the principal root, and the other, which negates every parameter
            back = [sign * b for b in bailey_map(s, NOME)]
            assert max(abs(b - sign * r * x) / abs(x) for b, x in zip(back, t)) <= 1e-13, sign
        flipped = BaileyParams(tuple(-x for x in t), NOME, N)
        assert verify_bailey(flipped).lhs == verify_bailey(params).lhs

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_the_sum_is_symmetric_in_its_free_parameters(self, seed, N):
        # each transposition of (t1, t2, t3, t4, t5, t7) keeps both constraints
        # and the 12E11 sum, to a rounding of kappa u |lhs| with kappa = sum
        # |c_k| / |sum c_k| and u = 2^-53; the mapped side moves, and verifies
        # wherever the sampler admits the set. Moving t_i and t_j apart at a
        # fixed product moves the sum well past that rounding
        params = sample_bailey(seed, N, NOME)
        lhs = verify_bailey(params).lhs
        terms = [c.value for c in params.sides(FactorTable(NOME))[0]]
        rounding = sum(map(abs, terms)) / abs(sum(terms)) * 2.0**-53 * abs(lhs)
        for i, j in itertools.combinations((1, 2, 3, 4, 5, 7), 2):
            swapped, moved = list(params.t), list(params.t)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            moved[i], moved[j] = moved[i] * (1 + 1e-6), moved[j] / (1 + 1e-6)
            swapped = BaileyParams(tuple(swapped), NOME, N)
            rep = verify_bailey(swapped)
            assert abs(rep.lhs - lhs) <= 16 * rounding, (i, j)
            assert rep.passed or _admissible(swapped) is None, (i, j)
            assert abs(verify_bailey(BaileyParams(tuple(moved), NOME, N)).lhs - lhs) > 100 * rounding, (i, j)

    def test_ft_embedding(self):
        ft = sample_ft(seed=11, N=3, nome=NOME)
        bl = bailey_from_ft(ft, x=0.55 + 0.22j)
        rep_b = verify_bailey(bl, tol=1e-8)
        rep_f = verify_ft_sum(ft, tol=1e-8)
        assert rep_b.passed and rep_f.passed
        # with t2 t3 = q the 12E11 left side collapses to the 10E9 sum
        assert abs(rep_b.lhs - rep_f.lhs) <= 1e-9 * abs(rep_f.lhs)

    def test_json_round_trip(self):
        params = sample_bailey(seed=4, N=1, nome=NOME)
        assert BaileyParams.from_json(params.to_json()) == params

    def test_constraint_violation(self):
        params = sample_bailey(seed=4, N=1, nome=NOME)
        bad = list(params.t)
        bad[2] *= 1.05
        with pytest.raises(ValueError):
            BaileyParams(tuple(bad), NOME, 1)


@pytest.mark.parametrize(
    "sample, cls, broken, message",
    [
        (sample_ft, FTParams, "length", "FTParams needs exactly 6 parameters"),
        (sample_ft, FTParams, "product", "constraint violated: prod t = q ("),
        (sample_ft, FTParams, "truncation", "constraint violated: t0 t4 = q^-N ("),
        (sample_bailey, BaileyParams, "length", "BaileyParams needs exactly 8 parameters"),
        (sample_bailey, BaileyParams, "product", "constraint violated: prod t = q^2 ("),
        (sample_bailey, BaileyParams, "truncation", "constraint violated: t0 t6 = q^-N ("),
    ],
)
def test_vwp_sum_params_messages(sample, cls, broken, message):
    # the CLI echoes these messages in its exit-2 diagnostics
    t = sample(seed=3, N=2, nome=NOME).t
    ts = {
        "length": t[:-1],
        "product": (t[0], t[1] * 1.05, *t[2:]),
        "truncation": (t[0] * 1.05, t[1] / 1.05, *t[2:]),  # keeps the product
    }[broken]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        cls(ts, NOME, 2)


@pytest.mark.parametrize(
    "sample, key, value",
    [
        (functools.partial(sample_ft, seed=3, N=2), "N", 2.7),
        (functools.partial(sample_ft, seed=3, N=1), "N", True),
        (functools.partial(sample_ft, seed=3, N=3), "N", "3"),
        (functools.partial(sample_bailey, seed=4, N=2), "N", 2.7),
        (functools.partial(sample_bailey, seed=4, N=1), "N", True),
        (functools.partial(sample_bailey, seed=4, N=3), "N", "3"),
        (functools.partial(sample_multi1, seed=6, n=2, N=2), "n", 2.5),
        (functools.partial(sample_multi2, seed=10, n=2, Ns=(2, 2)), "Ns", [2, 2.0]),
    ],
)
def test_from_json_reads_integers_strictly(sample, key, value):
    # int(value) is the sampled parameters' own integer, so only the JSON
    # type of the value is wrong
    params = sample(nome=NOME)
    with pytest.raises(ValueError, match=f"^{key} must be a JSON integer, got "):
        type(params).from_json({**params.to_json(), key: value})


class TestMulti1:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_draws(self, n):
        for i in range(6):
            params = sample_multi1(seed=300 + 10 * n + i, n=n, N=1 + i % 3, nome=NOME)
            rep = verify_multi1(params, tol=1e-7)
            assert rep.passed, f"n={n} seed {300 + 10 * n + i}: rel={rep.rel_err}"

    def test_rank_one_matches_ft(self):
        ft = sample_ft(seed=21, N=3, nome=NOME)
        m1 = Multi1Params(1, 0.7 + 0.1j, ft.t, 3, NOME)  # t unused at n=1
        rep_m = verify_multi1(m1, tol=1e-9)
        rep_f = verify_ft_sum(ft, tol=1e-9)
        assert rep_m.passed and rep_f.passed
        assert abs(rep_m.lhs - rep_f.lhs) <= 1e-10 * abs(rep_f.lhs)

    @pytest.mark.parametrize("nome", [NOME, Nome(0.3 - 0.25j, 0.1 + 0.3j)])
    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_rank_one_reduces_to_ft(self, nome, N):
        # at n = 1 and t = 1 the multi1 sum is the 10E9 sum: the same closed
        # form to the bit, and the same terms up to rounding. The lhs sums
        # are not compared, since cancellation moves them apart by up to 1e-10
        for seed in range(5):
            ft = sample_ft(seed, N, nome)
            m1 = Multi1Params(1, 1 + 0j, ft.t, N, nome)
            ft_terms, ft_closed = ft.sides(FactorTable(nome))
            m1_terms, m1_closed = m1.sides(FactorTable(nome))
            assert m1_closed == ft_closed
            assert len(m1_terms) == len(ft_terms) == N + 1
            for got, want in zip(m1_terms, ft_terms):
                assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
            rep_m, rep_f = verify_multi1(m1), verify_ft_sum(ft)
            assert (rep_m.rhs, rep_m.terms_summed) == (rep_f.rhs, rep_f.terms_summed)

    def test_ordered_tuple_boundary_zero(self):
        # the coefficient vanishes structurally just above the diagonal,
        # which is why the sum runs over ordered tuples only
        params = sample_multi1(seed=8, n=2, N=2, nome=NOME)
        c = _LatticeTerms(params._lattice(), FactorTable(params.nome))(2, 1)
        assert c.is_zero

    def test_json_round_trip(self):
        params = sample_multi1(seed=6, n=2, N=2, nome=NOME)
        assert Multi1Params.from_json(params.to_json()) == params

    def test_constraint_violation(self):
        params = sample_multi1(seed=6, n=2, N=2, nome=NOME)
        with pytest.raises(ValueError):
            Multi1Params(params.n, params.t * 1.03, params.t6, params.N, NOME)


class TestMulti2:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_draws(self, n):
        for i in range(4):
            Ns = tuple(1 + (i + j) % 2 for j in range(n))
            params = sample_multi2(seed=400 + 10 * n + i, n=n, Ns=Ns, nome=NOME)
            rep = verify_multi2(params, tol=1e-7)
            assert rep.passed, f"n={n} seed {400 + 10 * n + i}: rel={rep.rel_err}"

    def test_degenerate_nome_is_refused(self):
        # with p = q^2 some q-shift of every parameter meets a lattice of p
        q = 0.5 + 0.2j
        with pytest.raises(ValueError, match=r"^nome degenerate: q\^2 = p\^1$"):
            sample_multi2(seed=0, n=2, Ns=(1, 1), nome=Nome(q, q * q))

    def test_corner_coefficient_is_one(self):
        params = sample_multi2(seed=9, n=2, Ns=(2, 1), nome=NOME)
        c = _LatticeTerms(params._lattice(), FactorTable(params.nome))(0, 0)
        assert abs(c.value - 1.0) < 1e-14

    def test_json_round_trip(self):
        params = sample_multi2(seed=10, n=2, Ns=(1, 2), nome=NOME)
        assert Multi2Params.from_json(params.to_json()) == params

    def test_constraint_violation(self):
        params = sample_multi2(seed=10, n=2, Ns=(1, 2), nome=NOME)
        bad = list(params.t)
        bad[0] *= 1.02
        with pytest.raises(ValueError):
            Multi2Params(params.n, tuple(bad), params.Ns, NOME)

    def test_non_integer_depths_are_refused(self):
        # int() would build these at Ns = (2, 2), where the constraints hold
        params = sample_multi2(seed=10, n=2, Ns=(2, 2), nome=NOME)
        with pytest.raises(TypeError):
            Multi2Params(params.n, params.t, (2.7, 2.2), NOME)


@pytest.mark.parametrize(
    "sample, desc, lattice",
    [
        (lambda: sample_multi1(31, 2, 3, NOME), Multi1Params._lattice,
         list(itertools.combinations_with_replacement(range(4), 2))),
        (lambda: sample_multi2(32, 3, (2, 2, 2), NOME), Multi2Params._lattice,
         list(itertools.product(range(3), repeat=3))),
    ],
    ids=["multi1", "multi2"],
)
def test_cached_blocks_match_per_point_coefficient(sample, desc, lattice):
    # sides reuses each one-index block and two-index cross
    # factor across the lattice; every term must equal the coefficient of
    # its point built alone on a fresh table, to the last bit
    params = sample()
    terms, _ = params.sides(FactorTable(params.nome))
    assert len(terms) == len(lattice)
    for lam, got in zip(lattice, terms):
        want = _LatticeTerms(desc(params), FactorTable(params.nome))(*lam)
        assert (got.finite_part, got.order) == (want.finite_part, want.order), lam


@pytest.mark.parametrize(
    "cls, shape, points",
    [
        (Multi2Params, (20, (2,) * 20), 3**20),
        (Multi2Params, (2, (360, 360)), 361**2),
        (Multi1Params, (2, 361), math.comb(363, 2)),
        (Multi1Params, (361, 2), math.comb(363, 2)),
    ],
)
def test_oversized_lattice_is_refused(cls, shape, points):
    # a sum lists every point of its lattice before it sums one
    assert points > MAX_LATTICE_POINTS
    with pytest.raises(ValueError, match=f"more than {MAX_LATTICE_POINTS} points"):
        cls.draw(np.random.default_rng(0), *shape, NOME, DEFAULT_BAND)


@pytest.mark.parametrize(
    "cls, shape, points",
    [
        (Multi2Params, (6, (3,) * 6), 4096),
        (Multi2Params, (4, (15,) * 4), 16**4),
        (Multi1Params, (2, 360), math.comb(362, 2)),
        (Multi1Params, (360, 2), math.comb(362, 2)),
    ],
)
def test_lattices_up_to_the_cap_are_allowed(cls, shape, points):
    assert points <= MAX_LATTICE_POINTS
    params = cls.draw(np.random.default_rng(0), *shape, NOME, DEFAULT_BAND)
    assert cls.from_json(params.to_json()) == params


@pytest.mark.parametrize("seed", range(10))
def test_vwp_sums_verify_at_depth_8(seed):
    # each term multiplies its quotients (a)_k / (b)_k in turn; dividing the
    # product of all its numerator factorials by that of its denominators
    # overflowed to NaN here
    assert verify_ft_sum(sample_ft(seed, 8, NOME), tol=1e-8).passed
    assert verify_bailey(sample_bailey(seed, 8, NOME), tol=1e-8).passed


def test_samplers_reject_near_lattice_nome():
    # q sits 1e-9 away from p, so theta(q; p), a factor of every one of these
    # sums, is within the guard's distance of a lattice zero for any draw
    p = 0.25 + 0.05j
    nome = Nome(p * (1 + 1e-9), p)
    samplers = [
        ("sample_ft", lambda: sample_ft(0, 2, nome)),
        ("sample_bailey", lambda: sample_bailey(0, 2, nome)),
        ("sample_multi1", lambda: sample_multi1(0, 2, 2, nome)),
        ("sample_multi2", lambda: sample_multi2(0, 2, (1, 1), nome)),
    ]
    for name, sample in samplers:
        with pytest.raises(RuntimeError, match=f"^{name}: could not find admissible parameters$"):
            sample()


def _scalar_refuses(z: complex, p: complex, distance: float) -> bool:
    """The sampler's lattice guard as it was before the theta batch read it
    off its own reduction, one argument at a time: z not finite, abs(z)
    overflowing (an OverflowError the sampler caught), or theta_zero_index's
    test at relative accuracy distance. z = 0 is not refused."""
    if not cmath.isfinite(z):
        return True
    if z == 0:
        return False
    try:
        abs(z)
    except OverflowError:
        return True
    red = _reduction(complex(p))
    m, y, k = red.reduce(complex(z), complex(p))
    return abs(m) <= MAX_ZERO_ORDER and abs(y * red.powers[k] - 1.0) <= distance


def _refusal_lanes(p: complex) -> list[complex]:
    """Arguments on both sides of the guard at p: p^-M (1 + s delta) for
    |M| <= 70 (M = 0 alone at p = 0), four directions s and delta at 0, half,
    once and twice _LATTICE_EPS, then 0, non-finite ones, one whose abs
    overflows and seeded moduli from 1e-300 to 1e300."""
    rng = np.random.default_rng(39)
    lanes = [0j, complex(math.nan, 0.0), complex(math.inf, 0.0), complex(math.inf, math.nan), complex(0.5, math.nan)]
    lanes.append(1.7e308 * (1 + 1j))
    lanes += (np.logspace(-300, 300, 121) * np.exp(2j * math.pi * rng.uniform(0, 1, 121))).tolist()
    for M in range(-70, 71) if p else [0]:
        base = p**-M
        lanes += [base * (1 + s * delta) for s in (1, -1, 1j, -1j) for delta in (0.0, 5e-7, 1e-6, 2e-6)]
    return lanes


@pytest.mark.parametrize("p", [NOME.p, 0j, -0.004 + 0j, 0.003 + 0.001j, 0.9 + 0.1j, complex(-0.6, -0.0)])
def test_batch_refusal_matches_the_scalar_rule_lane_by_lane(p):
    lanes, eps = _refusal_lanes(p), identities._LATTICE_EPS
    refused = [_theta_lanes([z], p, eps) is None for z in lanes]
    assert refused == [_scalar_refuses(z, p, eps) for z in lanes]
    assert any(refused) and not all(refused)
    assert _theta_lanes(lanes, p, eps) is None
    # a batch of the admitted lanes is evaluated as without a distance
    admitted = [z for z, bad in zip(lanes, refused) if not bad]
    assert _theta_list(admitted, p, eps) == theta_many(admitted, p)


@pytest.mark.parametrize(
    "cls, args",
    [
        (FTParams, (4,)),
        (FTParams, (6,)),
        (BaileyParams, (4,)),
        (Multi1Params, (2, 4)),
        (Multi2Params, (3, (3, 3, 3))),
    ],
    ids=["ft_4", "ft_6", "bailey_4", "multi1_2_4", "multi2_3_3"],
)
@pytest.mark.parametrize("nome", [NOME, Nome(NOME.p * (1 + 1e-9), NOME.p)], ids=["default", "q_near_p"])
def test_sampler_admits_what_the_scalar_rule_admits(monkeypatch, cls, args, nome):
    # the same draws, parameters and sides, bit for bit, as with the scalar
    # scan of every distinct argument before an unguarded batch; at
    # q = p (1 + 1e-9) every draw is refused, so 25 a seed are compared there
    prefetch = FactorTable.prefetch

    def scalar_prefetch(table, arguments, distance=None):
        arguments = list(arguments)
        if distance is not None and any(_scalar_refuses(w, table.nome.p, distance) for w in dict.fromkeys(arguments)):
            return False
        return prefetch(table, arguments)

    def sampled(seed):
        try:
            return repr(identities._sample(cls, seed, *args, nome, DEFAULT_BAND))
        except RuntimeError as exc:
            return str(exc)

    if nome.q != NOME.q:
        monkeypatch.setattr(identities, "_MAX_RESAMPLE", 25)
    batched = [sampled(seed) for seed in range(20)]
    monkeypatch.setattr(FactorTable, "prefetch", scalar_prefetch)
    assert batched == [sampled(seed) for seed in range(20)]
    assert [s.startswith("sample_") for s in batched] == [nome.q != NOME.q] * 20


@pytest.mark.parametrize(
    "sample, change",
    [
        (lambda: sample_ft(3, 2, NOME), {"N": -1}),
        (lambda: sample_bailey(3, 2, NOME), {"N": -1}),
        (lambda: sample_multi1(3, 2, 2, NOME), {"N": -1}),
        (lambda: sample_multi2(3, 2, (2, 2), NOME), {"Ns": (2, -1)}),
    ],
)
def test_negative_depth_is_refused(sample, change):
    # a negative N leaves the left-hand sum empty; it is refused before the
    # constraints are checked, so the message names N itself
    with pytest.raises(ValueError, match="^(every )?truncation depth N.* must be >= 0"):
        dataclasses.replace(sample(), **change)
