"""Samplers and both-sides verifiers for the summation identities.

Covers the terminating very-well-poised balanced 10E9 evaluation
(Frenkel-Turaev sum), the two-term 12E11 transformation (elliptic Bailey
identity) and the two multivariable summation identities (ordered-tuple and
box-lattice kinds).

Each identity is described once, by its parameter class, as data.
``draw(rng, *shape, nome, band)`` takes free parameters with moduli in a
configurable band and solves the balancing / truncation constraints for the
dependent ones. ``_describe(table)`` gives the series as (terms, points)
and the closed form as a one-point description. Every side is a
``series._Multisum`` read through ``series._LatticeTerms``: the 10E9 and
12E11 terms are the rank-1 very-well-poised one, the multivariable sums
their rank-n blocks and cross parts, and each closed form or prefactor is
``series._closed``, a rank-1 block of quotients (a)_m / (b)_m read at the
one point (1,). One ``sides`` and one ``check`` serve every identity:
``sides`` lists every theta argument a description reads, evaluates
them in one ``theta_many`` batch and returns each series' terms and the
closed form; ``check(sides, tol)`` sums each series' nonzero terms and
compares the first sum with the closed form times each further sum. A
multivariable class also gives its summand, ``_lattice()``, and the
p-shifts that keep its balancing condition, ``_p_shifts()``, which
``_describe`` and the ellipticity checks read. The one resample loop
``_sample`` takes each draw's sides on a fresh table and resamples when
its theta batch, reading its own reduction before the prefactor, finds a
listed argument not finite or within _LATTICE_EPS of a lattice zero, or
when a left-hand series is badly conditioned. It returns the admitted
sides with the parameters; the sampler and ``_verify`` build the same
table, so a caller that verifies a draw can check those sides instead of
building them again. The 10E9 closed form is
the rank-1 multi1 one at t = 1.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import PoleError
from .factorials import FactorTable
from .report import JsonFields, VerificationReport
from .theta import Nome
from .series import VwpSpec, _closed, _LatticeTerms, _Multisum, _rank1, _sum_window, _vwp_desc

DEFAULT_BAND = (0.4, 0.9)
CONSTRAINT_RTOL = 1e-12
_LATTICE_EPS = 1e-6
_MAX_RESAMPLE = 500
# the largest multisum lattice a parameter set may sum over: multi2 at
# (6, 3) has 4,096 points, and the points are listed before any is summed
MAX_LATTICE_POINTS = 1 << 16


def _check_constraint(lhs: complex, rhs: complex, what: str) -> None:
    if abs(lhs - rhs) > CONSTRAINT_RTOL * max(abs(lhs), abs(rhs)):
        raise ValueError(f"constraint violated: {what} ({lhs} vs {rhs})")


def _refuse_oversized(sizes) -> None:
    """Raise ValueError once a running lattice size passes MAX_LATTICE_POINTS.
    The sizes never decrease and end at the lattice's point count, so the
    count is bounded without computing it in full or listing the points."""
    if any(size > MAX_LATTICE_POINTS for size in sizes):
        raise ValueError(f"the summation lattice has more than {MAX_LATTICE_POINTS} points")


_COND_CAP = 1e5


def _badly_conditioned(terms: list[complex]) -> bool:
    """True when the summed series loses more than log10(_COND_CAP) digits to
    cancellation (largest term much bigger than the sum)."""
    total = sum(terms, 0j)
    peak = max((abs(t) for t in terms), default=0.0)
    return abs(total) < peak / _COND_CAP


def _draw(rng: np.random.Generator, band: tuple[float, float]) -> complex:
    radius = rng.uniform(band[0], band[1])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * cmath.exp(1j * angle)


def _admissible(params):
    """params' sides on a fresh table, as _verify builds them, or None when
    a theta argument they read is not finite or lies within _LATTICE_EPS of
    a lattice zero (their theta batch refuses before any evaluation), when a
    side cannot be evaluated, or when a left-hand series is badly conditioned."""
    try:
        sides = params.sides(FactorTable(params.nome), _LATTICE_EPS)
        if sides is None or any(_badly_conditioned([c.value for c in terms]) for terms in sides[:-1]):
            return None
        return sides
    except (PoleError, ZeroDivisionError, OverflowError):
        return None


def _sample(cls, seed: int, *args):
    """Call cls.draw(rng, *args) on a rng seeded with seed, up to
    _MAX_RESAMPLE times, and return the first parameters _admissible admits
    with the sides it returned; the RuntimeError otherwise names the public
    sampler, sample_ft for FTParams."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        params = cls.draw(rng, *args)
        admitted = _admissible(params)
        if admitted is not None:
            return params, admitted
    name = cls.__name__.removesuffix("Params").lower()
    raise RuntimeError(f"sample_{name}: could not find admissible parameters")


def _verify(params, tol: float) -> VerificationReport:
    """Build params' sides on a fresh table and check them."""
    return params.check(params.sides(FactorTable(params.nome)), tol)


def _unchecked_replace(params, **changes):
    """dataclasses.replace without __post_init__: a p-shifted parameter set
    keeps its truncation constraints only modulo p, so validation would
    reject it."""
    out = object.__new__(type(params))
    for f in fields(params):
        object.__setattr__(out, f.name, changes.get(f.name, getattr(params, f.name)))
    return out


class _Identity(JsonFields):
    """An identity's parameters. Each subclass gives ``_describe(table)
    -> (series, closed)``: its series as a list of (terms, points), terms a
    _LatticeTerms summed over the index tuples points, and its closed form
    as the one-point _LatticeTerms of series._closed, a product of
    quotients (a)_m / (b)_m."""

    def sides(self, table: FactorTable, distance: float | None = None) -> tuple | None:
        """Each series' terms at its points and the closed form, read from one
        theta_many batch of every argument they list; None, with no term
        read, where a distance is given and that batch refuses (see
        FactorTable.prefetch)."""
        series, closed = self._describe(table)
        readers = [terms for terms, _ in series] + [closed]
        if not table.prefetch([arg for terms in readers for arg in terms.arguments()], distance):
            return None
        return *[[terms(*lam) for lam in points] for terms, points in series], closed(1)

    def check(self, sides, tol: float) -> VerificationReport:
        """Sum each series' nonzero terms and compare the first sum with the
        closed form times each further sum."""
        *series, closed = sides
        lhs, *rest = [_sum_window(terms.__getitem__, (0, len(terms) - 1)) for terms in series]
        rhs = math.prod([s.value for s in rest], start=closed.value)
        return VerificationReport.compare(
            lhs.value, rhs, tol, params_echo=self.to_json(), terms_summed=lhs.terms_used
        )


# ---------------------------------------------------------------------------
# Frenkel-Turaev sum


@dataclass(frozen=True)
class _VwpSumParams(_Identity):
    """Parameters of a terminating very-well-poised balanced sum: _COUNT t's
    with prod t = q^(_COUNT/2 - 2) and t0 t_{_COUNT-2} = q^-N."""

    t: tuple[complex, ...]
    nome: Nome
    N: int
    _COUNT: ClassVar[int]

    def __post_init__(self) -> None:
        count = self._COUNT
        if len(self.t) != count:
            raise ValueError(f"{type(self).__name__} needs exactly {count} parameters")
        if self.N < 0:
            raise ValueError(f"truncation depth N must be >= 0, got {self.N}")
        object.__setattr__(self, "t", tuple(complex(x) for x in self.t))
        q, power, last = self.nome.q, count // 2 - 2, count - 2
        balance = f"prod t = q^{power}" if power > 1 else "prod t = q"
        _check_constraint(math.prod(self.t, start=1 + 0j), q**power, balance)
        _check_constraint(self.t[0] * self.t[last], q ** (-self.N), f"t0 t{last} = q^-N")

    @classmethod
    def draw(cls, rng: np.random.Generator, N: int, nome: Nome, band: tuple[float, float]):
        """_COUNT - 2 free t's drawn in the modulus band, t_{_COUNT-2} = q^-N / t0,
        and the last t solved from the balancing condition."""
        count, q = cls._COUNT, nome.q
        free = [_draw(rng, band) for _ in range(count - 2)]
        trunc = q ** (-N) / free[0]
        return cls((*free, trunc, q ** (count // 2 - 2) / math.prod([*free, trunc])), nome, N)

    def _series(self, t: tuple[complex, ...], table: FactorTable) -> tuple[_LatticeTerms, list]:
        """The sum with parameters t: its coefficients, summed at k = 0..N."""
        ks = range(self.N + 1)
        spec = VwpSpec(t[0], t[1:], 1.0 + 0j, self.nome, "unilateral")
        return _rank1(_vwp_desc(spec), table, ks), [(k,) for k in ks]


class FTParams(_VwpSumParams):
    """Parameters of the terminating 10E9 evaluation: six t's with
    prod t = q and t0 t4 = q^-N."""

    _COUNT = 6

    def _describe(self, table: FactorTable) -> tuple[list, _LatticeTerms]:
        """The 10E9 sum and its closed form, the rank-1 multi1 one."""
        return [self._series(self.t, table)], _closed(table, _multi1_pairs(1 + 0j, self.t, 1, self.N, self.nome.q))


def sample_ft(
    seed: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> FTParams:
    """Draw FT parameters satisfying the balancing and truncation
    constraints by construction, resampling away from lattice zeros."""
    return _sample(FTParams, seed, N, nome, radius_band)[0]


def verify_ft_sum(params: FTParams, tol: float = 1e-8) -> VerificationReport:
    """Terminating 10E9 sum against its closed-form theta-factorial value."""
    return _verify(params, tol)


# ---------------------------------------------------------------------------
# elliptic Bailey transformation


class BaileyParams(_VwpSumParams):
    """Parameters of the two-term 12E11 transformation: eight t's with
    prod t = q^2 and t0 t6 = q^-N."""

    _COUNT = 8

    def _describe(self, table: FactorTable) -> tuple[list, _LatticeTerms]:
        """The 12E11 sums at t and at the mapped parameters s, and the
        theta-factorial prefactor of the s sum."""
        t, q, N = self.t, self.nome.q, self.N
        s = bailey_map(t, self.nome)
        pref_num = [q * t[0] * t[0], q * s[0] / s[4], q * s[0] / s[5], q / (t[4] * t[5])]
        pref_den = [q * s[0] * s[0], q * t[0] / t[4], q * t[0] / t[5], q / (s[4] * s[5])]
        prefactor = _closed(table, [(a, b, N) for a, b in zip(pref_num, pref_den)])
        return [self._series(t, table), self._series(s, table)], prefactor


def bailey_map(t: tuple[complex, ...], nome: Nome) -> tuple[complex, ...]:
    """Parameter map t -> s of the Bailey transformation.

    s0 is the principal root of q t0 / (t1 t2 t3); the other root negates
    every mapped parameter (both satisfy the transported constraints).
    Mapped back, s0 is sqrt(t0^2): where Re t0 > 0 the map inverts itself,
    and elsewhere it returns -t. Both roots give the same 12E11 sum: the
    sum and its prefactor read s only through products of two s's (s0^2,
    s0 s_m, q s0 / s_m, q / (s4 s5)), which negation leaves bit for bit. So
    verify_bailey takes the principal root.
    """
    q = nome.q
    t0 = t[0]
    s0 = cmath.sqrt(q * t0 / (t[1] * t[2] * t[3]))
    return (
        s0,
        s0 * t[1] / t0,
        s0 * t[2] / t0,
        s0 * t[3] / t0,
        t0 * t[4] / s0,
        t0 * t[5] / s0,
        t0 * t[6] / s0,
        t0 * t[7] / s0,
    )


def sample_bailey(
    seed: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> BaileyParams:
    return _sample(BaileyParams, seed, N, nome, radius_band)[0]


def bailey_from_ft(ft: FTParams, x: complex) -> BaileyParams:
    """Embed FT parameters into the Bailey identity via t2 t3 = q, with the
    free split parameter x: the 12E11 left side then reduces to the 10E9 sum."""
    q = ft.nome.q
    t = ft.t
    return BaileyParams((t[0], t[1], x, q / x, t[2], t[3], t[4], t[5]), ft.nome, ft.N)


def verify_bailey(params: BaileyParams, tol: float = 1e-8) -> VerificationReport:
    """Two-term 12E11 transformation, both series terminating at N, at the
    principal root of bailey_map."""
    return _verify(params, tol)


# ---------------------------------------------------------------------------
# multivariable sum, ordered-tuple kind


@dataclass(frozen=True)
class Multi1Params(_Identity):
    """Rank-n generalization of the FT sum over ordered tuples
    0 <= lam_1 <= ... <= lam_n <= N, with tau_j = t0 t^{j-1}."""

    n: int
    t: complex
    t6: tuple[complex, ...]
    N: int
    nome: Nome

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank n must be >= 1")
        if len(self.t6) != 6:
            raise ValueError("Multi1Params needs exactly 6 t-parameters")
        if self.N < 0:
            raise ValueError(f"truncation depth N must be >= 0, got {self.N}")
        # C(N + n, n) ordered tuples, as C(big + i, i) for i = 0..small
        big, small = max(self.n, self.N), min(self.n, self.N)
        _refuse_oversized(itertools.accumulate(range(1, small + 1), lambda c, i: c * (big + i) // i, initial=1))
        object.__setattr__(self, "t6", tuple(complex(x) for x in self.t6))
        q = self.nome.q
        _check_constraint(
            self.t ** (2 * self.n - 2) * math.prod(self.t6, start=1 + 0j),
            q,
            "t^(2n-2) prod t_r = q",
        )
        _check_constraint(
            self.t ** (self.n - 1) * self.t6[0] * self.t6[4],
            q ** (-self.N),
            "t^(n-1) t0 t4 = q^-N",
        )

    def _p_shifts(self) -> list[tuple[str, "Multi1Params"]]:
        """(name, shifted set) per free parameter, each p-shift with the
        co-shift of t5 that keeps t^(2n-2) prod t_r = q: t_m p with t5 / p
        for m < 5, and t p with t5 / p^(2n-2)."""
        p, (*free, t5) = self.nome.p, self.t6
        shifts = [(f"t{m}", {"t6": (*free[:m], free[m] * p, *free[m + 1 :], t5 / p)}) for m in range(5)]
        shifts.append(("t", {"t": self.t * p, "t6": (*free, t5 / p ** (2 * self.n - 2))}))
        return [(name, _unchecked_replace(self, **changes)) for name, changes in shifts]

    @property
    def taus(self) -> list[complex]:
        return [self.t6[0] * self.t ** (j - 1) for j in range(1, self.n + 1)]

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int, N: int, nome: Nome, band: tuple[float, float]):
        """t in the modulus band (0.55, 0.9), t0..t3 in band, t4 and t5
        solved from the truncation and balancing conditions."""
        q = nome.q
        t = _draw(rng, (0.55, 0.9))
        t0, t1, t2, t3 = (_draw(rng, band) for _ in range(4))
        t4 = q ** (-N) / (t ** (n - 1) * t0)
        t5 = q / (t ** (2 * n - 2) * t0 * t1 * t2 * t3 * t4)
        return cls(n, t, (t0, t1, t2, t3, t4, t5), N, nome)

    def _lattice(self) -> _Multisum:
        """The summand as a _Multisum, over the indices of the ordered tuple."""
        q, t, n, taus = self.nome.q, self.t, self.n, self.taus
        cross = {
            (j, k): (
                ((taus[k] * taus[j], (1, 1)), (taus[k] / taus[j], (-1, 1))),
                (
                    (t * taus[k] * taus[j], q / t * taus[k] * taus[j], (1, 1)),
                    (t * taus[k] / taus[j], q / t * taus[k] / taus[j], (-1, 1)),
                ),
            )
            for j, k in itertools.combinations(range(n), 2)
        }
        blocks = tuple(
            (((taus[j] * taus[j], (2,)),), tuple((tr * taus[j], q / tr * taus[j], (1,)) for tr in self.t6))
            for j in range(n)
        )

        def scalar(lam: tuple[int, ...]) -> complex:
            return q ** sum(lam) * t ** (2 * sum(map(operator.mul, range(n - 1, -1, -1), lam)))

        return _Multisum(cross, blocks, scalar)

    def _describe(self, table: FactorTable) -> tuple[list, _LatticeTerms]:
        """The sum over ordered tuples in lattice order, and the closed form."""
        lattice = itertools.combinations_with_replacement(range(self.N + 1), self.n)
        terms = _LatticeTerms(self._lattice(), table, lattice)
        return [(terms, terms.points)], _closed(table, _multi1_pairs(self.t, self.t6, self.n, self.N, self.nome.q))


def sample_multi1(
    seed: int,
    n: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi1Params:
    return _sample(Multi1Params, seed, n, N, nome, radius_band)[0]


def _multi1_pairs(t: complex, t6: tuple[complex, ...], n: int, N: int, q: complex) -> list[tuple]:
    """The multi1 closed form as pairs (a, b, N): for j = 1..n, the j-th
    displayed factor's four numerator bases zipped with its four denominator
    bases. At t = 1, n = 1 it is the 10E9 closed form."""
    t0, t1, t2, t3 = t6[:4]
    pairs = list(itertools.combinations((1, 2, 3), 2))
    return [
        (a, b, N)
        for j in range(1, n + 1)
        for a, b in zip(
            [q * t ** (n + j - 2) * t0 * t0, *(q * t ** (1 - j) / (t6[r] * t6[s]) for r, s in pairs)],
            [q * t ** (2 - n - j) / (t0 * t1 * t2 * t3), *(q * t ** (j - 1) * t0 / t6[r] for r in (1, 2, 3))],
        )
    ]


def verify_multi1(params: Multi1Params, tol: float = 1e-7) -> VerificationReport:
    return _verify(params, tol)


# ---------------------------------------------------------------------------
# multivariable sum, box-lattice kind


@dataclass(frozen=True)
class Multi2Params(_Identity):
    """Rank-n box summation: 2n+4 parameters with q^-1 prod t = 1 and
    q^{N_j} t_j t_{n+j} = 1."""

    n: int
    t: tuple[complex, ...]
    Ns: tuple[int, ...]
    nome: Nome

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank n must be >= 1")
        if len(self.t) != 2 * self.n + 4:
            raise ValueError(f"Multi2Params needs {2 * self.n + 4} parameters")
        if len(self.Ns) != self.n:
            raise ValueError("Ns must have one entry per rank")
        object.__setattr__(self, "t", tuple(complex(x) for x in self.t))
        object.__setattr__(self, "Ns", tuple(map(operator.index, self.Ns)))
        if min(self.Ns) < 0:
            raise ValueError(f"every truncation depth N in Ns must be >= 0, got {self.Ns}")
        _refuse_oversized(itertools.accumulate((N + 1 for N in self.Ns), operator.mul))
        q, p = self.nome.q, self.nome.p
        _check_constraint(math.prod(self.t, start=1 + 0j) / q, 1.0 + 0j, "q^-1 prod t = 1")
        for j in range(1, self.n + 1):
            _check_constraint(
                q ** self.Ns[j - 1] * self.t[j] * self.t[self.n + j],
                1.0 + 0j,
                f"q^N_{j} t_{j} t_{self.n + j} = 1",
            )
        for k in range(1, 17):
            for l in range(1, 17):
                if abs(q**k - p**l) <= 1e-12 * abs(p**l):
                    raise ValueError(f"nome degenerate: q^{k} = p^{l}")

    def _p_shifts(self) -> list[tuple[str, "Multi2Params"]]:
        """(name, shifted set) per free parameter: t_m p with the last t over
        p, which keeps q^-1 prod t = 1."""
        p, (*free, last) = self.nome.p, self.t
        shifted = [(*free[:m], free[m] * p, *free[m + 1 :], last / p) for m in range(len(free))]
        return [(f"t{m}", _unchecked_replace(self, t=t)) for m, t in enumerate(shifted)]

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int, Ns: tuple[int, ...], nome: Nome, band: tuple[float, float]):
        """t_1..t_n, t0, a and b in band, t_{n+j} solved from the truncation
        conditions and c from the balancing condition."""
        q = nome.q
        body = [_draw(rng, band) for _ in range(n)]  # t_1..t_n
        trunc = [q ** (-Ns[j]) / body[j] for j in range(n)]  # t_{n+1}..t_{2n}
        t0 = _draw(rng, band)
        a = _draw(rng, band)
        b = _draw(rng, band)
        partial = t0 * math.prod(body, start=1 + 0j) * math.prod(trunc, start=1 + 0j) * a * b
        c = q / partial
        return cls(n, (t0, *body, *trunc, a, b, c), tuple(Ns), nome)

    def _lattice(self) -> _Multisum:
        """The summand as a _Multisum, over the indices of the box."""
        q, n, t = self.nome.q, self.n, self.t
        cross = {
            (j, k): (((t[j + 1] * t[k + 1], (1, 1)), (t[j + 1] / t[k + 1], (1, -1))), ())
            for j, k in itertools.combinations(range(n), 2)
        }
        blocks = tuple(
            (((tj * tj, (2,)),), tuple((tj * t[r], q * tj / t[r], (1,)) for r in range(2 * n + 4)))
            for tj in t[1 : n + 1]
        )

        def scalar(lam: tuple[int, ...]) -> complex:
            return q ** sum(map(operator.mul, range(1, n + 1), lam))

        return _Multisum(cross, blocks, scalar)

    def _describe(self, table: FactorTable) -> tuple[list, _LatticeTerms]:
        """The sum over the box lattice in lattice order, and the closed form:
        the factorials at |N|, for j < k those at N_j and N_k over the one at
        N_j + N_k, and for each j the quotient (q t_j^2)_{N_j} / (q t_j / a)_{N_j}
        over the other three denominator factorials at N_j."""
        q = self.nome.q
        n, t, Ns = self.n, self.t, self.Ns
        a, b, c = t[2 * n + 1], t[2 * n + 2], t[2 * n + 3]
        ntot = sum(Ns)
        lattice = itertools.product(*(range(N + 1) for N in Ns))
        terms = _LatticeTerms(self._lattice(), table, lattice)
        pairs = [(x, None, ntot) for x in (q / (a * b), q / (a * c), q / (b * c))]
        for (j, Nj), (k, Nk) in itertools.combinations(enumerate(Ns, 1), 2):
            x = q * t[j] * t[k]
            pairs += [(x, None, Nj), (x, None, Nk), (None, x, Nj + Nk)]
        for j, Nj in enumerate(Ns, 1):
            pairs.append((q * t[j] * t[j], q * t[j] / a, Nj))
            pairs += [(None, d, Nj) for d in (q * t[j] / b, q * t[j] / c, q ** (1 + ntot - Nj) / (t[j] * a * b * c))]
        return [(terms, terms.points)], _closed(table, pairs)


def sample_multi2(
    seed: int,
    n: int,
    Ns: tuple[int, ...],
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi2Params:
    return _sample(Multi2Params, seed, n, Ns, nome, radius_band)[0]


def verify_multi2(params: Multi2Params, tol: float = 1e-7) -> VerificationReport:
    return _verify(params, tol)
