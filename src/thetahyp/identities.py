"""Samplers and both-sides verifiers for the summation identities.

Covers the terminating very-well-poised balanced 10E9 evaluation
(Frenkel-Turaev sum), the two-term 12E11 transformation (elliptic Bailey
identity) and the two multivariable summation identities (ordered-tuple and
box-lattice kinds).

Each identity is described once, by its parameter class, as data.
``draw(rng, *shape, nome, band)`` takes free parameters with moduli in a
configurable band and solves the balancing / truncation constraints for the
dependent ones. ``_describe(table)`` gives the series as (terms, points)
and the closed form as ratios of theta-factorial products. Every series is
a ``series._Multisum`` read through ``series._LatticeTerms``: the 10E9 and
12E11 terms are the rank-1 very-well-poised one, the multivariable sums
their rank-n blocks and cross parts. One ``sides`` and one ``check`` serve
every identity: ``_arguments`` lists every theta argument a description
reads, one ``theta_many`` batch evaluates them, and ``_evaluate`` returns
each series' terms and the closed form; ``check(sides, tol)`` sums each
series' nonzero terms and compares the first sum with the closed form
times each further sum. The one resample loop ``_sample`` describes each
draw on a fresh table and resamples when any theta argument it lists sits
within _LATTICE_EPS of a lattice zero, before any theta evaluation, or when
a left-hand series is badly conditioned. It returns the admitted sides with
the parameters; the sampler and ``_verify`` build the same table, so a
caller that verifies a draw can check those sides instead of building them
again. The 10E9 closed form is the rank-1 multi1 one at t = 1.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import PoleError
from .factorials import ONE, FactorialValue, FactorTable
from .report import JsonFields, VerificationReport
from .theta import Nome, theta_zero_index
from .series import VwpSpec, _LatticeTerms, _Multisum, _sum_window, _vwp_terms

DEFAULT_BAND = (0.4, 0.9)
CONSTRAINT_RTOL = 1e-12
_LATTICE_EPS = 1e-6
_MAX_RESAMPLE = 500


def _check_constraint(lhs: complex, rhs: complex, what: str) -> None:
    if abs(lhs - rhs) > CONSTRAINT_RTOL * max(abs(lhs), abs(rhs)):
        raise ValueError(f"constraint violated: {what} ({lhs} vs {rhs})")


def _near_lattice(w: complex, p: complex) -> bool:
    return theta_zero_index(w, p, rtol=_LATTICE_EPS) is not None


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


def _arguments(table: FactorTable, series: list, ratios: list) -> list[complex]:
    """Every theta argument the series' terms and the closed form read past
    the table's prefixes, formed as they form them."""
    args = [arg for terms, _ in series for arg in terms.arguments()]
    factorials = [f for ratio in ratios for f in itertools.chain(*ratio)]
    return args + [arg for b, m in factorials for arg in table.factorial_arguments([b], m)]


def _evaluate(table: FactorTable, series: list, ratios: list) -> tuple:
    """Each series' terms at its points, then the closed form: over the
    ratios (num, den), the product of num's factorials over den's."""
    values = [[terms(*lam) for lam in points] for terms, points in series]
    closed = ONE
    for num, den in ratios:
        top, bottom = (functools.reduce(operator.mul, [table.factorial(*f) for f in fs], ONE) for fs in (num, den))
        closed = closed * (top / bottom)
    return *values, closed


def _admissible(params):
    """params' sides on a fresh table, as _verify builds them, or None when
    a theta argument they read lies within _LATTICE_EPS of a lattice zero
    (scanned before any theta evaluation), when a side cannot be evaluated,
    or when a left-hand series is badly conditioned."""
    table = FactorTable(params.nome)
    try:
        series, ratios = params._describe(table)
        args = _arguments(table, series, ratios)
        if any(_near_lattice(w, params.nome.p) for w in dict.fromkeys(args)):
            return None
        table.prefetch(args)
        sides = _evaluate(table, series, ratios)
        if any(_badly_conditioned([c.value for c in terms]) for terms in sides[:-1]):
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


def _verify(params, tol: float, **kw) -> VerificationReport:
    """Build params' sides on a fresh table and check them."""
    return params.check(params.sides(FactorTable(params.nome), **kw), tol)


def _at(m: int, bases: list[complex]) -> list[tuple[complex, int]]:
    """Each base's factorial at depth m, as (base, m)."""
    return [(b, m) for b in bases]


class _Identity(JsonFields):
    """An identity's parameters. Each subclass gives ``_describe(table, **kw)
    -> (series, ratios)``: its series as a list of (terms, points), terms a
    _LatticeTerms summed over the index tuples points, and its closed form
    as a list of ratios (num, den) of factorial products, each a list of
    (base, depth)."""

    def sides(self, table: FactorTable, **kw) -> tuple:
        """Each series' terms at its points and the closed form, read from one
        theta_many batch."""
        series, ratios = self._describe(table, **kw)
        table.prefetch(_arguments(table, series, ratios))
        return _evaluate(table, series, ratios)

    def check(self, sides, tol: float) -> VerificationReport:
        """Sum each series' nonzero terms and compare the first sum with the
        closed form times each further sum."""
        *series, closed = sides
        lhs, *rest = [_sum_window(terms.__getitem__, (0, len(terms) - 1)) for terms in series]
        rhs = math.prod([s.value for s in rest], start=closed.value)
        return VerificationReport.compare(
            lhs.value, rhs, tol, params_echo=self.to_json(), terms_summed=lhs.terms_used
        )


def _lattice_h(desc: _Multisum, l: int, q: complex) -> tuple[complex, list[tuple]]:
    """h_l = c(lam + e_l) / c(lam) for the 1-based index l as (ratio, columns):
    h_l(xs) = ratio * prod theta(num) / theta(den) over the columns in
    order, with xs = [q^{lam_j}]. A column (e, a, b, s, d) reads X = prod_j
    x_j^{e_j}, e over all n indices: num = a X, times s where s is given,
    and den = b X, both divided by d where d is given. A head (c, e) gives
    (c X q^{e_l}, c X), a pair (a, b, e) gives (a X, b X) when e_l = 1 and
    (b X / q, a X / q) when e_l = -1, and ratio is scalar(e_l) / scalar(0).
    The columns touch only the parts that contain l, and their (e, s, d)
    depend only on the family, its rank, q and l, so every parameter set of
    a check shares them and adds its constants (a, b)."""
    n, i = len(desc.blocks), l - 1
    ratio = desc.scalar(tuple(int(j == i) for j in range(n))) / desc.scalar((0,) * n)
    touching = [((min(i, j), max(i, j)), desc.cross[min(i, j), max(i, j)]) for j in range(n) if j != i]
    columns = []
    for idx, (heads, pairs) in touching + [((i,), desc.blocks[i])]:
        at = idx.index(i)
        columns += [(_widen(e, idx, n), c, c, q ** e[at], None) for c, e in heads]
        for a, b, e in pairs:
            if e[at] == 1:
                columns.append((_widen(e, idx, n), a, b, None, None))
            elif e[at] == -1:
                columns.append((_widen(e, idx, n), b, a, None, q))
    return ratio, columns


def _widen(e: tuple[int, ...], idx: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The exponents e of the indices idx as a vector over all n indices."""
    out = [0] * n
    for j, ej in zip(idx, e):
        out[j] = ej
    return tuple(out)


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
        return _vwp_terms(VwpSpec(t[0], t[1:], 1.0 + 0j, self.nome, "unilateral"), table, ks), [(k,) for k in ks]


class FTParams(_VwpSumParams):
    """Parameters of the terminating 10E9 evaluation: six t's with
    prod t = q and t0 t4 = q^-N."""

    _COUNT = 6

    def _describe(self, table: FactorTable) -> tuple[list, list]:
        """The 10E9 sum and its closed form, the rank-1 multi1 one."""
        return [self._series(self.t, table)], _multi1_ratios(1 + 0j, self.t, 1, self.N, self.nome.q)


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

    def _describe(self, table: FactorTable, root_sign: int = 1) -> tuple[list, list]:
        """The 12E11 sums at t and at the mapped parameters s, and the
        theta-factorial prefactor of the s sum."""
        t, q, N = self.t, self.nome.q, self.N
        s = bailey_map(t, self.nome, root_sign)
        pref_num = [q * t[0] * t[0], q * s[0] / s[4], q * s[0] / s[5], q / (t[4] * t[5])]
        pref_den = [q * s[0] * s[0], q * t[0] / t[4], q * t[0] / t[5], q / (s[4] * s[5])]
        return [self._series(t, table), self._series(s, table)], [(_at(N, pref_num), _at(N, pref_den))]


def bailey_map(t: tuple[complex, ...], nome: Nome, root_sign: int = 1) -> tuple[complex, ...]:
    """Parameter map t -> s of the Bailey transformation.

    s0 is the principal root of q t0 / (t1 t2 t3); root_sign=-1 selects the
    other root (both satisfy the transported constraints).
    """
    q = nome.q
    t0 = t[0]
    s0 = root_sign * cmath.sqrt(q * t0 / (t[1] * t[2] * t[3]))
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


def verify_bailey(params: BaileyParams, tol: float = 1e-8, root_sign: int = 1) -> VerificationReport:
    """Two-term 12E11 transformation, both series terminating at N."""
    return _verify(params, tol, root_sign=root_sign)


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

    def _describe(self, table: FactorTable) -> tuple[list, list]:
        """The sum over ordered tuples in lattice order, and the closed form."""
        lattice = itertools.combinations_with_replacement(range(self.N + 1), self.n)
        terms = _LatticeTerms(_multi1_lattice(self), table, lattice)
        return [(terms, terms.points)], _multi1_ratios(self.t, self.t6, self.n, self.N, self.nome.q)


def sample_multi1(
    seed: int,
    n: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi1Params:
    return _sample(Multi1Params, seed, n, N, nome, radius_band)[0]


def _multi1_lattice(params: Multi1Params) -> _Multisum:
    q, t, n = params.nome.q, params.t, params.n
    taus = params.taus
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
        (((taus[j] * taus[j], (2,)),), tuple((tr * taus[j], q / tr * taus[j], (1,)) for tr in params.t6))
        for j in range(n)
    )

    def scalar(lam: tuple[int, ...]) -> complex:
        return q ** sum(lam) * t ** (2 * sum((n - (j + 1)) * lam[j] for j in range(n)))

    return _Multisum(cross, blocks, scalar)


def _multi1_coefficient(params: Multi1Params, lam: tuple[int, ...], table: FactorTable) -> FactorialValue:
    """The coefficient at one point lam, also outside the ordered tuples."""
    return _LatticeTerms(_multi1_lattice(params), table)(*lam)


def _multi1_ratios(t: complex, t6: tuple[complex, ...], n: int, N: int, q: complex) -> list[tuple[list, list]]:
    """The multi1 closed form: for j = 1..n, the ratio of the j-th displayed
    factor's factorials at N. At t = 1, n = 1 it is the 10E9 closed form."""
    t0, t1, t2, t3 = t6[:4]
    pairs = list(itertools.combinations((1, 2, 3), 2))
    return [
        (_at(N, [q * t ** (n + j - 2) * t0 * t0, *(q * t ** (1 - j) / (t6[r] * t6[s]) for r, s in pairs)]),
         _at(N, [q * t ** (2 - n - j) / (t0 * t1 * t2 * t3), *(q * t ** (j - 1) * t0 / t6[r] for r in (1, 2, 3))]))
        for j in range(1, n + 1)
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

    def _describe(self, table: FactorTable) -> tuple[list, list]:
        """The sum over the box lattice in lattice order, and the closed form:
        the factorials at |N|, for j < k those at N_j and N_k over the one at
        N_j + N_k, and for each j the ratio at N_j."""
        q = self.nome.q
        n, t, Ns = self.n, self.t, self.Ns
        a, b, c = t[2 * n + 1], t[2 * n + 2], t[2 * n + 3]
        ntot = sum(Ns)
        lattice = itertools.product(*(range(N + 1) for N in Ns))
        terms = _LatticeTerms(_multi2_lattice(self), table, lattice)
        ratios = [(_at(ntot, [q / (a * b), q / (a * c), q / (b * c)]), [])]
        for (j, Nj), (k, Nk) in itertools.combinations(enumerate(Ns, 1), 2):
            x = q * t[j] * t[k]
            ratios.append(([(x, Nj), (x, Nk)], [(x, Nj + Nk)]))
        ratios += [
            (_at(Nj, [q * t[j] * t[j]]),
             _at(Nj, [q * t[j] / a, q * t[j] / b, q * t[j] / c, q ** (1 + ntot - Nj) / (t[j] * a * b * c)]))
            for j, Nj in enumerate(Ns, 1)
        ]
        return [(terms, terms.points)], ratios


def sample_multi2(
    seed: int,
    n: int,
    Ns: tuple[int, ...],
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi2Params:
    return _sample(Multi2Params, seed, n, Ns, nome, radius_band)[0]


def _multi2_lattice(params: Multi2Params) -> _Multisum:
    q, n, t = params.nome.q, params.n, params.t
    cross = {
        (j, k): (((t[j + 1] * t[k + 1], (1, 1)), (t[j + 1] / t[k + 1], (1, -1))), ())
        for j, k in itertools.combinations(range(n), 2)
    }
    blocks = tuple(
        (((tj * tj, (2,)),), tuple((tj * t[r], q * tj / t[r], (1,)) for r in range(2 * n + 4)))
        for tj in t[1 : n + 1]
    )

    def scalar(lam: tuple[int, ...]) -> complex:
        return q ** sum((j + 1) * lam[j] for j in range(n))

    return _Multisum(cross, blocks, scalar)


def _multi2_coefficient(params: Multi2Params, lam: tuple[int, ...], table: FactorTable) -> FactorialValue:
    """The coefficient at one point lam."""
    return _LatticeTerms(_multi2_lattice(params), table)(*lam)


def verify_multi2(params: Multi2Params, tol: float = 1e-7) -> VerificationReport:
    return _verify(params, tol)
