"""Samplers and both-sides verifiers for the summation identities.

Covers the terminating very-well-poised balanced 10E9 evaluation
(Frenkel-Turaev sum), the two-term 12E11 transformation (elliptic Bailey
identity), the two multivariable summation identities (ordered-tuple and
box-lattice kinds), and the generic multiple-series coefficient.

Samplers draw free parameters with moduli in a configurable band, solve
the balancing / truncation constraints for the dependent parameters, and
resample when any theta factor used by the verifier sits too close to a
lattice zero.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, ThetaDomainError
from .factorials import (
    ONE,
    FactorialValue,
    FactorTable,
    elliptic_factorial,
    theta_factorial,
    theta_factorial_multi,
)
from .report import VerificationReport, complex_from_json, complex_to_json
from .theta import DEFAULT_POLICY, ModularPair, Nome, PrecisionPolicy, theta_zero_index
from .series import VwpSpec, _vwp_coefficient, eval_vwp

DEFAULT_BAND = (0.4, 0.9)
CONSTRAINT_RTOL = 1e-12
_LATTICE_EPS = 1e-6
_MAX_RESAMPLE = 500


def _check_constraint(lhs: complex, rhs: complex, what: str, rtol: float = CONSTRAINT_RTOL) -> None:
    if abs(lhs - rhs) > rtol * max(abs(lhs), abs(rhs)):
        raise ValueError(f"constraint violated: {what} ({lhs} vs {rhs})")


def _near_lattice(w: complex, p: complex, eps: float = _LATTICE_EPS) -> bool:
    return theta_zero_index(w, p, rtol=eps) is not None


def _jl(ts) -> list[list[float]]:
    return [complex_to_json(t) for t in ts]


_COND_CAP = 1e5


def _badly_conditioned(terms: list[complex], cap: float = _COND_CAP) -> bool:
    """True when the summed series loses more than log10(cap) digits to
    cancellation (largest term much bigger than the sum)."""
    total = sum(terms, 0j)
    peak = max((abs(t) for t in terms), default=0.0)
    if peak == 0.0:
        return False
    return abs(total) < peak / cap


def _draw(rng: np.random.Generator, band: tuple[float, float]) -> complex:
    radius = rng.uniform(band[0], band[1])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * cmath.exp(1j * angle)


# ---------------------------------------------------------------------------
# Frenkel-Turaev sum


@dataclass(frozen=True)
class FTParams:
    """Parameters of the terminating 10E9 evaluation: six t's with
    prod t = q and t0 t4 = q^-N."""

    t: tuple[complex, ...]
    nome: Nome
    N: int

    def __post_init__(self) -> None:
        if len(self.t) != 6:
            raise ValueError("FTParams needs exactly 6 parameters")
        object.__setattr__(self, "t", tuple(complex(x) for x in self.t))
        q = self.nome.q
        _check_constraint(math.prod(self.t, start=1 + 0j), q, "prod t = q")
        _check_constraint(self.t[0] * self.t[4], q ** (-self.N), "t0 t4 = q^-N")

    def to_json(self) -> dict:
        return {
            "t": _jl(self.t),
            "q": complex_to_json(self.nome.q),
            "p": complex_to_json(self.nome.p),
            "N": self.N,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FTParams":
        return cls(
            t=tuple(complex_from_json(x) for x in obj["t"]),
            nome=Nome(complex_from_json(obj["q"]), complex_from_json(obj["p"])),
            N=int(obj["N"]),
        )


def _ft_theta_args(t: tuple[complex, ...], q: complex, N: int) -> list[complex]:
    """Theta-factor arguments appearing in the 10E9 verifier, for the
    sampler's lattice-zero guard."""
    t0 = t[0]
    args = [t0 * t0]
    for m in t:
        for k in range(N + 2):
            args.append(q * t0 / m * q**k)
    for r in range(1, 4):
        for s in range(r + 1, 4):
            for k in range(N):
                args.append(q / (t[r] * t[s]) * q**k)
    for k in range(N):
        args.append(q / (t0 * t[1] * t[2] * t[3]) * q**k)
    return args


def sample_ft(
    seed: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> FTParams:
    """Draw FT parameters satisfying the balancing and truncation
    constraints by construction, resampling away from lattice zeros."""
    rng = np.random.default_rng(seed)
    q, p = nome.q, nome.p
    for _ in range(_MAX_RESAMPLE):
        t0, t1, t2, t3 = (_draw(rng, radius_band) for _ in range(4))
        t4 = q ** (-N) / t0
        t5 = q / (t0 * t1 * t2 * t3 * t4)
        t = (t0, t1, t2, t3, t4, t5)
        if any(_near_lattice(w, p) for w in _ft_theta_args(t, q, N)):
            continue
        spec = VwpSpec(t0, t[1:], 1.0 + 0j, nome, "unilateral")
        table = FactorTable(nome)
        try:
            terms = [_vwp_coefficient(spec, k, table).value for k in range(N + 1)]
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
        if _badly_conditioned(terms):
            continue
        return FTParams(t, nome, N)
    raise RuntimeError("sample_ft: could not find admissible parameters")


def verify_ft_sum(
    params: FTParams,
    tol: float = 1e-8,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Terminating 10E9 sum against its closed-form theta-factorial value."""
    t = params.t
    nome, N = params.nome, params.N
    q = nome.q
    t0 = t[0]

    spec = VwpSpec(t0, t[1:], 1.0 + 0j, nome, "unilateral")
    lhs_sv = eval_vwp(spec, trunc=N, policy=policy)

    num = theta_factorial(q * t0 * t0, nome, N, policy)
    for r in range(1, 4):
        for s in range(r + 1, 4):
            num = num * theta_factorial(q / (t[r] * t[s]), nome, N, policy)
    den = theta_factorial(q / (t0 * t[1] * t[2] * t[3]), nome, N, policy)
    for r in range(1, 4):
        den = den * theta_factorial(q * t0 / t[r], nome, N, policy)
    rhs = (num / den).value

    return VerificationReport.compare(
        lhs_sv.value, rhs, tol, params_echo=params.to_json(), terms_summed=lhs_sv.terms_used
    )


# ---------------------------------------------------------------------------
# elliptic Bailey transformation


@dataclass(frozen=True)
class BaileyParams:
    """Parameters of the two-term 12E11 transformation: eight t's with
    prod t = q^2 and t0 t6 = q^-N."""

    t: tuple[complex, ...]
    nome: Nome
    N: int

    def __post_init__(self) -> None:
        if len(self.t) != 8:
            raise ValueError("BaileyParams needs exactly 8 parameters")
        object.__setattr__(self, "t", tuple(complex(x) for x in self.t))
        q = self.nome.q
        _check_constraint(math.prod(self.t, start=1 + 0j), q * q, "prod t = q^2")
        _check_constraint(self.t[0] * self.t[6], q ** (-self.N), "t0 t6 = q^-N")

    def to_json(self) -> dict:
        return {
            "t": _jl(self.t),
            "q": complex_to_json(self.nome.q),
            "p": complex_to_json(self.nome.p),
            "N": self.N,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BaileyParams":
        return cls(
            t=tuple(complex_from_json(x) for x in obj["t"]),
            nome=Nome(complex_from_json(obj["q"]), complex_from_json(obj["p"])),
            N=int(obj["N"]),
        )


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


def _bailey_guard(t: tuple[complex, ...], s: tuple[complex, ...], nome: Nome, N: int) -> bool:
    q, p = nome.q, nome.p
    args: list[complex] = []
    for params in (t, s):
        t0 = params[0]
        args.append(t0 * t0)
        for m in params:
            for k in range(N + 2):
                args.append(q * t0 / m * q**k)
    for k in range(N):
        args.append(q * s[0] / s[4] * q**k)
        args.append(q * s[0] / s[5] * q**k)
        args.append(q / (t[4] * t[5]) * q**k)
        args.append(q * s[0] * s[0] * q**k)
        args.append(q * t[0] / t[4] * q**k)
        args.append(q * t[0] / t[5] * q**k)
        args.append(q / (s[4] * s[5]) * q**k)
    return any(_near_lattice(w, p) for w in args)


def sample_bailey(
    seed: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> BaileyParams:
    rng = np.random.default_rng(seed)
    q = nome.q
    for _ in range(_MAX_RESAMPLE):
        t0, t1, t2, t3, t4, t5 = (_draw(rng, radius_band) for _ in range(6))
        t6 = q ** (-N) / t0
        t7 = q * q / (t0 * t1 * t2 * t3 * t4 * t5 * t6)
        t = (t0, t1, t2, t3, t4, t5, t6, t7)
        s = bailey_map(t, nome)
        if _bailey_guard(t, s, nome, N):
            continue
        table = FactorTable(nome)
        try:
            lhs_terms = [
                _vwp_coefficient(VwpSpec(t[0], t[1:], 1.0 + 0j, nome, "unilateral"), k, table).value
                for k in range(N + 1)
            ]
            rhs_terms = [
                _vwp_coefficient(VwpSpec(s[0], s[1:], 1.0 + 0j, nome, "unilateral"), k, table).value
                for k in range(N + 1)
            ]
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
        if _badly_conditioned(lhs_terms) or _badly_conditioned(rhs_terms):
            continue
        return BaileyParams(t, nome, N)
    raise RuntimeError("sample_bailey: could not find admissible parameters")


def bailey_from_ft(ft: FTParams, x: complex) -> BaileyParams:
    """Embed FT parameters into the Bailey identity via t2 t3 = q, with the
    free split parameter x: the 12E11 left side then reduces to the 10E9 sum."""
    q = ft.nome.q
    t = ft.t
    return BaileyParams((t[0], t[1], x, q / x, t[2], t[3], t[4], t[5]), ft.nome, ft.N)


def verify_bailey(
    params: BaileyParams,
    tol: float = 1e-8,
    root_sign: int = 1,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Two-term 12E11 transformation, both series terminating at N."""
    t = params.t
    nome, N = params.nome, params.N
    q = nome.q
    s = bailey_map(t, nome, root_sign)

    lhs_sv = eval_vwp(VwpSpec(t[0], t[1:], 1.0 + 0j, nome, "unilateral"), trunc=N, policy=policy)

    pref_num = theta_factorial_multi(
        [q * t[0] * t[0], q * s[0] / s[4], q * s[0] / s[5], q / (t[4] * t[5])], nome, N, policy
    )
    pref_den = theta_factorial_multi(
        [q * s[0] * s[0], q * t[0] / t[4], q * t[0] / t[5], q / (s[4] * s[5])], nome, N, policy
    )
    rhs_series = eval_vwp(VwpSpec(s[0], s[1:], 1.0 + 0j, nome, "unilateral"), trunc=N, policy=policy)
    rhs = (pref_num / pref_den).value * rhs_series.value

    return VerificationReport.compare(
        lhs_sv.value, rhs, tol, params_echo=params.to_json(), terms_summed=lhs_sv.terms_used
    )


# ---------------------------------------------------------------------------
# multivariable sum, ordered-tuple kind


@dataclass(frozen=True)
class Multi1Params:
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": complex_to_json(self.t),
            "t6": _jl(self.t6),
            "N": self.N,
            "q": complex_to_json(self.nome.q),
            "p": complex_to_json(self.nome.p),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Multi1Params":
        return cls(
            n=int(obj["n"]),
            t=complex_from_json(obj["t"]),
            t6=tuple(complex_from_json(x) for x in obj["t6"]),
            N=int(obj["N"]),
            nome=Nome(complex_from_json(obj["q"]), complex_from_json(obj["p"])),
        )


def sample_multi1(
    seed: int,
    n: int,
    N: int,
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi1Params:
    rng = np.random.default_rng(seed)
    q, p = nome.q, nome.p
    for _ in range(_MAX_RESAMPLE):
        t = _draw(rng, (0.55, 0.9))
        t0, t1, t2, t3 = (_draw(rng, radius_band) for _ in range(4))
        t4 = q ** (-N) / (t ** (n - 1) * t0)
        t5 = q / (t ** (2 * n - 2) * t0 * t1 * t2 * t3 * t4)
        params = Multi1Params(n, t, (t0, t1, t2, t3, t4, t5), N, nome)
        if _multi1_guard(params):
            continue
        table = FactorTable(nome)
        try:
            terms = [
                _multi1_coefficient(params, lam, table).value
                for lam in itertools.combinations_with_replacement(range(N + 1), n)
            ]
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
        if _badly_conditioned(terms):
            continue
        return params
    raise RuntimeError("sample_multi1: could not find admissible parameters")


def _multi1_guard(params: Multi1Params) -> bool:
    q, p = params.nome.q, params.nome.p
    t = params.t
    taus = params.taus
    N, n = params.N, params.n
    args: list[complex] = []
    for j, tau in enumerate(taus):
        args.append(tau * tau)
        for tr in params.t6:
            for k in range(N + 1):
                args.append(q / tr * tau * q**k)
    for j in range(n):
        for k in range(j + 1, n):
            args.append(taus[k] * taus[j])
            args.append(taus[k] / taus[j])
            for m in range(2 * N + 1):
                args.append(q / t * taus[k] * taus[j] * q**m)
                args.append(q / t * taus[k] / taus[j] * q**m)
    # closed-form side
    for j in range(1, n + 1):
        for k in range(N):
            args.append(q * t ** (2 - n - j) / (params.t6[0] * params.t6[1] * params.t6[2] * params.t6[3]) * q**k)
            for r in range(1, 4):
                args.append(q * t ** (j - 1) * params.t6[0] / params.t6[r] * q**k)
    return any(_near_lattice(w, p) for w in args)


def _multi1_coefficient(params: Multi1Params, lam: tuple[int, ...], table: FactorTable) -> FactorialValue:
    q = params.nome.q
    t = params.t
    n = params.n
    taus = params.taus
    out = ONE
    scalar = q ** sum(lam) * t ** (2 * sum((n - (j + 1)) * lam[j] for j in range(n)))
    for j in range(n):
        for k in range(j + 1, n):
            cross = (
                table.factor(taus[k] * taus[j] * q ** (lam[k] + lam[j]))
                * table.factor(taus[k] / taus[j] * q ** (lam[k] - lam[j]))
                / table.factor(taus[k] * taus[j])
                / table.factor(taus[k] / taus[j])
            )
            cross = cross * (
                table.factorial(t * taus[k] * taus[j], lam[k] + lam[j])
                / table.factorial(q / t * taus[k] * taus[j], lam[k] + lam[j])
            )
            cross = cross * (
                table.factorial(t * taus[k] / taus[j], lam[k] - lam[j])
                / table.factorial(q / t * taus[k] / taus[j], lam[k] - lam[j])
            )
            out = out * cross
    for j in range(n):
        blk = table.factor(taus[j] * taus[j] * q ** (2 * lam[j])) / table.factor(taus[j] * taus[j])
        for tr in params.t6:
            blk = blk * (table.factorial(tr * taus[j], lam[j]) / table.factorial(q / tr * taus[j], lam[j]))
        out = out * blk
    return out * scalar


def multi1_lhs(params: Multi1Params, policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple[complex, int]:
    table = FactorTable(params.nome, policy)
    total = 0j
    count = 0
    for lam in itertools.combinations_with_replacement(range(params.N + 1), params.n):
        c = _multi1_coefficient(params, lam, table)
        if c.is_zero:
            continue
        total += c.value
        count += 1
    return total, count


def multi1_rhs(params: Multi1Params, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Closed-form side, read as the product over j = 1..n of the displayed
    j-dependent factor."""
    nome, N, n = params.nome, params.N, params.n
    q = nome.q
    t = params.t
    t0, t1, t2, t3 = params.t6[0], params.t6[1], params.t6[2], params.t6[3]
    out = ONE
    for j in range(1, n + 1):
        num = theta_factorial(q * t ** (n + j - 2) * t0 * t0, nome, N, policy)
        for r in range(1, 4):
            for s in range(r + 1, 4):
                num = num * theta_factorial(
                    q * t ** (1 - j) / (params.t6[r] * params.t6[s]), nome, N, policy
                )
        den = theta_factorial(q * t ** (2 - n - j) / (t0 * t1 * t2 * t3), nome, N, policy)
        for r in range(1, 4):
            den = den * theta_factorial(q * t ** (j - 1) * t0 / params.t6[r], nome, N, policy)
        out = out * (num / den)
    return out.value


def verify_multi1(
    params: Multi1Params,
    tol: float = 1e-7,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    lhs, count = multi1_lhs(params, policy)
    rhs = multi1_rhs(params, policy)
    return VerificationReport.compare(lhs, rhs, tol, params_echo=params.to_json(), terms_summed=count)


# ---------------------------------------------------------------------------
# multivariable sum, box-lattice kind


@dataclass(frozen=True)
class Multi2Params:
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
        object.__setattr__(self, "Ns", tuple(int(x) for x in self.Ns))
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": _jl(self.t),
            "Ns": list(self.Ns),
            "q": complex_to_json(self.nome.q),
            "p": complex_to_json(self.nome.p),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Multi2Params":
        return cls(
            n=int(obj["n"]),
            t=tuple(complex_from_json(x) for x in obj["t"]),
            Ns=tuple(int(x) for x in obj["Ns"]),
            nome=Nome(complex_from_json(obj["q"]), complex_from_json(obj["p"])),
        )


def sample_multi2(
    seed: int,
    n: int,
    Ns: tuple[int, ...],
    nome: Nome,
    radius_band: tuple[float, float] = DEFAULT_BAND,
) -> Multi2Params:
    rng = np.random.default_rng(seed)
    q = nome.q
    for _ in range(_MAX_RESAMPLE):
        body = [_draw(rng, radius_band) for _ in range(n)]  # t_1..t_n
        trunc = [q ** (-Ns[j]) / body[j] for j in range(n)]  # t_{n+1}..t_{2n}
        t0 = _draw(rng, radius_band)
        a = _draw(rng, radius_band)
        b = _draw(rng, radius_band)
        partial = t0 * math.prod(body, start=1 + 0j) * math.prod(trunc, start=1 + 0j) * a * b
        c = q / partial
        t = (t0, *body, *trunc, a, b, c)
        params = Multi2Params(n, t, tuple(Ns), nome)
        if _multi2_guard(params):
            continue
        table = FactorTable(nome)
        try:
            terms = [
                _multi2_coefficient(params, lam, table).value
                for lam in itertools.product(*(range(Nj + 1) for Nj in Ns))
            ]
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
        if _badly_conditioned(terms):
            continue
        return params
    raise RuntimeError("sample_multi2: could not find admissible parameters")


def _multi2_guard(params: Multi2Params) -> bool:
    q, p = params.nome.q, params.nome.p
    n, t, Ns = params.n, params.t, params.Ns
    a, b, c = t[2 * n + 1], t[2 * n + 2], t[2 * n + 3]
    ntot = sum(Ns)
    args: list[complex] = []
    for j in range(1, n + 1):
        tj = t[j]
        args.append(tj * tj)
        for r in range(2 * n + 4):
            for k in range(Ns[j - 1] + 1):
                args.append(q * tj / t[r] * q**k)
        for x in (a, b, c):
            for k in range(Ns[j - 1]):
                args.append(q * tj / x * q**k)
        for k in range(Ns[j - 1]):
            args.append(q ** (1 + ntot - Ns[j - 1]) / (tj * a * b * c) * q**k)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            args.append(t[j] * t[k])
            args.append(t[j] / t[k])
            for m in range(ntot):
                args.append(q * t[j] * t[k] * q**m)
    for x, y in ((a, b), (a, c), (b, c)):
        for k in range(ntot):
            args.append(q / (x * y) * q**k)
    return any(_near_lattice(w, p) for w in args)


def _multi2_coefficient(params: Multi2Params, lam: tuple[int, ...], table: FactorTable) -> FactorialValue:
    q = params.nome.q
    n, t = params.n, params.t
    out = ONE
    scalar = q ** sum((j + 1) * lam[j] for j in range(n))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            out = out * (
                table.factor(t[j] * t[k] * q ** (lam[j - 1] + lam[k - 1]))
                * table.factor(t[j] / t[k] * q ** (lam[j - 1] - lam[k - 1]))
                / table.factor(t[j] * t[k])
                / table.factor(t[j] / t[k])
            )
    for j in range(1, n + 1):
        lj = lam[j - 1]
        blk = table.factor(t[j] * t[j] * q ** (2 * lj)) / table.factor(t[j] * t[j])
        for r in range(2 * n + 4):
            blk = blk * (table.factorial(t[j] * t[r], lj) / table.factorial(q * t[j] / t[r], lj))
        out = out * blk
    return out * scalar


def multi2_lhs(params: Multi2Params, policy: PrecisionPolicy = DEFAULT_POLICY) -> tuple[complex, int]:
    table = FactorTable(params.nome, policy)
    total = 0j
    count = 0
    for lam in itertools.product(*(range(N + 1) for N in params.Ns)):
        c = _multi2_coefficient(params, lam, table)
        if c.is_zero:
            continue
        total += c.value
        count += 1
    return total, count


def multi2_rhs(params: Multi2Params, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    nome = params.nome
    q = nome.q
    n, t, Ns = params.n, params.t, params.Ns
    a, b, c = t[2 * n + 1], t[2 * n + 2], t[2 * n + 3]
    ntot = sum(Ns)
    out = theta_factorial_multi([q / (a * b), q / (a * c), q / (b * c)], nome, ntot, policy)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            out = out * (
                theta_factorial(q * t[j] * t[k], nome, Ns[j - 1], policy)
                * theta_factorial(q * t[j] * t[k], nome, Ns[k - 1], policy)
                / theta_factorial(q * t[j] * t[k], nome, Ns[j - 1] + Ns[k - 1], policy)
            )
    for j in range(1, n + 1):
        Nj = Ns[j - 1]
        num = theta_factorial(q * t[j] * t[j], nome, Nj, policy)
        den = theta_factorial_multi(
            [
                q * t[j] / a,
                q * t[j] / b,
                q * t[j] / c,
                q ** (1 + ntot - Nj) / (t[j] * a * b * c),
            ],
            nome,
            Nj,
            policy,
        )
        out = out * (num / den)
    return out.value


def verify_multi2(
    params: Multi2Params,
    tol: float = 1e-7,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    lhs, count = multi2_lhs(params, policy)
    rhs = multi2_rhs(params, policy)
    return VerificationReport.compare(lhs, rhs, tol, params_echo=params.to_json(), terms_summed=count)


# ---------------------------------------------------------------------------
# generic multiple-series coefficient


def general_multi_coefficient(
    u_lists: list[list[complex]],
    v_lists: list[list[complex]],
    zs: list[complex],
    pair: ModularPair,
    lam: tuple[int, ...] | list[int],
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> complex:
    """Most general symmetric multiple-series coefficient: products of
    elliptic factorials over all k-subsets of the summation indices.

    u_lists[k-1] / v_lists[k-1] hold the parameters attached to the
    k-subset sums; the balance constraint
    sum_k C(n-1, k-1) sum_m (u_km - v_km) = 0 is a precondition.
    """
    n = len(lam)
    if len(u_lists) != n or len(v_lists) != n or len(zs) != n:
        raise ValueError("u_lists, v_lists, zs must all have rank-n entries")
    balance = 0j
    for k in range(1, n + 1):
        coeff = math.comb(n - 1, k - 1)
        balance += coeff * (sum(u_lists[k - 1], 0j) - sum(v_lists[k - 1], 0j))
    if abs(balance) > 1e-10 * max(1.0, max((abs(u) for us in u_lists for u in us), default=1.0)):
        raise ValueError(f"balance constraint violated: {balance}")
    out = ONE
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            s = sum(lam[i] for i in subset)
            for u in u_lists[k - 1]:
                out = out * elliptic_factorial(u, pair, s, policy)
            for v in v_lists[k - 1]:
                out = out / elliptic_factorial(v, pair, s, policy)
    scalar = math.prod((zs[j] ** lam[j] for j in range(n)), start=1 + 0j)
    return (out * scalar).value
