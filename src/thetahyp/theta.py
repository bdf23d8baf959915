"""Foundational theta-function evaluation.

Provides p-shifted factorials, the multiplicative theta function
``theta(z; p) = (z; p)_inf (p/z; p)_inf``, the additive Jacobi theta1
function / elliptic number ``[u]``, and the SL(2,Z) action on the
modular parameters (sigma, tau).

Conventions: ``q = exp(2 pi i sigma)``, ``p = exp(2 pi i tau)`` with
Im(sigma), Im(tau) > 0 so both nomes lie inside the unit disk. Fractional
powers of the nomes are taken through sigma and tau directly
(``p**(1/8) = exp(pi i tau / 4)``), which keeps the four classical
representations of theta1 mutually consistent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchError, NonConvergenceError, ThetaDomainError

TWO_PI_I = 2j * math.pi

# float64 truncation: an infinite product stops once its factors are within
# PRODUCT_TOL of 1, a series once two consecutive terms fall below SERIES_TOL
# relative to the sum; a series sums at most MAX_TERMS terms, a product
# 16 * MAX_TERMS factors.
PRODUCT_TOL = 1e-16
SERIES_TOL = 1e-16
MAX_TERMS = 512
# a lattice zero p^-M is detected for |M| <= MAX_ZERO_ORDER to rel LATTICE_RTOL
MAX_ZERO_ORDER = 64
LATTICE_RTOL = 1e-12


@dataclass(frozen=True)
class ModularPair:
    """Modular parameters (sigma, tau), both with positive imaginary part."""

    sigma: complex
    tau: complex

    def __post_init__(self) -> None:
        if self.sigma.imag <= 0.0:
            raise ThetaDomainError(f"Im(sigma) must be positive, got {self.sigma}")
        if self.tau.imag <= 0.0:
            raise ThetaDomainError(f"Im(tau) must be positive, got {self.tau}")

    @property
    def q(self) -> complex:
        return cmath.exp(TWO_PI_I * self.sigma)

    @property
    def p(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau)

    def nome(self) -> "Nome":
        return Nome(self.q, self.p)


@dataclass(frozen=True)
class Nome:
    """The multiplicative pair (q, p), both inside the unit disk."""

    q: complex
    p: complex

    def __post_init__(self) -> None:
        if abs(self.q) >= 1.0:
            raise ThetaDomainError(f"|q| must be < 1, got {abs(self.q)}")
        if abs(self.p) >= 1.0:
            raise ThetaDomainError(f"|p| must be < 1, got {abs(self.p)}")


def nome_from_modular(pair: ModularPair) -> Nome:
    """Map (sigma, tau) to (q, p) = (e^{2 pi i sigma}, e^{2 pi i tau})."""
    return pair.nome()


def p_pochhammer(a: complex, p: complex, n: int | float | None = None) -> complex:
    """p-shifted factorial (a; p)_n.

    ``n`` may be a non-negative integer (finite product), a negative
    integer (via (a;p)_{-n} = 1/(a p^{-n}; p)_n), or None / math.inf for
    the infinite product, truncated once |a p^k| < PRODUCT_TOL and k >= 8.
    """
    if n is None or (isinstance(n, float) and math.isinf(n)):
        if abs(p) >= 1.0:
            raise ThetaDomainError("infinite product needs |p| < 1")
        prod = 1.0 + 0j
        term = complex(a)
        k = 0
        while k < 8 or abs(term) >= PRODUCT_TOL:
            prod *= 1.0 - term
            term *= p
            k += 1
            if k > 16 * MAX_TERMS:
                raise NonConvergenceError("(a;p)_inf did not reach PRODUCT_TOL")
        return prod
    n = int(n)
    if n >= 0:
        prod = 1.0 + 0j
        term = complex(a)
        for _ in range(n):
            prod *= 1.0 - term
            term *= p
        return prod
    denom = p_pochhammer(a * p**n, p, -n)
    if denom == 0:
        raise ZeroDivisionError(f"(a;p)_{n} hits a vanishing factor, a={a}, p={p}")
    return 1.0 / denom


def theta_zero_index(z: complex, p: complex, rtol: float = LATTICE_RTOL) -> int | None:
    """Return M when z = p^{-M} (|M| <= MAX_ZERO_ORDER) to relative accuracy rtol.

    These are exactly the zeros of theta(z; p); None means z is not a
    detected lattice zero.
    """
    if z == 0:
        return None
    if p == 0:
        return 0 if abs(z - 1.0) <= rtol else None
    m = round(-math.log(abs(z)) / math.log(abs(p))) if abs(z) != 1.0 else 0
    # |z| pins down only Re of the lattice index; scan a small neighborhood
    # so arguments sitting on |z| = |p^-M| circles with the wrong phase and
    # near-ties are still classified correctly.
    for cand in (m - 1, m, m + 1):
        if abs(cand) > MAX_ZERO_ORDER:
            continue
        if abs(z * p**cand - 1.0) <= rtol:
            return cand
    return None


def theta(z: complex, p: complex) -> complex:
    """Jacobi-type theta function theta(z; p) = (z; p)_inf (p z^{-1}; p)_inf.

    Reports an exact 0j on the structural zeros z = p^{-M} that
    ``theta_zero_index`` detects. At p = 0 the product collapses to
    1 - z, and its zero z = 1 is detected the same way.
    """
    if z == 0:
        raise ThetaDomainError("theta(z; p) is undefined at z = 0")
    if abs(p) >= 1.0:
        raise ThetaDomainError(f"|p| must be < 1, got {abs(p)}")
    if theta_zero_index(z, p) is not None:
        return 0j
    if p == 0:
        return 1.0 - z
    prod = 1.0 + 0j
    a = complex(z)
    b = p / z
    for k in range(16 * MAX_TERMS + 1):
        # at least 8 factors; a NaN tail ends the product as a small one does
        if k >= 8 and not (abs(a) >= PRODUCT_TOL or abs(b) >= PRODUCT_TOL):
            return prod
        prod *= (1.0 - a) * (1.0 - b)
        a *= p
        b *= p
    raise NonConvergenceError("theta product did not reach PRODUCT_TOL")


def theta1(u: complex, pair: ModularPair, method: str = "series") -> complex:
    """Jacobi theta1(u; sigma, tau), rescaled so the argument is sigma*u.

    method="series" sums the fast exponential series
    ``2 sum (-1)^n e^{pi i tau (n+1/2)^2} sin(pi (2n+1) sigma u)``;
    method="product" evaluates
    ``p^{1/8} i q^{-u/2} (p; p)_inf theta(q^u; p)``.
    """
    sigma, tau = pair.sigma, pair.tau
    if method == "series":
        total = 0j
        small_streak = 0
        for n in range(MAX_TERMS):
            term = (
                2.0
                * (-1) ** n
                * cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2)
                * cmath.sin(math.pi * (2 * n + 1) * sigma * u)
            )
            total += term
            # the sin factor can vanish accidentally; demand two consecutive
            # sub-tolerance terms before declaring the tail negligible
            if abs(term) < SERIES_TOL * max(1.0, abs(total)):
                small_streak += 1
                if n >= 2 and small_streak >= 2:
                    return total
            else:
                small_streak = 0
        raise NonConvergenceError("theta1 series tail did not reach SERIES_TOL")
    if method == "product":
        p = pair.p
        qu = cmath.exp(TWO_PI_I * sigma * u)
        if qu == 0:
            raise ThetaDomainError("q^u underflowed to zero")
        prefactor = cmath.exp(1j * math.pi * tau / 4.0) * 1j * cmath.exp(-1j * math.pi * sigma * u)
        return prefactor * p_pochhammer(p, p) * theta(qu, p)
    raise ValueError(f"unknown theta1 method {method!r}")


def elliptic_number(u: complex, pair: ModularPair) -> complex:
    """The elliptic number [u; sigma, tau] = theta1(u; sigma, tau)."""
    return theta1(u, pair)


def elliptic_number_zero_index(u: complex, pair: ModularPair) -> int | None:
    """Detect the lattice zeros of [u]: q^u = p^{-M} for integer M."""
    return theta_zero_index(cmath.exp(TWO_PI_I * pair.sigma * u), pair.p)


def apply_modular(pair: ModularPair, a: int, b: int, c: int, d: int) -> ModularPair:
    """SL(2,Z) action: tau -> (a tau + b)/(c tau + d), sigma -> sigma/(c tau + d)."""
    if a * d - b * c != 1:
        raise ValueError(f"determinant must be 1, got {a * d - b * c}")
    denom = c * pair.tau + d
    return ModularPair(pair.sigma / denom, (a * pair.tau + b) / denom)


def theta1_modular_s_multiplier(u: complex, pair: ModularPair) -> complex:
    """Closed-form multiplier M with theta1(u; sigma/tau, -1/tau) = M * theta1(u; sigma, tau).

    M = -i (-i tau)^{1/2} e^{pi i sigma^2 u^2 / tau} with the square root
    taken with positive real part; equivalently +i times the
    negative-real-part root. Verified numerically against both theta1
    representations.
    """
    sigma, tau = pair.sigma, pair.tau
    return -1j * sqrt_positive_real(-1j * tau) * cmath.exp(1j * math.pi * sigma**2 * u**2 / tau)


def sqrt_positive_real(w: complex) -> complex:
    """Square root of w whose real part is positive.

    Raises BranchError when both roots are purely imaginary (w real
    negative), where the prescription is undefined.
    """
    s = cmath.sqrt(w)
    if s.real > 0:
        return s
    if s.real < 0:
        return -s
    raise BranchError(f"both square roots of {w} are purely imaginary")
