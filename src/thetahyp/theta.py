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
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import BranchError, FloatRangeError, NonConvergenceError, PoleError, ThetaDomainError

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


def p_pochhammer(a: complex, p: complex, n: int | float | None = None) -> complex:
    """p-shifted factorial (a; p)_n.

    ``n`` may be a non-negative integer (finite product), a negative
    integer (via (a;p)_{-n} = 1/(a p^{-n}; p)_n), or None / math.inf for
    the infinite product, truncated once |a p^k| < PRODUCT_TOL and k >= 8.
    Another float n raises ThetaDomainError, a vanishing factor PoleError.
    """
    if n is None or n == math.inf:
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
    if isinstance(n, float) and not n.is_integer():
        raise ThetaDomainError(f"(a;p)_n needs an integer n, None or math.inf, got n = {n}")
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
        raise PoleError(f"(a;p)_{n} hits a vanishing factor, a={a}, p={p}")
    return 1.0 / denom


class _Reduction:
    """The reduction of theta's argument for one nome p. z != 0 reduces to
    m = round(-log|z| / log|p|), the lattice zero p^-m nearest z in modulus,
    and y = z, k = m, or for m < 0 the fold y = p / z, k = -1 - m. Then
    |p|^(1/2) <= |w| <= |p|^(-1/2) for w = y p^k, theta(z) =
    prod_{i<k} (-y p^i) theta(w) by theta(p z) = -theta(z) / z, and theta(w)
    is the product of its first count = K(p) factors (1 - w p^j)(1 - p^(j+1)
    / w); count is 0 past 16 * MAX_TERMS. powers[j] is the exact p**j =
    (a + b i)**j / d**j rounded once, where p * p * ... would round j times."""

    def __init__(self, p: complex) -> None:
        if not math.hypot(p.real, p.imag) < 1.0:  # abs(p) itself may overflow
            raise ThetaDomainError(f"|p| must be < 1, got p = {p}")
        self.log_p = math.log(abs(p)) if p else -math.inf
        count = max(8, math.ceil(math.log(PRODUCT_TOL) / self.log_p + 0.5) + 1)
        self.count = count if count <= 16 * MAX_TERMS else 0
        # |prod_{i<s} y p^i| >= |p|^(-s^2/2), so a prefactor that is still
        # finite has taken fewer than sqrt(1420 / |log p|) steps
        size = max(self.count, MAX_ZERO_ORDER, math.isqrt(int(1500 / -self.log_p)) if self.count else 0)
        (a, da), (b, db) = p.real.as_integer_ratio(), p.imag.as_integer_ratio()
        d = max(da, db)  # both are powers of two
        a, b, re, im, den = a * (d // da), b * (d // db), 1, 0, 1
        self.powers = []
        for _ in range(size + 1):
            self.powers.append(complex(re / den, im / den))
            re, im, den = re * a - im * b, re * b + im * a, den * d
        self.head = tuple(self.powers[: self.count])

    def reduce(self, z: complex, p: complex) -> tuple[int, complex, int]:
        """(m, y, k) for z; p as given, as the cache key ignores signed zeros."""
        m = round(-math.log(abs(z)) / self.log_p)
        return (m, z, m) if m >= 0 else (m, p / z, -1 - m)


_reduction = functools.lru_cache(maxsize=32)(_Reduction)


def theta_zero_index(z: complex, p: complex, rtol: float = LATTICE_RTOL) -> int | None:
    """Return M when z = p^{-M} (|M| <= MAX_ZERO_ORDER) to relative accuracy rtol.

    These are exactly the zeros of theta(z; p); None means z is not a
    detected lattice zero. The test is |w - 1| <= rtol (see _Reduction).
    """
    if z == 0:
        return None
    p = complex(p)
    red = _reduction(p)
    m, y, k = red.reduce(complex(z), p)
    return m if abs(m) <= MAX_ZERO_ORDER and abs(y * red.powers[k] - 1.0) <= rtol else None


def theta_log_range(p: complex) -> float:
    """R such that theta(z, p) raises at every z with |log|z|| > R that is not
    a detected lattice zero: such a z reduces with k > sqrt(1420 / |log p|),
    since k >= |log|z|| / |log p| - 3/2, and a prefactor of k steps exceeds
    |p|^(-k^2/2) > e^710 (see _Reduction)."""
    log_p = _reduction(complex(p)).log_p
    return (math.sqrt(1420 / -log_p) + 1.5) * -log_p


def theta(z: complex, p: complex) -> complex:
    """Jacobi-type theta function theta(z; p) = (z; p)_inf (p z^{-1}; p)_inf.

    z is reduced to w in the annulus |p|^(1/2) <= |w| <= |p|^(-1/2) by the
    quasi-periodicity theta(p z) = -theta(z) / z, and theta(w) is the
    product of the same K(p) factors for every argument (see _Reduction).
    Reports an exact 0j on the structural zeros z = p^{-M} that
    ``theta_zero_index`` detects; at p = 0 the product is 1 - z. Raises
    FloatRangeError where the value leaves the float64 range.
    """
    z, p = complex(z), complex(p)
    if z == 0 or not cmath.isfinite(z):
        raise ThetaDomainError(f"theta(z; p) needs a finite z != 0, got {z}")
    red = _reduction(p)
    if math.isinf(math.hypot(z.real, z.imag)):  # where abs(z) raises OverflowError
        raise FloatRangeError(f"|z| leaves the float64 range, z = {z}")
    m, y, k = red.reduce(z, p)
    if abs(m) <= MAX_ZERO_ORDER and abs(y * red.powers[k] - 1.0) <= LATTICE_RTOL:
        return 0j
    if not red.count:
        raise NonConvergenceError("theta product needs more than 16 * MAX_TERMS factors")
    pre = 1.0 + 0j
    for i in range(k):  # powers covers each i a finite prefactor reaches
        pre *= -y * red.powers[i]
        if not cmath.isfinite(pre):
            break
    else:
        w = y * red.powers[k]
        b = p / w
        prod = 1.0 + 0j
        for pj in red.head:
            prod *= (1.0 - w * pj) * (1.0 - b * pj)
        if cmath.isfinite(value := pre * prod):
            return value
    raise FloatRangeError(f"theta({z}; {p}) leaves the float64 range")


# 1.0 - a has imaginary part _IMAG_ZERO - a.imag: CPython forms it as
# complex(1.0, 0.0) - a before 3.14 and as -a.imag from 3.14 on
_IMAG_ZERO = (1.0 - 0j).imag


def _mul(ar, ai, br, bi):
    """The parts of a * b as CPython forms them, for float64 arrays."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    """The parts of a / b as CPython forms them, for float64 arrays: its
    _Py_c_quot divides through by the part of b that is larger in modulus,
    the real part on a tie, where numpy's complex128 division may round
    differently. A lane whose b is 0 gives nan, where Python raises
    ZeroDivisionError. From 3.14 on, Python may recover an infinity or a
    zero where a quotient with an infinite part comes out nan+nanj; the
    lanes theta reads are finite, so the port leaves that out."""
    import numpy as np

    real_big = abs(br) >= abs(bi)
    big, small = np.where(real_big, br, bi), np.where(real_big, bi, br)
    ratio = small / big
    denom = big + small * ratio
    first, second = np.where(real_big, ar, ai), np.where(real_big, ai, ar)
    across = first * ratio
    # (ar + ai r, ai - ar r) over b.real, (ar r + ai, ai r - ar) over b.imag
    return (first + second * ratio) / denom, np.where(real_big, second - across, across - second) / denom


def _theta_lanes(zs, p: complex):
    """theta(z, p) on each lane of the complex array zs, bit for bit, as
    (values, raises): a complex array, and a bool array that is True on the
    lanes where theta raises, whose values are not read.

    The lanes run theta's steps side by side in float64 arrays, with the
    prefactor loop masked by each lane's k and the same K(p) factors for
    every lane. Real and imaginary parts are held apart, and each complex
    product and quotient, the fold p / z and b = p / w among them, is formed
    as CPython forms it (_mul, _quot), since numpy's complex128 arithmetic
    may round differently. numpy is imported here: imported with this
    module, it raised every process's peak RSS from 28.4 to 29.7 MB (numpy
    2.4, CPython 3.11).
    """
    import numpy as np

    p = complex(p)
    z = np.array(zs, dtype=complex)  # a copy, as the lanes are overwritten
    n = len(z)
    if not n or not math.hypot(p.real, p.imag) < 1.0:
        return np.zeros(n, dtype=complex), np.ones(n, dtype=bool)
    red = _reduction(p)
    with np.errstate(all="ignore"):
        absz = np.hypot(z.real, z.imag)
        ratio = -np.log(absz) / red.log_p
        raises = ~np.isfinite(ratio)  # z is 0, not finite, or abs(z) overflows
        z[raises], ratio[raises] = 1.0, 0.0
        m = np.rint(ratio)
        # np.log may differ from math.log in the last bits, which moves
        # round() only next to a tie; those lanes take the scalar's logarithm
        for i in np.flatnonzero(np.abs(np.abs(ratio - m) - 0.5) < 1e-9).tolist():
            m[i] = round(-math.log(absz[i]) / red.log_p)
        m = m.astype(np.int64)
        yr, yi, fold = z.real, z.imag, m < 0
        yr[fold], yi[fold] = _quot(p.real, p.imag, yr[fold], yi[fold])
        k = np.where(fold, -1 - m, m)
        near = ~raises & (np.abs(m) <= MAX_ZERO_ORDER)
        if not red.count:  # only the lattice zeros have a value
            raises[:] = True
        # pre *= -y * p**i on the lanes whose k exceeds i; a lane leaves
        # once its prefactor is not finite, as theta raises there
        pre_r, pre_i = np.ones(n), np.zeros(n)
        lanes = np.flatnonzero((k > 0) & ~raises)
        step = 0
        while len(lanes):
            pj = red.powers[step]
            fr, fi = _mul(-yr[lanes], -yi[lanes], pj.real, pj.imag)
            pre_r[lanes], pre_i[lanes] = _mul(pre_r[lanes], pre_i[lanes], fr, fi)
            step += 1
            lanes = lanes[(k[lanes] > step) & np.isfinite(pre_r[lanes]) & np.isfinite(pre_i[lanes])]
        raises |= ~(np.isfinite(pre_r) & np.isfinite(pre_i))
        # w = y p**k; a lane whose k is past the powers has left the loop
        pk = np.array(red.powers)[np.where(k < len(red.powers), k, 0)]
        wr, wi = _mul(yr, yi, pk.real, pk.imag)
        zero = near & (np.hypot(wr - 1.0, wi) <= LATTICE_RTOL)
        # rows w and b = p / w: prod *= (1 - w p^j) * (1 - b p^j); a w that
        # underflowed to 0 comes with an infinite prefactor
        br, bi = _quot(p.real, p.imag, wr, wi)
        ar, ai = np.stack([wr, br]), np.stack([wi, bi])
        prod_r, prod_i = np.ones(n), np.zeros(n)
        for pj in red.head:
            xr, xi = _mul(ar, ai, pj.real, pj.imag)
            fr, fi = _mul(1.0 - xr[0], _IMAG_ZERO - xi[0], 1.0 - xr[1], _IMAG_ZERO - xi[1])
            prod_r, prod_i = _mul(prod_r, prod_i, fr, fi)
        values = np.empty(n, dtype=complex)
        values.real, values.imag = _mul(pre_r, pre_i, prod_r, prod_i)
        raises |= ~np.isfinite(values)
    values[zero] = 0j
    return values, raises & ~zero


def theta_many(zs: Sequence[complex], p: complex) -> list[complex | None]:
    """theta(z, p) for each complex z, bit for bit, and None for each z on
    which theta raises: the lanes of _theta_lanes, read back as a list."""
    values, raises = _theta_lanes(zs, p)
    return [None if bad else v for v, bad in zip(values.tolist(), raises.tolist())]


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
