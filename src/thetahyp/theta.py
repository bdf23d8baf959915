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
from collections.abc import Sequence
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
    1 - z, and its zero z = 1 is detected the same way. Raises
    OverflowError where the product leaves the float64 range.
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
            if not cmath.isfinite(prod):
                raise OverflowError("theta product overflowed")
            return prod
        prod *= (1.0 - a) * (1.0 - b)
        a *= p
        b *= p
    raise NonConvergenceError("theta product did not reach PRODUCT_TOL")


# The batch functions below import numpy when called: imported with this
# module, the package's first, numpy raised the peak RSS of importing
# thetahyp from 28.4 to 29.7 MB (numpy 2.4, CPython 3.11) in every process.

# 1.0 - a has imaginary part _IMAG_ZERO - a.imag: CPython forms it as
# complex(1.0, 0.0) - a before 3.14 and as -a.imag from 3.14 on
_IMAG_ZERO = (1.0 - 0j).imag
# x.x bounds around PRODUCT_TOL**2 beyond which it decides abs(x) >= PRODUCT_TOL
# without hypot; the margin dwarfs the few ulps between x.x and |x|**2
_TOL_SQ_LO = PRODUCT_TOL**2 * (1.0 - 1e-9)
_TOL_SQ_HI = PRODUCT_TOL**2 * (1.0 + 1e-9)


def _abs_overflows(xr, xi, h):
    """Where abs(x) raises OverflowError: finite parts whose hypot h is infinite."""
    import numpy as np

    return np.isinf(h) & np.isfinite(xr) & np.isfinite(xi)


def _lattice_zeros(zr, zi, p: complex, raises):
    """theta_zero_index(z, p) is not None for each lane, for p != 0; marks
    in raises each lane on which the scalar scan raises."""
    import numpy as np

    absz = np.hypot(zr, zi)
    log_p = math.log(abs(p))
    ratio = np.where(absz == 1.0, 0.0, -np.log(absz) / log_p)
    # the ratio is non-finite where abs(z) overflows, z is zero or not
    # finite, or p is NaN; abs() or round() raises there
    raises |= ~np.isfinite(ratio)
    m = np.rint(ratio)
    # np.log may differ from math.log in the last bits, which moves round()
    # only next to a tie; those lanes take the scalar's logarithm
    for i in np.flatnonzero(np.abs(np.abs(ratio - m) - 0.5) < 1e-9).tolist():
        m[i] = round(-math.log(absz[i]) / log_p)
    zero = np.zeros(len(zr), dtype=bool)
    scan = ~raises
    for offset in (-1, 0, 1):
        cand = m + offset
        lanes = np.flatnonzero(scan & (np.abs(cand) <= MAX_ZERO_ORDER))
        if not len(lanes):
            continue
        c = cand[lanes].astype(int)
        powers, fails = [], []
        for k in range(int(c.min()), int(c.max()) + 1):
            try:
                powers.append(p**k)
                fails.append(False)
            except (OverflowError, ZeroDivisionError):
                powers.append(0j)
                fails.append(True)
        pc, bad = np.array(powers)[c - c.min()], np.array(fails)[c - c.min()]
        dr = zr[lanes] * pc.real - zi[lanes] * pc.imag - 1.0
        di = zr[lanes] * pc.imag + zi[lanes] * pc.real
        h = np.hypot(dr, di)
        raised, hit = bad | _abs_overflows(dr, di, h), ~bad & (h <= LATTICE_RTOL)
        raises[lanes] |= raised
        zero[lanes] = hit
        scan[lanes] = ~(raised | hit)
    return zero


def _stops(ab, s):
    """For the (re, im) rows ab = [a, b] of each lane and s = |a|^2, |b|^2 as
    x.x: (theta returns here, theta raises here), or None when every lane
    goes on; hypot runs only on lanes whose x.x cannot decide."""
    import numpy as np

    top = np.maximum(s[0], s[1])
    if top.min() > _TOL_SQ_HI and top.max() < math.inf:
        return None
    big = s > _TOL_SQ_HI
    over = np.zeros_like(big)
    unsure = ~((s < _TOL_SQ_LO) | (big & (s < math.inf)))
    if unsure.any():
        xr, xi = ab[0][unsure], ab[1][unsure]
        h = np.hypot(xr, xi)
        big[unsure] = h >= PRODUCT_TOL
        over[unsure] = _abs_overflows(xr, xi, h)
    # theta reads abs(b) only when abs(a) < PRODUCT_TOL, which holds where
    # abs(b) overflows: |a| |b| = |p|^(2k + 1) < 1
    return ~big[0] & ~big[1], over[0] | over[1]


def _product(re, im, p: complex, lanes, values):
    """theta's product loop for lanes, whose a = z, b = p / z and product 1
    are rows 0, 1 and 2 of re and im. Writes each lane's product into
    values at the step where theta returns it, and gives back the lanes on
    which theta raises: an abs() that overflows, or no PRODUCT_TOL within
    16 * MAX_TERMS factors. The rows are updated in place through the
    scratch rows x, y and f."""
    import numpy as np

    n = len(lanes)
    x_buf, y_buf, f_buf = np.empty((2, n)), np.empty((2, n)), np.empty((3, n))
    raised = [lanes[:0]]
    for k in range(16 * MAX_TERMS + 1):
        if k >= 8:
            s = np.multiply(re[:2], re[:2], out=y_buf[:, : len(lanes)])
            s += np.multiply(im[:2], im[:2], out=x_buf[:, : len(lanes)])
            stops = _stops((re[:2], im[:2]), s)
            if stops is not None:
                done, failed = stops
                values.real[lanes[done]], values.imag[lanes[done]] = re[2, done], im[2, done]
                raised.append(lanes[failed])
                keep = np.flatnonzero(~(done | failed))
                lanes = lanes[keep]
                re, im = re[:, keep], im[:, keep]
        if not len(lanes):
            break
        x, y, (fr, fi, t) = x_buf[:, : len(lanes)], y_buf[:, : len(lanes)], f_buf[:, : len(lanes)]
        # prod *= (1 - a) * (1 - b), then a *= p and b *= p, each complex
        # product formed as CPython forms it: (ar br - ai bi, ar bi + ai br)
        np.subtract(1.0, re[:2], out=x)
        np.subtract(_IMAG_ZERO, im[:2], out=y)
        np.multiply(x[0], x[1], out=fr)
        fr -= np.multiply(y[0], y[1], out=t)
        np.multiply(x[0], y[1], out=fi)
        fi += np.multiply(y[0], x[1], out=t)
        np.multiply(re[2], fi, out=x[0])
        x[0] += np.multiply(im[2], fr, out=t)
        re[2] *= fr
        re[2] -= np.multiply(im[2], fi, out=t)
        im[2] = x[0]
        np.multiply(re[:2], p.imag, out=x)
        x += np.multiply(im[:2], p.real, out=y)
        re[:2] *= p.real
        re[:2] -= np.multiply(im[:2], p.imag, out=y)
        im[:2] = x
    return np.concatenate([*raised, lanes])


def theta_many(zs: Sequence[complex], p: complex) -> list[complex | None]:
    """theta(z, p) for each complex z, bit for bit, and None for each z on
    which theta raises (zero, non-finite, an overflowing abs() or product,
    or non-convergent).

    The lanes run theta's steps side by side in float64 arrays. Real and
    imaginary parts are held apart and each complex product is formed as
    CPython forms it, since numpy's complex128 multiply may round
    differently; p / z and the powers p**M of the lattice scan are taken
    in Python. A lane leaves the product at the step where theta returns,
    and its value is frozen there.
    """
    import numpy as np

    p = complex(p)
    if not len(zs) or math.hypot(p.real, p.imag) >= 1.0:  # abs(p) itself may overflow
        return [None] * len(zs)
    values = np.array(zs, dtype=complex)
    zr, zi = values.real.copy(), values.imag.copy()
    with np.errstate(all="ignore"):
        raises = (zr == 0) & (zi == 0)
        if p == 0:
            h = np.hypot(zr - 1.0, zi)
            raises |= _abs_overflows(zr - 1.0, zi, h)
            zero = h <= LATTICE_RTOL
            values.real, values.imag = 1.0 - zr, _IMAG_ZERO - zi
        else:
            zero = _lattice_zeros(zr, zi, p, raises)
            run = np.flatnonzero(~(zero | raises))
            b = np.fromiter((p / zs[i] for i in run.tolist()), dtype=complex, count=len(run))
            re = np.stack([zr[run], b.real, np.ones(len(run))])
            im = np.stack([zi[run], b.imag, np.zeros(len(run))])
            raises[_product(re, im, p, run, values)] = True
            raises[run] |= ~np.isfinite(values[run])
    values[zero] = 0j
    out = values.tolist()
    for i in np.flatnonzero(raises).tolist():
        out[i] = None
    return out


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
