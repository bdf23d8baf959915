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
_PI_I = 1j * math.pi
_PI2_3 = math.pi**2 / 3.0
# theta takes an S step while |tau| < _S_BOUND: S maps the arc |tau| = 1 to
# itself, where a bound of 1 could cycle on roundings, and at |tau| >= 1 -
# 1e-9, |Re tau| <= 1/2 the direct product still has at most 9 factors
_S_BOUND = 1.0 - 1e-9

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
# theta's prefactor is a product too: a finite one has fewer than sqrt(1420 /
# |log|p||) factors (see _Reduction), so theta takes the nomes with |log|p||
# >= MIN_LOG_NOME, |p| <= 0.99997765, and refuses the rest
MIN_LOG_NOME = 1500 / (16 * MAX_TERMS) ** 2


@dataclass(frozen=True)
class ModularPair:
    """Modular parameters (sigma, tau), both with positive imaginary part."""

    sigma: complex
    tau: complex

    def __post_init__(self) -> None:
        for name, nome in (("sigma", "q"), ("tau", "p")):
            value = getattr(self, name)
            # a part that is not finite, or past float64 / 2 pi, leaves 2 pi i
            # value not finite, where the nome is nan or cmath.exp raises
            if not cmath.isfinite(TWO_PI_I * value):
                raise ThetaDomainError(f"{name} and its nome {nome} = exp(2 pi i {name}) must be finite, got {value}")
            if value.imag <= 0.0:
                raise ThetaDomainError(f"Im({name}) must be positive, got {value}")

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
        for name in ("q", "p"):
            value = getattr(self, name)
            # abs() itself may overflow, and nan compares False
            if not math.hypot(value.real, value.imag) < 1.0:
                raise ThetaDomainError(f"|{name}| must be < 1, got {name} = {value}")


def p_pochhammer(a: complex, p: complex, n: int | float | None = None) -> complex:
    """p-shifted factorial (a; p)_n.

    ``n`` may be a non-negative integer (finite product), a negative
    integer (via (a;p)_{-n} = 1/(a p^{-n}; p)_n), or None / math.inf for
    the infinite product, truncated once |a p^k| < PRODUCT_TOL and k >= 8.
    A non-finite a or p, another float n, or n < 0 at p = 0 raises
    ThetaDomainError, a vanishing factor PoleError, a product past float64
    FloatRangeError.
    """
    if not (cmath.isfinite(a) and cmath.isfinite(p)):
        raise ThetaDomainError(f"(a;p)_n needs a finite a and p, got a={a}, p={p}")
    infinite = n is None or n == math.inf
    if infinite and not math.hypot(p.real, p.imag) < 1.0:  # abs(p) itself may overflow
        raise ThetaDomainError("infinite product needs |p| < 1")
    if not infinite and isinstance(n, float) and not n.is_integer():
        raise ThetaDomainError(f"(a;p)_n needs an integer n, None or math.inf, got n = {n}")
    if infinite or (n := int(n)) >= 0:
        prod, term, k = 1.0 + 0j, complex(a), 0
        while (k < 8 or abs(term) >= PRODUCT_TOL) if infinite else k < n:
            prod *= 1.0 - term
            term *= p
            k += 1
            if infinite and k > 16 * MAX_TERMS:
                raise NonConvergenceError("(a;p)_inf did not reach PRODUCT_TOL")
    elif p == 0:
        raise ThetaDomainError(f"(a;0)_n needs n >= 0, got n = {n}")
    else:
        try:  # a p^n leaves the float64 range, or the product read from it does
            denom = p_pochhammer(a * p**n, p, -n)
        except (ArithmeticError, ThetaDomainError) as err:
            raise FloatRangeError(f"(a;p)_n is not finite in float64, a={a}, p={p}, n={n}") from err
        if denom == 0:
            raise PoleError(f"(a;p)_{n} hits a vanishing factor, a={a}, p={p}")
        prod = 1.0 / denom
    if not cmath.isfinite(prod):
        raise FloatRangeError(f"(a;p)_n is not finite in float64, a={a}, p={p}, n={n}")
    return prod


class _Reduction:
    """The reduction of theta's argument for one nome p. z != 0 reduces to
    m = round(-log|z| / log|p|), the lattice zero p^-m nearest z in modulus,
    and y = z, k = m, or for m < 0 the fold y = p / z, k = -1 - m. Then
    |p|^(1/2) <= |w| <= |p|^(-1/2) for w = y p^k, and theta(z) =
    prod_{i<k} (-y p^i) theta(w) by theta(p z) = -theta(z) / z. powers[j]
    is p**j = (a + b i)**j / d**j rounded once, where p * p * ... would
    round j times: from the exact parts up to j = 1,024, and past it from
    parts cut at each step to the top 256 bits of the larger one, whose
    error, below j 2^-256 of the larger part, moves the rounding only that
    close to a tie.

    theta(w) is a short product at every nome. Let tau = log p / 2 pi i, on
    the principal branch, so |Re tau| <= 1/2. Where |tau| >= 1, or p = 0,
    theta(w) is the product of its first count = K(p) <= 9 factors
    (1 - w p^j)(1 - p^(j+1) / w), head the powers they read. Where
    |tau| < 1 it is Jacobi's imaginary transformation (DLMF 20.7.30; the
    eta factors cancel). With L = log w = 2 pi i u, tau' = -1/tau and
    w' = exp(L tau'),

        theta(w; p) = -i exp(pi i [-u^2/tau + u/tau + u + (tau' - tau)/6]) theta(w'; p')
                    = exp(a D^2 + c) theta(w'; p'),

    with a = i / (4 pi tau), c = a pi^2 / 3 + pi i tau / 12 and
    D = L - pi i (1 + tau). Where |w'| > 1, theta(w') = -w' theta(1 / w')
    folds -w' into the exponent: D becomes L + pi i (1 - tau) and w' turns
    into 1 / w', so the argument handed on has modulus at most 1 and no
    factor but the one exp leaves the float64 range early. gauss holds
    (a, c, pi i (1 + tau), -pi i (1 - tau), tau') and is None on a direct
    nome. inner is the reduction of p' = exp(2 pi i tau''), where tau'' is
    tau' less the integer nearest Re tau' (a T step, which leaves p' as it
    is), or None where p' underflows to 0 and theta(w'; p') is 1 - w'.
    An inner nome whose |tau''| < 1, near a cusp arg p = 2 pi r / s, takes
    a further S step, so the last one lies in |tau| >= 1, |Re tau| <= 1/2,
    where |p| <= exp(-pi sqrt 3) and K(p) <= 9. _s_steps forms every tau''
    from p at the top nome, which hands the rest of the list, taus, to
    each inner one.

    A top nome with |log|p|| < MIN_LOG_NOME raises ThetaDomainError: a
    finite prefactor there could take more than 16 * MAX_TERMS factors, and
    the sqrt(1500 / |log|p||) powers it reads would grow without bound as
    |p| nears 1 (4e7 of them at |p| = 1 - 1e-12)."""

    def __init__(self, p: complex, taus: list[complex] | None = None) -> None:
        if not math.hypot(p.real, p.imag) < 1.0:  # abs(p) itself may overflow
            raise ThetaDomainError(f"|p| must be < 1, got p = {p}")
        self.p, self.log_p = p, math.log(abs(p)) if p else -math.inf
        top = taus is None  # an inner nome's arguments come reduced, from an S step
        if top and -self.log_p < MIN_LOG_NOME:
            raise ThetaDomainError(f"theta needs |p| <= 0.99997765 (|log|p|| >= MIN_LOG_NOME), got |p| = {abs(p)!r}")
        if top and p:  # im + 0.0 turns a signed zero to +0.0, as the cache key does
            taus = [cmath.log(complex(p.real, p.imag + 0.0)) / TWO_PI_I]
        s_step = bool(p) and (len(taus) > 1 or abs(taus[0]) < _S_BOUND)
        if s_step:
            count = 0
        elif top:
            count = max(8, math.ceil(math.log(PRODUCT_TOL) / self.log_p + 0.5) + 1)
        else:  # |w| <= 1 and |p / w| < 1 leave each factor past |p|^count within PRODUCT_TOL |p| of 1
            count = math.ceil(math.log(PRODUCT_TOL) / self.log_p) + 1
        # |prod_{i<s} y p^i| >= |p|^(-s^2/2), so a prefactor that is still
        # finite has taken fewer than sqrt(1420 / |log p|) steps
        size = max(count, MAX_ZERO_ORDER, math.isqrt(int(1500 / -self.log_p))) if top else count
        (a, da), (b, db) = p.real.as_integer_ratio(), p.imag.as_integer_ratio()
        d = max(da, db)  # both are powers of two
        a, b, re, im, den = a * (d // da), b * (d // db), 1, 0, 1
        self.powers = []
        for j in range(size + 1):
            self.powers.append(complex(re / den, im / den))
            re, im, den = re * a - im * b, re * b + im * a, den * d
            # past 1,024 powers, where |p| > 0.9986, a step on the exact
            # parts costs O(j), the table O(size^2): keep 256 bits of the
            # larger part, far past the 53 that are rounded once
            if j >= 1024 and (s := max(abs(re), abs(im)).bit_length() - 256) > 0:
                re, im, den = re >> s, im >> s, den >> s
        self.head = tuple(self.powers[:count])
        self.gauss = self.inner = None
        if s_step:
            taus = self._s_steps(taus[0]) if top else taus
            tau = taus[0]
            a, tau_s = 1j / (4.0 * math.pi * tau), complex(-1.0, 0.0) / tau
            self.gauss = (a, a * _PI2_3 + _PI_I / 12.0 * tau, _PI_I * (1.0 + tau), -_PI_I * (1.0 - tau), tau_s)
            if p_s := cmath.exp(TWO_PI_I * taus[1]):
                self.inner = _Reduction(p_s, taus[1:])

    def _s_steps(self, tau: complex) -> list[complex]:
        """tau and the tau of each nome the S steps reach, tau_k = -1 / tau_(k-1)
        less the integer nearest its real part (a T step), until |tau_k| >= 1.
        Near a cusp tau -> -b / a, forming -1 / tau_(k-1) - n in float64
        loses the digits that cancel in a tau_k + b; writing tau_k = (a tau
        + b) / (c tau + d) and each m tau + k as log(p^m) / 2 pi i plus an
        integer, with p^m read from the powers (one rounding, two for m < 0),
        keeps both terms to a rounding of their own size."""

        def linear(m: int, k: int) -> complex:
            if not m:
                return complex(k, 0.0)
            power = self.powers[m] if m > 0 else complex(1.0, 0.0) / self.powers[-m]
            x = cmath.log(power) / TWO_PI_I
            return x + round((m * tau + k - x).real)

        taus, (a, b, c, d) = [tau], (1, 0, 0, 1)
        while abs(taus[-1]) < _S_BOUND:
            n = round((complex(-1.0, 0.0) / taus[-1]).real)
            a, b, c, d = -n * a - c, -n * b - d, a, b
            taus.append(linear(a, b) / linear(c, d))
        return taus

    @functools.cached_property
    def parts(self):
        """powers as float64 arrays of real and imaginary parts, formed by
        the first batch on this nome, as the scalar path reads none."""
        import numpy as np

        return np.array([[w.real for w in self.powers], [w.imag for w in self.powers]])

    def reduce(self, z: complex, p: complex) -> tuple[int, complex, int]:
        """(m, y, k) for z; p as given, as the cache key ignores signed zeros."""
        m = round(-math.log(abs(z)) / self.log_p)
        return (m, z, m) if m >= 0 else (m, p / z, -1 - m)

    def theta_w(self, w: complex, p: complex) -> complex:
        """theta(w; p) for w on the annulus, p as given: exp(e) times the
        last product, e the sum of the S steps' exponents (see the class
        docstring). OverflowError or ZeroDivisionError means the value
        leaves the float64 range."""
        red, e = self, 0j
        while red is not None and (gauss := red.gauss) is not None:
            a, c, keep, fold, tau_s = gauss
            log_w = cmath.log(w)
            x = log_w * tau_s
            if x.real > 0.0:  # |w'| > 1: theta(w') = -w' theta(1 / w')
                d, x = log_w - fold, -x
            else:
                d = log_w - keep
            e += a * (d * d) + c
            w, red = cmath.exp(x), red.inner
            p = red and red.p
        if red is None:  # the last p' underflowed to 0
            mant = 1.0 - w
        else:
            b = p / w
            mant = 1.0 + 0j
            for pj in red.head:
                mant *= (1.0 - w * pj) * (1.0 - b * pj)
        return mant if self.gauss is None else cmath.exp(e) * mant


_reduction = functools.lru_cache(maxsize=32)(_Reduction)


def theta_zero_index(z: complex, p: complex) -> int | None:
    """Return M when z = p^{-M} (|M| <= MAX_ZERO_ORDER) to relative accuracy LATTICE_RTOL.

    These are exactly the zeros of theta(z; p); None means z is not a
    detected lattice zero, as z = 0, a non-finite z and one whose abs(z)
    overflows are not. The test is |w - 1| <= LATTICE_RTOL (see _Reduction).
    """
    if not 0.0 < math.hypot(z.real, z.imag) < math.inf:  # nan compares False
        return None
    p = complex(p)
    red = _reduction(p)
    m, y, k = red.reduce(complex(z), p)
    return m if abs(m) <= MAX_ZERO_ORDER and abs(y * red.powers[k] - 1.0) <= LATTICE_RTOL else None


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
    quasi-periodicity theta(p z) = -theta(z) / z. Where |tau| >= 1
    (p = e^(2 pi i tau), |p| <= 0.0043) theta(w) is the product of its first
    K(p) <= 9 factors; at every other nome Jacobi's imaginary transformation
    turns it into one exp times such a product at a nome p' with |p'| <=
    0.0043, so no nome needs more factors (see _Reduction). Reports an
    exact 0j on the structural zeros z = p^{-M} that ``theta_zero_index``
    detects; at p = 0 the product is 1 - z. Raises FloatRangeError where
    the value leaves the float64 range, an underflow to 0 included, and
    ThetaDomainError at |p| >= 1 and at |log|p|| < MIN_LOG_NOME.
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
    pre = 1.0 + 0j
    for i in range(k):  # powers covers each i a finite prefactor reaches
        pre *= -y * red.powers[i]
        if not cmath.isfinite(pre):
            break
    else:
        try:
            value = pre * red.theta_w(y * red.powers[k], p)
        except (ZeroDivisionError, OverflowError):
            value = math.inf
        # a value that underflowed to 0 would read as a lattice zero
        if value and cmath.isfinite(value):
            return value
    raise FloatRangeError(f"theta({z}; {p}) leaves the float64 range")


# 1.0 - a has imaginary part _IMAG_ZERO - a.imag: CPython forms it as
# complex(1.0, 0.0) - a before 3.14 and as -a.imag from 3.14 on
_IMAG_ZERO = (1.0 - 0j).imag
# a block of factors holds at most _BLOCK rows x lanes
_BLOCK = 2048


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


def _complex(re, im):
    """The complex array with parts re and im, signed zeros and all."""
    import numpy as np

    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _exp_lanes(xr, xi):
    """The parts of cmath.exp(x) on each lane, inf where it overflows. numpy's
    complex exp gives cmath.exp's bits on |Re x| <= 700 (see
    TestComplexPorts); cmath itself takes the lanes past that, where the two
    scale the overflow differently."""
    import numpy as np

    out = np.exp(_complex(xr, xi))
    for i in np.flatnonzero(np.abs(xr) > 700.0).tolist():
        try:
            out[i] = cmath.exp(complex(xr[i], xi[i]))
        except OverflowError:
            out[i] = math.inf
    return out.real, out.imag


def _head_lanes(head, p: complex, wr, wi):
    """The parts of prod_j (1 - w p^j)(1 - b p^j) over the powers p^j of head,
    b = p / w, on each lane, as theta_w forms them, a row at a time."""
    import numpy as np

    br, bi = _quot(p.real, p.imag, wr, wi)
    ar, ai = np.stack([wr, br]), np.stack([wi, bi])
    prod_r, prod_i = np.ones(len(wr)), np.zeros(len(wr))
    for c in head:
        xr, xi = _mul(ar, ai, c.real, c.imag)
        fr, fi = _mul(1.0 - xr[0], _IMAG_ZERO - xi[0], 1.0 - xr[1], _IMAG_ZERO - xi[1])
        prod_r, prod_i = _mul(prod_r, prod_i, fr, fi)
    return prod_r, prod_i


def _s_step_lanes(gauss, wr, wi):
    """One S step of theta_w on each lane: the parts of its exponent a D^2 +
    c and of the argument w' it hands on, with cmath.log per lane, numpy's
    exp (_exp_lanes), and every other product and sum on float64 parts as
    CPython forms it. Its arrays go when it returns, before the next step."""
    import numpy as np

    a, c, keep, fold, tau_s = gauss
    logs = np.fromiter(map(cmath.log, _complex(wr, wi).tolist()), complex, len(wr))
    lr, li = logs.real, logs.imag
    xr, xi = _mul(lr, li, tau_s.real, tau_s.imag)
    flip = xr > 0.0  # |w'| > 1: theta(w') = -w' theta(1 / w')
    dr, di = lr - np.where(flip, fold.real, keep.real), li - np.where(flip, fold.imag, keep.imag)
    sr, si = _mul(a.real, a.imag, *_mul(dr, di, dr, di))
    return sr + c.real, si + c.imag, *_exp_lanes(np.where(flip, -xr, xr), np.where(flip, -xi, xi))


def _theta_w_lanes(red: _Reduction, p: complex, wr, wi):
    """The parts of red.theta_w(w, p) on each lane, bit for bit."""
    if red.gauss is None:
        return _head_lanes(red.head, p, wr, wi)
    er = ei = 0.0
    while red is not None and red.gauss is not None:
        sr, si, wr, wi = _s_step_lanes(red.gauss, wr, wi)
        er, ei, red = er + sr, ei + si, red.inner
        p = red and red.p
    if red is None:  # the last p' underflowed to 0
        mr, mi = 1.0 - wr, _IMAG_ZERO - wi
    else:
        mr, mi = _head_lanes(red.head, p, wr, wi)
    return _mul(*_exp_lanes(er, ei), mr, mi)


def _theta_lanes(zs, p: complex, distance: float | None = None):
    """theta(z, p) on each lane of the complex array zs, bit for bit, as
    (values, raises): a complex array, and a bool array that is True on the
    lanes where theta raises, whose values are not read.

    Given a distance, it refuses the batch, returning None before the
    prefactor and any theta(w), where a lane's abs(z) is not finite or
    |w - 1| <= distance at |m| <= MAX_ZERO_ORDER, theta_zero_index's test.

    The lanes run theta's steps side by side in float64 arrays, with the
    prefactor loop masked by each lane's k, and theta(w) by _theta_w_lanes.
    Real and imaginary parts are held apart, and each complex product and
    quotient, the fold p / z among them, is formed as CPython forms it
    (_mul, _quot), since numpy's complex128 arithmetic may round
    differently. A batch of at most 409 lanes forms the prefactor's factors
    a block of rows at once, at most _BLOCK rows x lanes, and multiplies
    them in a row at a time on every lane, masked by its k; a wider one
    forms and multiplies them a row at a time, on the lanes still in it.
    numpy is imported here, not with this module: every process loads it
    anyway, but importing it before the rest of the package raised the peak
    RSS of ``import thetahyp`` from 29.1 to 29.6 MB (numpy 2.4, CPython
    3.11).
    """
    import numpy as np

    p = complex(p)
    z = np.array(zs, dtype=complex)  # a copy, as the lanes are overwritten
    n = len(z)
    try:
        red = _reduction(p)
    except ThetaDomainError:  # theta raises at every z
        n = 0
    if not n:
        return np.zeros(len(z), dtype=complex), np.ones(len(z), dtype=bool)
    pr, pi = red.parts
    rows = _BLOCK // n  # blocks of 2-4 rows measured slower than the row loop
    blocked = rows >= 5
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
        pk = np.where(k < len(pr), k, 0)  # a lane whose k is past the powers raises in the prefactor loop
        wr, wi = _mul(yr, yi, pr[pk], pi[pk])  # w = y p**k
        gap = np.where(near, np.hypot(wr - 1.0, wi), math.inf)  # |w - 1| near the lattice
        if distance is not None and (~np.isfinite(absz) | (gap <= distance)).any():
            return None
        # pre *= -y * p**i on the lanes whose k exceeds i; a lane leaves once
        # its prefactor, and so its value, is not finite, as theta raises there
        pre_r, pre_i = np.ones(n), np.zeros(n)  # the parts of pre
        step, lanes = 0, np.flatnonzero((k > 0) & ~raises)
        while len(lanes):
            if blocked:  # every lane, masked by its k
                end = min(step + rows, int(k[lanes].max()))
                fr, fi = _mul(-yr, -yi, pr[step:end, None], pi[step:end, None])
                for row_r, row_i, mask in zip(fr, fi, k > np.arange(step, end)[:, None]):
                    re, im = _mul(pre_r, pre_i, row_r, row_i)
                    np.copyto(pre_r, re, where=mask)
                    np.copyto(pre_i, im, where=mask)
            else:  # just the lanes still in
                end, pj = step + 1, red.powers[step]
                fr, fi = _mul(-yr[lanes], -yi[lanes], pj.real, pj.imag)
                pre_r[lanes], pre_i[lanes] = _mul(pre_r[lanes], pre_i[lanes], fr, fi)
            step = end
            lanes = lanes[(k[lanes] > step) & np.isfinite(pre_r[lanes]) & np.isfinite(pre_i[lanes])]
        zero = gap <= LATTICE_RTOL
        # theta raises where the prefactor is not finite and reads no w there
        raises |= ~(np.isfinite(pre_r) & np.isfinite(pre_i))
        wr[raises], wi[raises] = 1.0, 0.0
        values = np.empty(n, dtype=complex)
        values.real, values.imag = _mul(pre_r, pre_i, *_theta_w_lanes(red, p, wr, wi))
        raises |= ~np.isfinite(values) | (values == 0)
    values[zero] = 0j
    return values, raises & ~zero


def theta_many(zs: Sequence[complex], p: complex) -> list[complex | None]:
    """theta(z, p) for each complex z, bit for bit, and None for each z on
    which theta raises: the lanes of _theta_lanes, read back as a list."""
    return _theta_list(zs, p)


def _theta_list(zs: Sequence[complex], p: complex, distance: float | None = None) -> list[complex | None] | None:
    """theta_many(zs, p), or None where _theta_lanes refuses the batch at distance."""
    lanes = _theta_lanes(zs, p, distance)
    return lanes and [None if bad else v for v, bad in zip(*(part.tolist() for part in lanes))]


def theta1(u: complex, pair: ModularPair) -> complex:
    """Jacobi theta1(u; sigma, tau), rescaled so the argument is sigma*u, by
    its fast exponential series
    ``2 sum (-1)^n e^{pi i tau (n+1/2)^2} sin(pi (2n+1) sigma u)``: the
    independent oracle of elliptic_number's product form.

    A non-finite u raises ThetaDomainError, and a term that leaves the
    float64 range (cmath raising OverflowError or ValueError)
    FloatRangeError naming u.
    """
    if not cmath.isfinite(u):
        raise ThetaDomainError(f"theta1 needs a finite argument, got u={u}")
    sigma, tau = pair.sigma, pair.tau
    total = 0j
    small_streak = 0
    try:
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
    except (OverflowError, ValueError) as exc:
        raise FloatRangeError(f"theta1 series at u={u} left the float64 range: {exc}") from exc
    raise NonConvergenceError("theta1 series tail did not reach SERIES_TOL")


# (p; p)_inf, cached per nome as every elliptic number reads it
_p_infinity = functools.lru_cache(maxsize=32)(lambda p: p_pochhammer(p, p))


def _q_power(sigma: complex, x: complex) -> complex:
    """q^x = exp(2 pi i sigma x) for q = exp(2 pi i sigma); FloatRangeError
    where it leaves the float64 range, an underflow to 0 included, as theta
    would raise on it."""
    try:
        value = cmath.exp(TWO_PI_I * sigma * x)
    except (OverflowError, ValueError):
        value = 0j
    if value:
        return value
    raise FloatRangeError(f"q^x leaves the float64 range at x = {x}")


def elliptic_number(u: complex, pair: ModularPair) -> complex:
    """The elliptic number [u; sigma, tau] = theta1(u; sigma, tau), by its
    product form ``i p^{1/8} q^{-u/2} (p; p)_inf theta(q^u; p)``; the series
    form, theta1, stays the independent oracle.

    A non-finite u raises ThetaDomainError, and a q^u or theta(q^u; p) past
    the float64 range FloatRangeError naming u.
    """
    if not cmath.isfinite(u):
        raise ThetaDomainError(f"theta1 needs a finite argument, got u={u}")
    try:  # FloatRangeError, an OverflowError, where q^u or theta leaves the float64 range
        value = theta(_q_power(pair.sigma, u), pair.p)
    except OverflowError as exc:
        raise FloatRangeError(f"theta1 product at u={u} left the float64 range: {exc}") from exc
    head = cmath.exp(1j * math.pi * pair.tau / 4.0) * 1j
    return head * cmath.exp(-1j * math.pi * pair.sigma * u) * _p_infinity(pair.p) * value


def elliptic_number_zero_index(u: complex, pair: ModularPair) -> int | None:
    """Detect the lattice zeros of [u]: q^u = p^{-M} for integer M;
    FloatRangeError where q^u leaves the float64 range."""
    return theta_zero_index(_q_power(pair.sigma, u), pair.p)


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

    That is cmath.sqrt's principal root, unless both roots are purely
    imaginary (w real negative): there BranchError is raised.
    """
    s = cmath.sqrt(w)
    if s.real > 0:
        return s
    raise BranchError(f"both square roots of {w} are purely imaginary")
