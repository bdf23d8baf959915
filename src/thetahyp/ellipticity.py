"""Numeric quasiperiodicity, ellipticity, total-ellipticity and
modular-invariance checkers for term ratios.

The index shift is tested multiplicatively (w -> p w, equivalent to
x -> x + tau/sigma since q^{tau/sigma} = p); the sigma^{-1} shift is a
structural identity of the multiplicative form. Parameter shifts for the
canonical well-poised balanced form and for the two multivariable
families follow the shift rules under which the balancing condition is
preserved (the dependent parameter co-shifts where it appears
explicitly).
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, PoleError
from .report import EllipticityReport, rel_err
from .theta import ModularPair, Nome, _mul, _quot, _theta_lanes, apply_modular, elliptic_number, theta
from .identities import Multi1Params, Multi2Params, _lattice_h, _multi1_lattice, _multi2_lattice


@dataclass(frozen=True)
class HForm:
    """Term ratio h(x) = prod [x+u_m] / prod [x+v_m] * q^{beta x} * y."""

    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    beta: complex
    y: complex
    pair: ModularPair

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", tuple(complex(u) for u in self.zeros))
        object.__setattr__(self, "poles", tuple(complex(v) for v in self.poles))


def h_eval(form: HForm, x: complex) -> complex:
    num = 1.0 + 0j
    for u in form.zeros:
        num *= elliptic_number(x + u, form.pair)
    den = 1.0 + 0j
    for v in form.poles:
        den *= elliptic_number(x + v, form.pair)
    if den == 0:
        raise PoleError(f"h(x) pole at x = {x}")
    qbx = cmath.exp(2j * math.pi * form.pair.sigma * form.beta * x)
    return num / den * qbx * form.y


def multipliers(form: HForm) -> tuple[complex, complex, complex]:
    """Closed-form quasiperiodicity multipliers (a, b, gamma):
    h(x + 1/sigma) = a h(x), h(x + tau/sigma) = b e^{2 pi i sigma gamma x} h(x)."""
    r, s = len(form.zeros), len(form.poles)
    sigma, tau = form.pair.sigma, form.pair.tau
    sign = (-1.0) ** (r - s)
    a = sign * cmath.exp(2j * math.pi * form.beta)
    gamma = complex(s - r)
    b = sign * cmath.exp(1j * math.pi * tau * (s - r + 2 * form.beta)) * cmath.exp(
        2j * math.pi * sigma * (sum(form.poles, 0j) - sum(form.zeros, 0j))
    )
    return a, b, gamma


def _rand_x(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.25, 0.25))


def _worse(dev: float, err: float) -> float:
    """The running maximum deviation; a non-finite one is inf, which fails."""
    return max(dev, err) if math.isfinite(err) else math.inf


def _draws(draw, seed: int):
    """draw(rng) over and over, on one rng seeded with seed."""
    # draw never returns None, so the sentinel never stops the stream
    return iter(functools.partial(draw, np.random.default_rng(seed)), None)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _shift_reports(points, ref, shifts, samples: int, tol: float, suffix: str = "") -> list[EllipticityReport]:
    """One report per (kind, shifted) in shifts, in order: the max relative
    deviation of shifted(point) from ref(point) over `samples` points, each
    shift taking its points in turn from the one iterator points. A point is
    redrawn (at most 200 extra times per kind) on a pole or a reference whose
    modulus is not in [1e-12, 1e12]; a non-finite deviation fails the
    report with max_rel_dev inf."""
    _check_samples(samples)
    reports: list[EllipticityReport] = []
    for kind, shifted in shifts:
        dev, done, tries = 0.0, 0, 0
        while done < samples:
            if tries == samples + 200:
                raise NonConvergenceError(f"{kind}: too few sample points off poles with |h| in [1e-12, 1e12]")
            tries += 1
            point = next(points)
            try:
                value, reference = shifted(point), ref(point)
            except (PoleError, ZeroDivisionError, OverflowError):
                continue
            if not 1e-12 <= abs(reference) <= 1e12:
                continue
            dev = _worse(dev, rel_err(value, reference))
            done += 1
        reports.append(EllipticityReport(kind + suffix, dev, done, dev <= tol))
    return reports


def check_ellipticity(
    term_ratio_fn: Callable[[complex], complex],
    nome: Nome,
    samples: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> EllipticityReport:
    """Invariance of a multiplicative-argument term ratio under w -> p w.

    The sigma^{-1} shift (w unchanged) is automatic in this form and is
    not sampled.
    """
    def draw(rng: np.random.Generator) -> complex:
        return cmath.exp(2j * math.pi * _rand_x(rng)) * 0.7  # generic annulus point

    shifts = [("index_p_shift", lambda w: term_ratio_fn(nome.p * w))]
    return _shift_reports(_draws(draw, seed), term_ratio_fn, shifts, samples, tol)[0]


def _wp_form(u0: complex, us: list[complex], z: complex, pair: ModularPair) -> HForm:
    """Canonical term ratio of the well-poised balanced series:
    prod_m [x+u0+u_m]/[x+u0-u_m] * [x+u0-sum u]/[x+u0+sum u] * z."""
    usum = sum(us, 0j)
    zeros = tuple(u0 + u for u in us) + (u0 - usum,)
    poles = tuple(u0 - u for u in us) + (u0 + usum,)
    return HForm(zeros, poles, 0j, z, pair)


def vwp_canonical_h(u0: complex, us: list[complex], z: complex, pair: ModularPair, x: complex) -> complex:
    """The canonical well-poised balanced term ratio at x."""
    return h_eval(_wp_form(u0, us, z, pair), x)


def _check_total_ellipticity(
    build: Callable[[list[complex]], HForm], params: list, pair: ModularPair, samples: int, tol: float, seed: int
) -> list[EllipticityReport]:
    """Total ellipticity of the term ratio build(params): one report for the
    index shift x -> x + tau/sigma, then one per parameter u_m shifted by
    tau/sigma. build solves any balancing parameter from the others, so a
    shifted parameter set stays balanced."""
    shift = pair.tau / pair.sigma
    base = build(params)
    shifts = [("index_p_shift", lambda x: h_eval(base, x + shift))]
    for m in range(len(params)):
        form = build([*params[:m], params[m] + shift, *params[m + 1 :]])
        shifts.append((f"param_p_shift:u{m}", lambda x, form=form: h_eval(form, x)))
    return _shift_reports(_draws(_rand_x, seed), lambda x: h_eval(base, x), shifts, samples, tol)


def check_total_ellipticity_wp(
    u0: complex,
    us: list[complex],
    z: complex,
    pair: ModularPair,
    samples: int = 10,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[EllipticityReport]:
    """Total ellipticity of the canonical well-poised balanced term ratio:
    one report for the index shift, one for u0 and one per u_m, all shifts
    by the quasiperiod tau/sigma."""
    return _check_total_ellipticity(
        lambda ps: _wp_form(ps[0], ps[1:], z, pair), [u0, *us], pair, samples, tol, seed
    )


# ---------------------------------------------------------------------------
# multivariable term ratios (forward-shift ratios of the series coefficients)


def _power(x: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of x ** e for e in (1, 2, -1), formed as x, x * x and 1 / x."""
    if e == 1:
        return x.real, x.imag
    if e == 2:
        return _mul(x.real, x.imag, x.real, x.imag)
    if e == -1:
        return _quot(1.0, 0.0, x.real, x.imag)
    raise ValueError(f"no exponent {e} in a term ratio column")


def _h_rows(hs: list[tuple], sets: list[int], points: list[tuple[complex, ...]], p: complex):
    """h_l at each row r, the parameter set hs[sets[r]], a (ratio, columns) of
    _lattice_h, at the point points[r]; every set shares its columns' (e, s,
    d). Returns (values, fails): values[r] is h_l at row r, and fails maps
    each row h_l has no value at to the first theta argument it reads, in
    its order, on which theta raises, or to None where it reads a
    denominator theta of 0 first (read them with _h_value).

    The rows are float64 arrays and every complex product and quotient is
    formed as CPython forms it (_mul, _quot): X = prod_j x_j^{e_j} with x^2
    = x x and x^-1 = 1 / x, then num = a X (times s) and den = b X (both
    over d) for every column of every row. The distinct arguments are
    evaluated in one _theta_lanes pass, and each row multiplies ratio by
    theta(num) / theta(den) column by column, in order."""
    columns = hs[0][1]
    rows, width = len(points), len(columns)
    xs = np.array(points, dtype=complex).reshape(rows, len(columns[0][0]))
    ab = np.array([[(a, b) for _, a, b, _, _ in cols] for _, cols in hs], dtype=complex)[sets]
    ratio = np.array([r for r, _ in hs], dtype=complex)[sets]
    with np.errstate(all="ignore"):
        factors = {}
        for e, *_ in columns:
            if e not in factors:
                out, *rest = [_power(xs[:, j], ej) for j, ej in enumerate(e) if ej]
                for part in rest:
                    out = _mul(*out, *part)
                factors[e] = out
        xr = np.stack([factors[e][0] for e, *_ in columns], axis=1)
        xi = np.stack([factors[e][1] for e, *_ in columns], axis=1)
        args = np.empty((2, rows, width), dtype=complex)
        (num_r, den_r), (num_i, den_i) = args.real, args.imag
        num_r[:], num_i[:] = _mul(ab[..., 0].real, ab[..., 0].imag, xr, xi)
        den_r[:], den_i[:] = _mul(ab[..., 1].real, ab[..., 1].imag, xr, xi)
        if scaled := [c for c, col in enumerate(columns) if col[3] is not None]:
            s = np.array([columns[c][3] for c in scaled])
            num_r[:, scaled], num_i[:, scaled] = _mul(num_r[:, scaled], num_i[:, scaled], s.real, s.imag)
        if divided := [c for c, col in enumerate(columns) if col[4] is not None]:
            d = np.array([columns[c][4] for c in divided])
            for part_r, part_i in ((num_r, num_i), (den_r, den_i)):
                part_r[:, divided], part_i[:, divided] = _quot(part_r[:, divided], part_i[:, divided], d.real, d.imag)
        distinct, inverse = np.unique(args.ravel(), return_inverse=True)
        values, raises = _theta_lanes(distinct, p)
        values[values == 0] = 0  # a theta value of 0 reads as 0j
        v, bad = values[inverse].reshape(args.shape), raises[inverse].reshape(args.shape)
        tr, ti = _quot(v.real[0], v.imag[0], v.real[1], v.imag[1])
        out_r, out_i = ratio.real, ratio.imag
        for c in range(width):
            out_r, out_i = _mul(out_r, out_i, tr[:, c], ti[:, c])
    h = np.empty(rows, dtype=complex)
    h.real, h.imag = out_r, out_i
    fail = bad[0] | bad[1] | (v[1] == 0)
    fails = {}
    for r in np.flatnonzero(fail.any(axis=1)).tolist():
        c = int(fail[r].argmax())
        fails[r] = complex(args[0, r, c]) if bad[0, r, c] else complex(args[1, r, c]) if bad[1, r, c] else None
    return h.tolist(), fails


def _h_value(batch, r: int, p: complex) -> complex:
    """Row r of an _h_rows batch; raises as theta does on the argument the
    row fails at, or PoleError on a denominator theta of 0."""
    values, fails = batch
    if r in fails:
        if fails[r] is not None:
            theta(fails[r], p)
        raise PoleError("h_l reads a denominator theta of 0")
    return values[r]


def _h_at(hs: list[tuple], s: int, xs, p: complex) -> complex:
    """h_l of the parameter set hs[s] at the point xs, a batch of one row."""
    return _h_value(_h_rows(hs, [s], [tuple(xs)], p), 0, p)


def multi1_h(params: Multi1Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the ordered-tuple family,
    with the summation indices continued multiplicatively: lam_mult[j]
    stands for q^{lambda_j}."""
    return _h_at([_lattice_h(_multi1_lattice(params), l, params.nome.q)], 0, lam_mult, params.nome.p)


def multi2_h(params: Multi2Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the box-lattice family."""
    return _h_at([_lattice_h(_multi2_lattice(params), l, params.nome.q)], 0, lam_mult, params.nome.p)


def _rand_mult_args(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    return tuple(
        0.8 * cmath.exp(2j * math.pi * complex(rng.uniform(0, 1), rng.uniform(-0.05, 0.05)))
        for _ in range(n)
    )


def _unchecked_replace(params, **changes):
    """dataclasses.replace without __post_init__: a p-shifted parameter set
    keeps its truncation constraints only modulo p, so validation would
    reject it."""
    out = object.__new__(type(params))
    for f in dataclasses.fields(params):
        object.__setattr__(out, f.name, changes.get(f.name, getattr(params, f.name)))
    return out


def _check_multi(
    describe, params, param_shifts, samples: int, tol: float, seed: int
) -> list[EllipticityReport]:
    """One report per summation index p-shift, then one per (kind, shifted
    params) in param_shifts, each comparing h_l at the shifted and the
    reference point. h_l is described once per parameter set; the shifted
    sets share the nome of params, and so the columns of h_l. The first
    `samples` points of each shift, which the shift loop takes first, give
    one _h_rows batch: the shifted row and the reference row at each point.
    A point the loop takes past them, or under another shift after a
    redraw, is evaluated alone, by the same function."""
    _check_samples(samples)
    p, n = params.nome.p, params.n
    l_mid = max(1, (n + 1) // 2)
    hs = [_lattice_h(describe(sp), l_mid, params.nome.q) for sp in [params, *(sp for _, sp in param_shifts)]]
    kinds = [f"index_p_shift:lambda{i + 1}" for i in range(n)] + [kind for kind, _ in param_shifts]

    def row(s: int | None, xs: tuple[complex, ...]) -> tuple[int, tuple[complex, ...]]:
        """(set, point) of h_l under shift s at xs; s = None is the reference."""
        if s is None:
            return 0, xs
        return (0, (*xs[:s], xs[s] * p, *xs[s + 1 :])) if s < n else (s - n + 1, xs)

    stream = _draws(functools.partial(_rand_mult_args, n=n), seed)
    first = list(itertools.islice(stream, len(kinds) * samples))
    rows = [row(j // samples, xs) for j, xs in enumerate(first)] + [row(None, xs) for xs in first]
    batch = _h_rows(hs, [s for s, _ in rows], [xs for _, xs in rows], p)

    def h(s: int | None, point: tuple[int, tuple[complex, ...]]) -> complex:
        j, xs = point
        if j < len(first) and s in (None, j // samples):
            return _h_value(batch, j if s is not None else len(first) + j, p)
        return _h_at(hs, *row(s, xs), p)

    points = itertools.chain(enumerate(first), zip(itertools.count(len(first)), stream))
    shifts = [(kind, functools.partial(h, s)) for s, kind in enumerate(kinds)]
    return _shift_reports(points, functools.partial(h, None), shifts, samples, tol, f"@h{l_mid}")


def check_total_ellipticity_multi1(
    params: Multi1Params,
    samples: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[EllipticityReport]:
    """p-shift invariance of every h_l in the summation indices and in the
    free parameters t_0..t_4 and t (t_5 is the balancing-dependent
    parameter and co-shifts where required)."""
    p = params.nome.p
    shifts = []
    for m in range(5):  # t_0..t_4 free; t_5 co-shifts to keep balancing
        t6 = list(params.t6)
        t6[m] = t6[m] * p
        t6[5] = t6[5] / p
        shifts.append((f"param_p_shift:t{m}", _unchecked_replace(params, t6=tuple(t6))))
    t6 = list(params.t6)
    t6[5] = t6[5] / p ** (2 * params.n - 2)
    shifts.append(("param_p_shift:t", _unchecked_replace(params, t=params.t * p, t6=tuple(t6))))
    return _check_multi(_multi1_lattice, params, shifts, samples, tol, seed)


def check_total_ellipticity_multi2(
    params: Multi2Params,
    samples: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[EllipticityReport]:
    """p-shift invariance of every h_l in the summation indices and in the
    parameters t_0..t_{2n+2} (the last parameter co-shifts to keep the
    balancing condition)."""
    p = params.nome.p
    shifts = []
    last = 2 * params.n + 3
    for m in range(last):
        t = list(params.t)
        t[m] = t[m] * p
        t[last] = t[last] / p
        shifts.append((f"param_p_shift:t{m}", _unchecked_replace(params, t=tuple(t))))
    return _check_multi(_multi2_lattice, params, shifts, samples, tol, seed)


# ---------------------------------------------------------------------------
# modularity


def check_modularity(form: HForm, tol: float = 1e-8) -> tuple[bool, EllipticityReport]:
    """Structural sum-of-squares constraint (to rel 1e-10) plus the numeric
    comparison of h under (sigma, tau) -> (sigma/tau, -1/tau) at x = 0..3.

    The pole list is the full one: for a unilateral series it includes the
    implicit v = 1 entry. Returns (structural_pass, numeric report).
    """
    usq = sum(u * u for u in form.zeros)
    vsq = sum(v * v for v in form.poles)
    scale = max(abs(usq), abs(vsq), 1.0)
    structural = abs(usq - vsq) <= 1e-10 * scale

    pair2 = apply_modular(form.pair, 0, -1, 1, 0)
    form2 = HForm(form.zeros, form.poles, form.beta, form.y, pair2)
    dev = 0.0
    count = 0
    for nn in range(4):
        try:
            ref = h_eval(form, complex(nn))
            alt = h_eval(form2, complex(nn))
        except (PoleError, ZeroDivisionError):
            continue
        if not 1e-12 <= abs(ref) < math.inf:
            continue
        dev = _worse(dev, rel_err(alt, ref))
        count += 1
    report = EllipticityReport("modular_S", dev, count, count > 0 and dev <= tol)
    return structural, report
