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
from .theta import ModularPair, Nome, apply_modular, elliptic_number
from .identities import Multi1Params, Multi2Params, _lattice_h, _multi1_lattice, _multi2_lattice
from .factorials import FactorTable


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


def _shift_reports(
    draw, ref, shifts, samples: int, tol: float, seed: int, suffix: str = "", warm=None
) -> list[EllipticityReport]:
    """One report per (kind, shifted) in shifts, in order: the max relative
    deviation of shifted(point) from ref(point) over `samples` points
    draw(rng), all drawn from one rng seeded with seed. A point is redrawn
    (at most 200 extra times per kind) on a pole or a reference whose
    modulus is not in [1e-12, 1e12]; a non-finite deviation fails the
    report with max_rel_dev inf.

    warm, when given, is first called with `samples` points per shift,
    grouped by shift: the first points of the rng, which the loop then
    takes in order before it draws on. So the loop sees the points it
    would see without warm, and warm may only prefetch."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    warmed = []
    if warm is not None:
        warmed = [[draw(rng) for _ in range(samples)] for _ in shifts]
        warm(warmed)
    # draw never returns None, so the sentinel never stops the stream
    points = itertools.chain(itertools.chain.from_iterable(warmed), iter(functools.partial(draw, rng), None))
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
    return _shift_reports(draw, term_ratio_fn, shifts, samples, tol, seed)[0]


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
    return _shift_reports(_rand_x, lambda x: h_eval(base, x), shifts, samples, tol, seed)


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


def _h_product(ratio: complex, pairs: list[tuple[complex, complex]], table: FactorTable) -> complex:
    """ratio * prod theta(num) / theta(den) over pairs, read through table."""
    out = ratio
    for num, den in pairs:
        out *= table.value(num) / table.value(den)
    return out


def multi1_h(params: Multi1Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the ordered-tuple family,
    with the summation indices continued multiplicatively: lam_mult[j]
    stands for q^{lambda_j}."""
    ratio, pairs = _lattice_h(_multi1_lattice(params), l, params.nome.q)
    return _h_product(ratio, pairs(lam_mult), FactorTable(params.nome))


def multi2_h(params: Multi2Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the box-lattice family."""
    ratio, pairs = _lattice_h(_multi2_lattice(params), l, params.nome.q)
    return _h_product(ratio, pairs(lam_mult), FactorTable(params.nome))


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
    reference point. h_l is built once per parameter set, and every call
    reads one table: the shifted sets share the nome of params. Each h_l
    argument list is formed once per point and kept for the length of the
    check: the warm-up forms the lists of both h_l at the first points the
    shift loop takes and evaluates their theta arguments in one theta_many
    batch, and the loop reads the same lists."""
    p, q, n = params.nome.p, params.nome.q, params.n
    l_mid = max(1, (n + 1) // 2)
    ratio, ref = _lattice_h(describe(params), l_mid, q)
    ref = functools.cache(ref)
    forms = [(f"index_p_shift:lambda{i + 1}", ratio, lambda xs, i=i: ref((*xs[:i], xs[i] * p, *xs[i + 1 :])))
             for i in range(n)]
    forms += [(kind, *_lattice_h(describe(sp), l_mid, q)) for kind, sp in param_shifts]
    forms = [(kind, r, functools.cache(pairs)) for kind, r, pairs in forms]
    table = FactorTable(params.nome)

    def warm(points: list[list[tuple[complex, ...]]]) -> None:
        table.prefetch(arg for (_, _, pairs), xss in zip(forms, points) for xs in xss
                       for h in (pairs, ref) for pair in h(xs) for arg in pair)

    shifts = [(kind, lambda xs, r=r, pairs=pairs: _h_product(r, pairs(xs), table)) for kind, r, pairs in forms]
    draw = functools.partial(_rand_mult_args, n=n)
    return _shift_reports(draw, lambda xs: _h_product(ratio, ref(xs), table), shifts, samples, tol, seed,
                          f"@h{l_mid}", warm)


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
