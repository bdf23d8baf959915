"""Numeric quasiperiodicity, ellipticity, total-ellipticity and
modular-invariance checkers for term ratios.

Every check draws its points from one seeded stream and tests each index
shift multiplicatively, x_j -> p x_j (for X = q^x, x -> x + tau/sigma, as
q^{tau/sigma} = p); the sigma^{-1} shift is a structural identity of the
multiplicative form. Every parameter shift keeps the balancing condition:
the canonical well-poised balanced form solves its balancing pole from the
others, and each multivariable parameter class states its own p-shifts
(``_p_shifts``) beside the condition they keep, and its summand
(``_lattice``), which the term ratios are read from. Every term ratio
is a (ratio, columns) read through series' one column reader: _h_point
at a single point, _h_rows for a check's rows.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FloatRangeError, NonConvergenceError, PoleError
from .report import EllipticityReport, rel_err
from .series import _h_point, _h_rows, _lattice_h
from .theta import ModularPair, Nome, _p_infinity, _q_power, apply_modular
from .identities import Multi1Params, Multi2Params


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


def _form_h(form: HForm) -> tuple[complex, list[tuple]]:
    """form's term ratio as a (ratio, columns) of _lattice_h in the one
    variable X = q^x: [x + u] / [x + v] = q^{(v - u)/2} theta(q^u X) /
    theta(q^v X), as [u] = C q^{-u/2} theta(q^u; p) with C = i p^{1/8} (p;
    p)_inf, which cancels. The zeros and poles pair up in order, and a
    column past the shorter list has None on its other side, read as 1; h
    is then ratio * prod theta(a X) / theta(b X) times C^{r - s} q^{(beta -
    (r - s)/2) x}, which h_eval applies."""
    sigma = form.pair.sigma
    ratio = form.y * _q_power(sigma, (sum(form.poles, 0j) - sum(form.zeros, 0j)) / 2)
    columns = [
        ((1,), None if u is None else _q_power(sigma, u), None if v is None else _q_power(sigma, v))
        for u, v in itertools.zip_longest(form.zeros, form.poles)
    ]
    return ratio, columns


def h_eval(form: HForm, x: complex) -> complex:
    """h at x, read through _form_h's columns at X = q^x by the scalar loop
    _h_point; PoleError where the orders of its theta zeros leave a net
    pole, FloatRangeError where h is not finite."""
    pair, excess = form.pair, len(form.zeros) - len(form.poles)
    try:
        value = _h_point(_form_h(form), (_q_power(pair.sigma, x),), pair.p)
    except PoleError as exc:
        raise PoleError(f"h(x) pole at x = {x}") from exc
    if excess or form.beta:
        c = 1j * cmath.exp(1j * math.pi * pair.tau / 4.0) * _p_infinity(pair.p)
        value *= c**excess * _q_power(pair.sigma, (form.beta - excess / 2) * x)
    if cmath.isfinite(value):
        return value
    raise FloatRangeError(f"h(x) leaves the float64 range at x = {x}")


def multipliers(form: HForm) -> tuple[complex, complex, complex]:
    """Closed-form quasiperiodicity multipliers (a, b, gamma):
    h(x + 1/sigma) = a h(x), h(x + tau/sigma) = b e^{2 pi i sigma gamma x} h(x),
    with a = (-1)^(r-s) e^{2 pi i beta} and b = (-1)^(r-s) p^((s-r)/2 + beta)
    q^(sum v - sum u); FloatRangeError where a power leaves the float64 range."""
    r, s = len(form.zeros), len(form.poles)
    sign = (-1.0) ** (r - s)
    a = sign * _q_power(1, form.beta)
    b = sign * _q_power(form.pair.tau, (s - r) / 2 + form.beta)
    b *= _q_power(form.pair.sigma, sum(form.poles, 0j) - sum(form.zeros, 0j))
    return a, b, complex(s - r)


def _worse(dev: float, err: float) -> float:
    """The running maximum deviation; a non-finite one is inf, which fails."""
    return max(dev, err) if math.isfinite(err) else math.inf


_X_BOX = ((-0.45, -0.25), (0.45, 0.25))  # x = u + v i, u in [-0.45, 0.45), v in [-0.25, 0.25)


def _draws(seed: int, box, first: int, point):
    """point(row) for each row of uniform draws in box = (low, high) of one
    rng seeded with seed: the first `first` rows from one rng.uniform call,
    then one row a call, the same draws in the same order as one scalar call
    at a time. Lazy: nothing is drawn before the first point is taken."""
    rng, (low, high) = np.random.default_rng(seed), box
    yield from map(point, rng.uniform(low, high, (first, len(low))).tolist())
    while True:
        yield point(rng.uniform(low, high).tolist())


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _shift_reports(points, ref, shifts, samples: int, tol: float, suffix: str = "") -> list[EllipticityReport]:
    """One report per (kind, shifted) in shifts, in order: the max relative
    deviation of shifted(point) from ref(point) over `samples` points, each
    shift taking its points in turn from the one iterator points, a _draws
    stream, which draws nothing before samples is checked. A point is
    redrawn (at most 200 extra times per kind) on a pole, an overflow or a
    reference whose modulus is not in [1e-12, 1e12]; a non-finite deviation
    fails the report with max_rel_dev inf."""
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


def _batched_reports(kinds, points, hs: list[tuple], p: complex, samples: int, tol: float, suffix=""):
    """_shift_reports with one shift per kind over the iterator points, each
    at the point tuple xs reading a row (set, point) of h = hs[set], a
    (ratio, columns) of _lattice_h or _form_h: the reference (0, xs), the
    index shift s < m = len(xs) (0, xs with x_s -> p x_s), and each later,
    parameter, shift its own set (s - m + 1, xs). The rows of the points the
    shift loop takes first, `samples` a shift, are evaluated in one _h_rows
    batch, in which each shifted row is paired with its point's reference
    row: an index shift leaves the columns whose e does not read the shifted
    index as they were, and a parameter shift those whose (a, b) did not
    move, so those lanes are read from the reference row. A row the batch
    lacks, after a redraw or past its points, or has no value for, is
    evaluated by the scalar loop _h_point, which raises there."""
    _check_samples(samples)
    first = list(itertools.islice(points, len(kinds) * samples))

    def row(s: int | None, xs: tuple):
        if s is None or s >= len(xs):
            return (0 if s is None else s - len(xs) + 1), xs
        return 0, (*xs[:s], xs[s] * p, *xs[s + 1 :])

    keys = [row(j // samples, xs) for j, xs in enumerate(first)] + [row(None, xs) for xs in first]
    refs = list(range(len(first), len(keys))) * 2
    values = _h_rows(hs, [s for s, _ in keys], [xs for _, xs in keys], p, refs)
    read = _batch_reader(keys, values, lambda key: _h_point(hs[key[0]], key[1], p))

    def h(s: int | None, xs: tuple):
        return read(row(s, xs))

    shifts = [(kind, functools.partial(h, s)) for s, kind in enumerate(kinds)]
    return _shift_reports(itertools.chain(first, points), functools.partial(h, None), shifts, samples, tol, suffix)


def _batch_reader(keys: list, values: list, scalar: Callable):
    """A reader of one key: the value the batch holds at it (keys and values
    in step), or scalar(key) where the batch lacks the key, as after a
    redraw or past its points, or holds None there."""
    batched = dict(zip(keys, values))

    def read(key):
        value = batched.get(key)
        return scalar(key) if value is None else value

    return read


def _array_values(fn: Callable, args: list[complex]) -> list:
    """fn called once on the array of args, read as a list with None at
    each NaN, or [] where the call raises or does not return a float or
    complex array of one value per argument."""
    try:
        values = fn(np.array(args, dtype=complex))
    except Exception:  # fn takes single points only, and raises there as it does alone
        return []
    if not isinstance(values, np.ndarray) or values.shape != (len(args),) or values.dtype.kind not in "fc":
        return []
    return [None if cmath.isnan(v) else v for v in values.tolist()]


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

    term_ratio_fn is called once on the 1-D complex array of the first
    `samples` points followed by their p-shifts, as term_ratio_at(spec, w)
    takes it, and each of those rows is read from its result: a callable
    that takes an array returns at each point its value at that point
    alone, or NaN. A NaN row, a redrawn point, and every row where that
    call raises or does not return an array of one value per point, are
    evaluated one point at a time, so the reports, redraws and errors are
    those of the scalar calls.
    """
    _check_samples(samples)
    annulus = _draws(seed, _X_BOX, samples, lambda x: cmath.exp(2j * math.pi * complex(*x)) * 0.7)
    first = list(itertools.islice(annulus, samples))
    args = first + [nome.p * w for w in first]
    h = _batch_reader(args, _array_values(term_ratio_fn, args), term_ratio_fn)
    shifts = [("index_p_shift", lambda w: h(nome.p * w))]
    return _shift_reports(itertools.chain(first, annulus), h, shifts, samples, tol)[0]


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
    one report for the index shift X -> p X, one for u0 and one per u_m,
    each parameter shifted by tau/sigma, the quasiperiod of x. _wp_form
    solves the balancing pole from the others, so a shifted parameter set
    stays balanced. Each row reads its form's columns at X = q^x of an
    additive draw x."""
    shift, params = pair.tau / pair.sigma, [u0, *us]
    sets = [params] + [[*params[:m], params[m] + shift, *params[m + 1 :]] for m in range(len(params))]
    hs = [_form_h(_wp_form(ps[0], ps[1:], z, pair)) for ps in sets]
    kinds = ["index_p_shift"] + [f"param_p_shift:u{m}" for m in range(len(params))]
    points = _draws(seed, _X_BOX, len(kinds) * samples, lambda x: (_q_power(pair.sigma, complex(*x)),))
    return _batched_reports(kinds, points, hs, pair.p, samples, tol)


# ---------------------------------------------------------------------------
# multivariable term ratios (forward-shift ratios of the series coefficients)


def _multi_h(params, l: int, lam_mult) -> complex:
    """h_l of params' family, read from params._lattice(), at the point
    lam_mult; ValueError unless l is in 1..n and the point has n coordinates."""
    n = params.n
    if not 1 <= l <= n:
        raise ValueError(f"l must be in 1..{n}, got {l}")
    if len(lam_mult) != n:
        raise ValueError(f"the point needs {n} coordinates, got {len(lam_mult)}")
    [h] = _lattice_h([params._lattice()], l, params.nome.q)
    return _h_point(h, lam_mult, params.nome.p)


def multi1_h(params: Multi1Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the ordered-tuple family,
    with the summation indices continued multiplicatively: lam_mult[j]
    stands for q^{lambda_j}."""
    return _multi_h(params, l, lam_mult)


def multi2_h(params: Multi2Params, l: int, lam_mult: list[complex]) -> complex:
    """Coefficient forward-shift ratio h_l for the box-lattice family."""
    return _multi_h(params, l, lam_mult)


def _rand_mult_args(draws: list[float], n: int) -> tuple[complex, ...]:
    """The point 0.8 e^{2 pi i (u_j + v_j i)}, j < n, of the 2n uniform
    draws u_0, v_0, u_1, ... with u_j in [0, 1) and v_j in [-0.05, 0.05)."""
    return tuple(0.8 * cmath.exp(2j * math.pi * complex(draws[2 * j], draws[2 * j + 1])) for j in range(n))


def _check_multi(params, samples: int, tol: float, seed: int) -> list[EllipticityReport]:
    """One report per summation index p-shift, then one per (name, shifted
    params) of params._p_shifts(), the p-shifts its parameter class states
    beside the balancing condition they keep, each comparing h_l at the
    shifted and the reference point, at the one index l = max(1, (n + 1) //
    2) that each report's kind ends with (@h{l}). Each set's family is its
    _lattice(); the sets share the nome of params, and so the exponent
    vectors of h_l's columns, which _lattice_h widens once; each set adds
    its constants."""
    n, param_shifts = params.n, params._p_shifts()
    l_mid = max(1, (n + 1) // 2)
    hs = _lattice_h([sp._lattice() for sp in [params, *(sp for _, sp in param_shifts)]], l_mid, params.nome.q)
    kinds = [f"index_p_shift:lambda{i + 1}" for i in range(n)] + [f"param_p_shift:{name}" for name, _ in param_shifts]
    points = _draws(seed, ((0, -0.05) * n, (1, 0.05) * n), len(kinds) * samples, lambda x: _rand_mult_args(x, n))
    return _batched_reports(kinds, points, hs, params.nome.p, samples, tol, f"@h{l_mid}")


def check_total_ellipticity_multi1(
    params: Multi1Params,
    samples: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[EllipticityReport]:
    """p-shift invariance of h_l at l = max(1, (n + 1) // 2) in the
    summation indices and in the free parameters t_0..t_4 and t, each with
    the co-shift Multi1Params states to keep the balancing condition."""
    return _check_multi(params, samples, tol, seed)


def check_total_ellipticity_multi2(
    params: Multi2Params,
    samples: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[EllipticityReport]:
    """p-shift invariance of h_l at l = max(1, (n + 1) // 2) in the
    summation indices and in the free parameters t_0..t_{2n+2}, each with
    the co-shift Multi2Params states to keep the balancing condition."""
    return _check_multi(params, samples, tol, seed)


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
        except (ZeroDivisionError, OverflowError):
            continue
        if abs(ref) < 1e-12:  # h_eval raises where h is not finite
            continue
        dev = _worse(dev, rel_err(alt, ref))
        count += 1
    report = EllipticityReport("modular_S", dev, count, count > 0 and dev <= tol)
    return structural, report
