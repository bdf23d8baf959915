"""Numeric quasiperiodicity, ellipticity, total-ellipticity and
modular-invariance checkers for term ratios.

Every check draws its points from one seeded stream and tests each index
shift multiplicatively, x_j -> p x_j (for X = q^x, x -> x + tau/sigma, as
q^{tau/sigma} = p); the sigma^{-1} shift is a structural identity of the
multiplicative form. Every parameter shift keeps the balancing condition:
the canonical well-poised balanced form solves its balancing pole from the
others, and each multivariable parameter class states its own p-shifts
(``_p_shifts``) beside the condition they keep, and its summand
(``_lattice``), which the term ratios are read from.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FloatRangeError, NonConvergenceError, PoleError
from .report import EllipticityReport, rel_err
from .theta import ModularPair, Nome, _mul, _p_infinity, _q_power, _quot, _theta_lanes, apply_modular, theta
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
    _h_point; PoleError on a denominator theta of 0, FloatRangeError where h
    is not finite."""
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
    batched = dict(zip(keys, _h_rows(hs, [s for s, _ in keys], [xs for _, xs in keys], p, refs)))

    def h(s: int | None, xs: tuple):
        key = row(s, xs)
        value = batched.get(key)
        return _h_point(hs[key[0]], key[1], p) if value is None else value

    shifts = [(kind, functools.partial(h, s)) for s, kind in enumerate(kinds)]
    return _shift_reports(itertools.chain(first, points), functools.partial(h, None), shifts, samples, tol, suffix)


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
    annulus = _draws(seed, _X_BOX, samples, lambda x: cmath.exp(2j * math.pi * complex(*x)) * 0.7)
    shifts = [("index_p_shift", lambda w: term_ratio_fn(nome.p * w))]
    return _shift_reports(annulus, term_ratio_fn, shifts, samples, tol)[0]


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


def _lattice_h(descs: list, l: int, q: complex) -> list[tuple[complex, list[tuple]]]:
    """h_l = c(lam + e_l) / c(lam) of each series._Multisum in descs, which
    differ only in their constants, for the 1-based index l as (ratio,
    columns): h_l(xs) = ratio * prod theta(a X) / theta(b X) over the
    monomial columns (e, a, b) in order, with xs = [q^{lam_j}] and X =
    prod_j x_j^{e_j}, e over all n indices. A head (c, e) gives (e, c
    q^{e_l}, c), a pair (a, b, e) gives (e, a, b) when e_l = 1, (e, b / q, a
    / q) when e_l = -1 and nothing when e_l = 0, and ratio is scalar(e_l) /
    scalar(0). Under x_k -> p x_k a column gains (b / a)^{e_k}, as theta(p^m
    y) = (-1)^m y^{-m} p^{-m(m-1)/2} theta(y). The columns touch only the
    parts that contain l, and their e depend only on the family, its rank
    and l, so they are widened once, from the first desc, and every desc
    adds its constants (a, b)."""
    n, i = len(descs[0].blocks), l - 1
    slots = [(min(i, j), max(i, j)) for j in range(n) if j != i] + [(i,)]
    parts = [[desc.cross[slot] if len(slot) == 2 else desc.blocks[i] for slot in slots] for desc in descs]
    wide = [([_widen(e, slot, n) for _, e in heads], [_widen(e, slot, n) for *_, e in pairs])
            for slot, (heads, pairs) in zip(slots, parts[0])]
    hs = []
    for desc, desc_parts in zip(descs, parts):
        ratio = desc.scalar(tuple(int(j == i) for j in range(n))) / desc.scalar((0,) * n)
        columns = []
        for slot, (heads, pairs), (head_es, pair_es) in zip(slots, desc_parts, wide):
            at = slot.index(i)
            columns += [(w, c * q ** e[at], c) for (c, e), w in zip(heads, head_es)]
            for (a, b, e), w in zip(pairs, pair_es):
                if e[at]:
                    columns.append((w, a, b) if e[at] == 1 else (w, b / q, a / q))
        hs.append((ratio, columns))
    return hs


def _widen(e: tuple[int, ...], idx: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The exponents e of the indices idx as a vector over all n indices."""
    return tuple(e[idx.index(j)] if j in idx else 0 for j in range(n))


def _power(x: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of x ** e for e in (1, 2, -1), formed as x, x * x and 1 / x."""
    if e == 1:
        return x.real, x.imag
    if e == 2:
        return _mul(x.real, x.imag, x.real, x.imag)
    if e == -1:
        return _quot(1.0, 0.0, x.real, x.imag)
    raise ValueError(f"no exponent {e} in a term ratio column")


def _h_rows(hs: list[tuple], sets: list[int], points: list[tuple[complex, ...]], p: complex, refs: list[int]):
    """h_l at each row r, the parameter set hs[sets[r]], a (ratio, columns) of
    _lattice_h, at the point points[r]; every set shares its columns' e, and
    no column has a side of None. A row where theta raises on an argument,
    or that reads a denominator theta of 0, is None; _h_point raises there.

    The rows are float64 arrays and every complex product and quotient is
    formed as CPython forms it (_mul, _quot): X = prod_j x_j^{e_j} with x^2
    = x x and x^-1 = 1 / x, then num = a X and den = b X for every column
    of every row. refs pairs each row r with a reference row refs[r], a
    row that is its own reference. A reference row's arguments are all
    evaluated, and a paired row's where their bits differ from its
    reference row's in the same lane, in one _theta_lanes pass; each other
    lane reads the reference row's value. Each row then multiplies ratio by theta(num) / theta(den)
    column by column, in order."""
    columns = hs[0][1]
    rows, width = len(points), len(columns)
    refs = np.asarray(refs, dtype=np.intp)
    xs = np.array(points, dtype=complex).reshape(rows, len(columns[0][0]))
    ab = np.array([[(a, b) for _, a, b in cols] for _, cols in hs], dtype=complex)[sets]
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
        bits = args.view(np.uint64)  # the real and imaginary parts' bits, in turn
        moved = bits != bits[:, refs]
        own = moved[..., 0::2] | moved[..., 1::2] | (refs == np.arange(rows))[:, None]
        v, bad = np.zeros(args.shape, dtype=complex), np.zeros(args.shape, dtype=bool)
        v[own], bad[own] = _theta_lanes(args[own], p)
        v, bad = np.where(own, v, v[:, refs]), np.where(own, bad, bad[:, refs])
        tr, ti = _quot(v.real[0], v.imag[0], v.real[1], v.imag[1])
        out_r, out_i = ratio.real, ratio.imag
        for c in range(width):
            out_r, out_i = _mul(out_r, out_i, tr[:, c], ti[:, c])
    h = np.empty(rows, dtype=complex)
    h.real, h.imag = out_r, out_i
    fail = (bad[0] | bad[1] | (v[1] == 0)).any(axis=1)
    return [None if f else value for value, f in zip(h.tolist(), fail.tolist())]


def _h_point(h: tuple, xs, p: complex) -> complex:
    """h_l of h, a (ratio, columns) of _lattice_h or _form_h, at the point
    xs: one row of _h_rows bit for bit, as it forms each X and each quotient
    in the same order with CPython's arithmetic, which _h_rows ports (numpy
    scalars in xs are read as Python complex, as numpy's own complex
    arithmetic may round differently). It raises where that row has no
    value: as theta does on the first argument it fails at, or PoleError on
    a denominator theta of 0."""
    ratio, columns = h
    value, factors, xs = ratio, {}, [complex(x) for x in xs]
    for e, a, b in columns:
        if e not in factors:
            parts = (x if k == 1 else x * x if k == 2 else complex(1.0, 0.0) / x for x, k in zip(xs, e) if k)
            factors[e] = functools.reduce(operator.mul, parts)
        num = 1.0 if a is None else theta(a * factors[e], p)
        den = 1.0 if b is None else theta(b * factors[e], p)
        if den == 0:
            raise PoleError("h_l reads a denominator theta of 0")
        value *= num / den
    return value


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
