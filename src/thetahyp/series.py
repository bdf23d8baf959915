"""Theta hypergeometric series evaluators and classifiers.

Covers the unilateral E-type series, the bilateral G-type series, their
very-well-poised simplified forms (multiplicative and additive), the
G-to-E two-series split, the p -> 0 degenerations to basic (q-)series,
and the balanced / well-poised / very-well-poised / modular classifiers.

Coefficients are assembled through FactorialValue products so that
structural zeros and poles are resolved exactly rather than through
divisions by numerically tiny theta values. Each evaluator reads all its
coefficients through one FactorTable, so each distinct theta factor is
evaluated once per sum.

A multisum coefficient is described once, as a _Multisum of theta heads
and factorial quotients, and read through _LatticeTerms. The
very-well-poised coefficient is its rank-1 case (_vwp_terms), so the vwp
sums here and the 10E9, 12E11 and multivariable sums of ``identities``
share one evaluator, which multiplies each quotient (a)_n / (b)_n in turn.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import FloatRangeError, NonConvergenceError, ThetaDomainError
from .factorials import (
    ONE,
    FactorialValue,
    FactorTable,
    theta_factor,
)
from .report import JsonFields, VerificationReport, _str_from_json
from .theta import LATTICE_RTOL, MAX_TERMS, SERIES_TOL, ModularPair, Nome, theta_log_range

REL_TOL = 1e-10  # classifier tolerance for multiplicative constraints

UNILATERAL_E = "unilateral_E"
BILATERAL_G = "bilateral_G"


def _check_params(params: list[complex], label: str) -> None:
    for t in params:
        t = complex(t)
        if t == 0 or not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise ThetaDomainError(f"{label} parameter must be finite and nonzero, got {t}")


@dataclass(frozen=True)
class ThetaSeriesSpec(JsonFields):
    """Full description of an E- or G-type theta hypergeometric series.

    For the E kind the implicit theta(q; p; q)_n denominator factor is
    inserted by the evaluator, not stored, so a G spec with an extra
    denominator parameter w = q round-trips into the matching E spec.
    """

    kind: str
    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    alpha: complex
    z: complex
    nome: Nome

    def __post_init__(self) -> None:
        if self.kind not in (UNILATERAL_E, BILATERAL_G):
            raise ValueError(f"unknown series kind {self.kind!r}")
        object.__setattr__(self, "numerator", tuple(complex(t) for t in self.numerator))
        object.__setattr__(self, "denominator", tuple(complex(w) for w in self.denominator))
        _check_params(list(self.numerator), "numerator")
        _check_params(list(self.denominator), "denominator")

    def effective_denominator(self) -> tuple[complex, ...]:
        if self.kind == UNILATERAL_E:
            return (self.nome.q,) + self.denominator
        return self.denominator


@dataclass(frozen=True)
class VwpSpec(JsonFields):
    """Very-well-poised series in the simplified (t0; t1, ...) form."""

    t0: complex
    ts: tuple[complex, ...]
    z: complex
    nome: Nome
    kind: str = "unilateral"

    def __post_init__(self) -> None:
        if self.kind not in ("unilateral", "bilateral"):
            raise ValueError(f"unknown vwp kind {self.kind!r}")
        object.__setattr__(self, "ts", tuple(complex(t) for t in self.ts))
        _check_params([self.t0, *self.ts], "vwp")

    @property
    def r(self) -> int:
        return len(self.ts) + 4

    def to_json(self) -> dict:
        return {**super().to_json(), "kind": f"vwp_{self.kind}"}

    @classmethod
    def from_json(cls, obj: dict) -> "VwpSpec":
        kind = _str_from_json(obj["kind"], "kind")
        if not kind.startswith("vwp_"):
            raise ValueError(f"not a vwp spec: kind={kind!r}")
        return super().from_json({**obj, "kind": kind[4:]})


@dataclass(frozen=True)
class TruncationDecl:
    """Declares that numerator parameter param_index equals q^{-N} p^{-M}."""

    param_index: int
    N: int
    M: int = 0

    def validate(self, spec: ThetaSeriesSpec) -> None:
        t = spec.numerator[self.param_index]
        target = spec.nome.q ** (-self.N) * spec.nome.p ** (-self.M)
        if abs(t - target) > LATTICE_RTOL * abs(target):
            raise ValueError(
                f"parameter {self.param_index} is not q^-{self.N} p^-{self.M} within {LATTICE_RTOL}"
            )


@dataclass
class SeriesValue:
    value: complex
    terms_used: int
    terminated: bool
    tail_estimate: float

    to_json = JsonFields.to_json


def spec_from_json(obj: dict) -> ThetaSeriesSpec | VwpSpec:
    kind = obj.get("kind")
    if isinstance(kind, str) and kind.startswith("vwp_"):
        return VwpSpec.from_json(obj)
    return ThetaSeriesSpec.from_json(obj)


# ---------------------------------------------------------------------------
# coefficients and term ratios


def coefficient(spec: ThetaSeriesSpec, n: int) -> FactorialValue:
    """Coefficient c_n of the series as a FactorialValue (c_0 = 1)."""
    return _coefficient(spec, n, FactorTable(spec.nome))


def _coefficient(spec: ThetaSeriesSpec, n: int, table: FactorTable) -> FactorialValue:
    nome = spec.nome
    num = table.factorial_multi(list(spec.numerator), n)
    den = table.factorial_multi(list(spec.effective_denominator()), n)
    scalar = nome.q ** (spec.alpha * n * (n - 1) / 2.0) * spec.z**n
    return (num / den) * scalar


def term_ratio(spec: ThetaSeriesSpec, n: int) -> complex:
    """h(n) = c_{n+1}/c_n built from single theta factors."""
    return term_ratio_at(spec, spec.nome.q**n, n=n)


def _integer_alpha(spec: ThetaSeriesSpec) -> int | None:
    alpha = complex(spec.alpha)
    return int(alpha.real) if alpha.imag == 0 and alpha.real.is_integer() else None


def term_ratio_at(spec: ThetaSeriesSpec, w: complex, n: int | None = None) -> complex:
    """h evaluated at a multiplicative argument w (w = q^n analytically
    continued). Requires integer alpha unless n is supplied.

    This stays beside ellipticity.h_eval rather than reading the spec as an
    HForm: it multiplies the theta(t w; p) factors the series itself sums
    and carries the q^{alpha n} factor, while h_eval takes additive
    arguments through theta1. The conversion would need principal-branch
    logarithms log(t)/log(q) of every parameter, so the check would test
    that conversion instead of the spec."""
    nome = spec.nome
    num = ONE
    for t in spec.numerator:
        num = num * theta_factor(t * w, nome.p)
    den = ONE
    for wk in spec.effective_denominator():
        den = den * theta_factor(wk * w, nome.p)
    if n is not None:
        expo = nome.q ** (spec.alpha * n)
    elif (k := _integer_alpha(spec)) is not None:
        expo = w**k
    else:
        raise ValueError("term_ratio_at requires integer alpha for non-integer arguments")
    return (num / den).value * expo * spec.z


# ---------------------------------------------------------------------------
# evaluators


def _term(coeff_fn, n: int) -> FactorialValue:
    """coeff_fn(n), with an overflow named by its term index."""
    try:
        return coeff_fn(n)
    except OverflowError as exc:
        raise FloatRangeError(f"term {n} of the series: {exc}") from exc


def _last_index(trunc: TruncationDecl | int | None) -> int | None:
    """The last index a unilateral sum truncated at trunc sums, None if unbounded."""
    if isinstance(trunc, TruncationDecl):
        return trunc.N
    return None if trunc is None else operator.index(trunc)


def _sum_unilateral(coeff_fn, trunc: TruncationDecl | int | None) -> SeriesValue:
    """Sum coeff_fn(n) for n >= 0. trunc as a TruncationDecl or an explicit
    last index (any integer, numpy's included) sums exactly that many terms
    and raises FloatRangeError at the first non-finite term; None caps at
    MAX_TERMS with a last-term tail heuristic and raises NonConvergenceError
    there."""
    last = _last_index(trunc)
    total = 0j
    small_streak = 0
    n = 0
    cap = MAX_TERMS if last is None else last + 1
    terminated = last is not None
    tail = 0.0
    while n < cap:
        c = _term(coeff_fn, n)
        if c.is_zero:
            # a numerator lattice zero persists in every later coefficient;
            # terms 0..n-1 were summed
            return SeriesValue(total, n, True, 0.0)
        val = c.value
        if not cmath.isfinite(val):
            error = NonConvergenceError if last is None else FloatRangeError
            raise error(f"term {n} of the series is not finite: {val}")
        total += val
        if last is None:
            if abs(val) < SERIES_TOL * max(1.0, abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    tail = abs(val)
                    break
            else:
                small_streak = 0
                tail = abs(val)
        n += 1
    return SeriesValue(total, min(n + 1, cap), terminated, 0.0 if terminated else tail)


def _sum_window(coeff_fn, window: tuple[int, int]) -> SeriesValue:
    """Sum the nonzero coeff_fn(n) for n in [n_min, n_max], in order; the
    tail estimate is the larger of the two edge terms. A reversed window
    is refused rather than summed to 0, and a non-finite term raises
    FloatRangeError."""
    n_min, n_max = window
    if n_min > n_max:
        raise ValueError(f"empty window {window}")
    total = 0j
    used = 0
    edge = 0.0
    for n in range(n_min, n_max + 1):
        c = _term(coeff_fn, n)
        if c.is_zero:
            continue
        val = c.value  # raises PoleError when unresolved
        if not cmath.isfinite(val):
            raise FloatRangeError(f"term {n} of the series is not finite: {val}")
        total += val
        used += 1
        if n in (n_min, n_max):
            edge = max(edge, abs(val))
    return SeriesValue(total, used, False, edge)


def eval_E(spec: ThetaSeriesSpec, trunc: TruncationDecl | int | None = None) -> SeriesValue:
    """Unilateral series sum_{n>=0} c_n."""
    if spec.kind != UNILATERAL_E:
        raise ValueError("eval_E expects a unilateral_E spec")
    if isinstance(trunc, TruncationDecl):
        trunc.validate(spec)
    table = FactorTable(spec.nome)
    return _sum_unilateral(lambda n: _coefficient(spec, n, table), trunc)


def eval_G(spec: ThetaSeriesSpec, window: tuple[int, int]) -> SeriesValue:
    """Bilateral series as a windowed partial sum over n in [n_min, n_max]."""
    if spec.kind != BILATERAL_G:
        raise ValueError("eval_G expects a bilateral_G spec")
    table = FactorTable(spec.nome)
    return _sum_window(lambda n: _coefficient(spec, n, table), window)


def _log_abs(z: complex) -> float:
    return math.log(abs(z)) if z else -math.inf


@dataclass(frozen=True)
class _Multisum:
    """A multisum coefficient c(lam) = prod_{j<k} cross[j, k] * prod_j blocks[j]
    * scalar(lam) (Warnaar 2002, Rosengren 2004), written once. Each part is
    (heads, pairs) over the indices it touches, (lam_j, lam_k) or (lam_j,): a
    head (c, e) stands for theta(c q^{e.lam}) / theta(c) and a pair (a, b, e)
    for (a)_{e.lam} / (b)_{e.lam}. Rank 1 is the very-well-poised coefficient
    (_vwp_terms). _LatticeTerms evaluates it at integer points and lists the
    theta arguments of its distinct parts for one batch; identities._lattice_h
    reads off the term ratios h_l = c(lam + e_l) / c(lam)."""

    cross: dict[tuple[int, int], tuple[tuple, tuple]]
    blocks: tuple[tuple[tuple, tuple], ...]
    scalar: Callable[[tuple[int, ...]], complex]


def _dot(e: tuple[int, ...], lams: tuple[int, ...]) -> int:
    return sum(map(operator.mul, e, lams))


def _runs(heads: tuple, pairs: tuple) -> tuple[tuple, list]:
    """A part's heads, and its pairs as runs (e, [(a, b), ...]) of consecutive
    pairs that share the exponent vector e, in order."""
    return heads, [(e, [(a, b) for a, b, _ in run]) for e, run in itertools.groupby(pairs, operator.itemgetter(2))]


class _LatticeTerms:
    """The coefficients of a _Multisum, read through a table. A point lam has
    the parts cross (j, k, lam_j, lam_k) and block (j, lam_j); each part's
    value is built once, kept in a memo and reused at every point that
    shares it. ``arguments`` lists the theta arguments of the parts of the
    points given at construction, so a ``prefetch`` of the listing holds
    every theta value a call at those points asks for. A call at one point,
    listed or not, builds that coefficient alone."""

    def __init__(self, desc: _Multisum, table: FactorTable, lattice=()) -> None:
        self.scalar, self.table, self._values = desc.scalar, table, {}
        self._cross = list(itertools.combinations(range(len(desc.blocks)), 2))
        self._shapes = {slot: _runs(*part) for slot, part in desc.cross.items()}
        self._shapes.update(((j,), _runs(*block)) for j, block in enumerate(desc.blocks))
        self.points = list(lattice)

    def _keys(self, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The parts of the point lam, in the order its coefficient multiplies them."""
        return [(j, k, lam[j], lam[k]) for j, k in self._cross] + list(enumerate(lam))

    def _value(self, key: tuple[int, ...]) -> FactorialValue:
        """The part key at its indices, m = e.lam for each head and pair: its
        heads theta(c q^m) multiplied, divided by each theta(c), then times
        each quotient (a)_m / (b)_m in turn."""
        table, q, half = self.table, self.table.nome.q, len(key) // 2
        heads, runs = self._shapes[key[:half]]
        at = key[half:]
        out = functools.reduce(operator.mul, [table.factor(c * q ** _dot(e, at)) for c, e in heads])
        for c, _ in heads:
            out = out / table.factor(c)
        for e, pairs in runs:
            m = _dot(e, at)
            for a, b in pairs:
                out = out * (table.factorial(a, m) / table.factorial(b, m))
        return out

    def arguments(self) -> list[complex]:
        """The theta arguments the listed points' terms evaluate past the
        table's prefixes, formed as the terms form them. Each part shape is
        listed once over the indices the points reach in it: each head at c
        q^m for every distinct m = e.lam and at c, and each run of pairs that
        shares an exponent vector e with its bases up to the largest e.lam
        and down to the smallest. None where forming them overflows, as the
        terms raise."""
        if not self.points:
            return []
        table, q = self.table, self.table.nome.q
        lams = list(zip(*self.points))  # lams[j]: lam_j at each point
        args, ends = [], {}
        try:
            for slot, (heads, runs) in self._shapes.items():
                ats = dict.fromkeys(zip(*[lams[j] for j in slot]))
                for c, e in heads:
                    args += [c * q**m for m in dict.fromkeys(_dot(e, at) for at in ats)]
                    args.append(c)
                for e, pairs in runs:
                    ms = [_dot(e, at) for at in ats]
                    for m in dict.fromkeys((min(ms), max(ms))):
                        ends.setdefault(m, []).extend(base for pair in pairs for base in pair)
            for m, bases in ends.items():
                args += table.factorial_arguments(bases, m)
        except OverflowError:
            return []
        return args

    def __call__(self, *lam: int) -> FactorialValue:
        """The coefficient at the point lam: the product over pairs j < k of
        the cross parts, then over j of the blocks, times the scalar."""
        values, out = self._values, ONE
        for key in self._keys(lam):
            value = values.get(key)
            if value is None:
                value = values[key] = self._value(key)
            out = out * value
        return out * self.scalar(lam)


def _vwp_terms(spec: VwpSpec, table: FactorTable, ns: range = range(0)) -> _LatticeTerms:
    """The coefficients of a vwp spec, read through table: the rank-1
    _Multisum of one block with the head (t0^2, (2,)) and the pairs
    (t0 t, q t0 / t, (1,)) over t in (t0,) + ts (unilateral) or ts
    (bilateral), and the scalar (q z)^n. The points listed are (n,) for the
    first MAX_TERMS of ns, up to the first index whose coefficient reads an
    argument z with |log|z|| > theta_log_range, where theta raises. log|z|
    is linear in the power of q, so the head at q^2n and the extreme bases
    at each end of their prefixes decide an index, and the two ends of ns
    decide whether any index is out."""
    q, t0, step = spec.nome.q, spec.t0, spec.nome.q * spec.z
    ms = (t0,) + spec.ts if spec.kind == "unilateral" else spec.ts
    head, pairs = t0 * t0, tuple((t0 * t, q * t0 / t, (1,)) for t in ms)
    if ns := ns[:MAX_TERMS]:
        bound, lq, lh = theta_log_range(spec.nome.p), _log_abs(q), _log_abs(head)
        logs = [_log_abs(base) for a, b, _ in pairs for base in (a, b)]
        extremes = (min(logs), max(logs)) if logs else ()

        def out(n: int) -> bool:
            powers = (0, n - 1) if n > 0 else (-1, n) if n < 0 else ()
            read = [lh, lh + 2 * n * lq, *(l + e * lq for l in extremes for e in powers)]
            return max(map(abs, read)) > bound

        if out(ns[0]) or out(ns[-1]):
            ns = ns[: next(i for i, n in enumerate(ns) if out(n))]
    desc = _Multisum({}, ((((head, (2,)),), pairs),), lambda lam: step ** lam[0])
    return _LatticeTerms(desc, table, [(n,) for n in ns])


def vwp_coefficient(spec: VwpSpec, n: int) -> FactorialValue:
    """Coefficient of the simplified very-well-poised series at index n."""
    return _vwp_terms(spec, FactorTable(spec.nome))(n)


def eval_vwp(
    spec: VwpSpec,
    trunc: TruncationDecl | int | None = None,
    window: tuple[int, int] | None = None,
) -> SeriesValue:
    """Evaluate the simplified very-well-poised series (multiplicative form).
    A sum with a finite trunc or window evaluates its theta factors in one
    theta_many batch; an unbounded one evaluates them as it reaches them."""
    table = FactorTable(spec.nome)
    if spec.kind == "unilateral":
        if (last := _last_index(trunc)) is None:
            return _sum_unilateral(_vwp_terms(spec, table), trunc)
        terms = _vwp_terms(spec, table, range(last + 1))
        table.prefetch(terms.arguments())
        return _sum_unilateral(terms, trunc)
    if window is None:
        raise ValueError("bilateral vwp evaluation needs a finite window")
    terms = _vwp_terms(spec, table, range(window[0], window[1] + 1))
    table.prefetch(terms.arguments())
    return _sum_window(terms, window)


def eval_vwp_additive(
    u0: complex,
    us: list[complex],
    pair: ModularPair,
    z: complex,
    trunc: int,
) -> SeriesValue:
    """Additive form of the unilateral very-well-poised series.

    Includes the trailing factor q^{n (sum_m u_m - (r-7)/2)} with the sum
    running over m = 0..r-4 (u_0 itself included); for balanced parameters
    that factor is identically 1.
    """
    from .factorials import elliptic_factor, elliptic_factorial_multi

    r = len(us) + 4
    usum = u0 + sum(us)
    expo_step = cmath.exp(2j * math.pi * pair.sigma * (usum - (r - 7) / 2.0))
    head_den = elliptic_factor(2 * u0, pair)

    def coeff(n: int) -> FactorialValue:
        head = elliptic_factor(2 * u0 + 2 * n, pair) / head_den
        num = elliptic_factorial_multi([u0 + u0] + [u0 + u for u in us], pair, n)
        den = elliptic_factorial_multi([u0 + 1 - u0] + [u0 + 1 - u for u in us], pair, n)
        return head * (num / den) * (z**n * expo_step**n)

    return _sum_unilateral(coeff, trunc)


# ---------------------------------------------------------------------------
# classification


@dataclass
class SeriesClass:
    balanced: bool
    well_poised: bool
    very_well_poised: bool
    modular_constraint: bool
    elliptic: bool

    to_json = JsonFields.to_json


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _match_multiset(values: list[complex], targets: list[complex]) -> bool:
    pool = list(values)
    for tgt in targets:
        for i, v in enumerate(pool):
            if _close(v, tgt):
                del pool[i]
                break
        else:
            return False
    return True


def _additive_params(ts: tuple[complex, ...], q: complex) -> list[complex]:
    lq = cmath.log(q)
    return [cmath.log(t) / lq for t in ts]


def classify(spec: ThetaSeriesSpec | VwpSpec) -> SeriesClass:
    """Test the balanced / well-poised / very-well-poised / modular / elliptic flags.

    An E spec is read as the G spec with the extra denominator parameter
    w = q, so one set of tests covers both kinds. All constraints are
    checked multiplicatively to rel 1e-10; the modular sum-of-squares check
    uses principal-branch additive parameters log(t)/log(q) and is
    meaningful when the parameters were built from small additive values.
    As theta(p x; p) = -theta(x; p) / x, w -> p w multiplies the term ratio
    by p^alpha prod den / prod num: elliptic needs an integer alpha and
    prod num = p^alpha prod den, tested with non-negative powers of p.
    """
    if isinstance(spec, VwpSpec):
        return _classify_vwp(spec)
    q, p = spec.nome.q, spec.nome.p
    num, den = spec.numerator, spec.effective_denominator()
    dims_ok = len(num) == len(den)
    num_prod, den_prod = math.prod(num, start=1.0 + 0j), math.prod(den, start=1.0 + 0j)
    balanced = dims_ok and _close(num_prod, den_prod)
    well_poised = dims_ok and len(num) >= 1 and all(_close(a * b, num[0] * den[0]) for a, b in zip(num, den))
    vwp = well_poised and _detect_vwp(num[0] * den[0] / q, list(num), q, p)
    modular = balanced and _close(
        sum(x * x for x in _additive_params(num, q)), sum(x * x for x in _additive_params(den, q))
    )
    k = _integer_alpha(spec)
    elliptic = dims_ok and k is not None and _close(num_prod * p ** max(-k, 0), den_prod * p ** max(k, 0))
    return SeriesClass(balanced, well_poised, vwp, modular, elliptic)


def _detect_vwp(t0: complex, candidates: list[complex], q: complex, p: complex) -> bool:
    if len(candidates) < 4 or p == 0:
        return False
    root = cmath.sqrt(t0)
    ps = cmath.sqrt(p)
    for rt in (root, -root):
        targets = [rt * q, -rt * q, rt * q / ps, -rt * q * ps]
        if _match_multiset(candidates, targets):
            return True
    return False


def _classify_vwp(spec: VwpSpec) -> SeriesClass:
    q = spec.nome.q
    if spec.kind == "unilateral":
        prod = spec.t0 * math.prod(spec.ts, start=1.0 + 0j)
        target = q ** ((spec.r - 7) / 2.0)
    else:
        prod = math.prod(spec.ts, start=1.0 + 0j)
        target = q ** ((spec.r - 8) / 2.0)
    balanced = _close(prod, target) or _close(prod, -target)
    return SeriesClass(
        balanced=balanced,
        well_poised=True,
        very_well_poised=True,
        modular_constraint=balanced,
        elliptic=balanced,
    )


# ---------------------------------------------------------------------------
# G/E split


def ge_split_check(
    spec: VwpSpec,
    window_M: int,
    window_Mp: int | None = None,
    tol: float = 1e-10,
) -> VerificationReport:
    """Finite-window reassembly of a bilateral vwp series from two
    unilateral ones: the n in [-M, M'] window of the G series equals the
    [0, M'] partial sum of the first E series plus a theta prefactor times
    the [0, M-1] partial sum of the second E series at the reflected
    argument. M' defaults to M; both must be non-negative. The three sums
    and the prefactor read their theta factors through one table, filled
    by one theta_many batch."""
    if spec.kind != "bilateral":
        raise ValueError("ge_split_check expects a bilateral vwp spec")
    if window_Mp is None:
        window_Mp = window_M
    if window_M < 0 or window_Mp < 0:
        raise ValueError(f"ge_split_check needs non-negative windows, got M={window_M}, M'={window_Mp}")
    q = spec.nome.q
    t0, ts, z = spec.t0, spec.ts, spec.z
    _check_params([t0 * t0, *(t0 * t for t in ts)], "ge_split product")  # the prefactor divides by them
    r = len(ts) + 4
    m_prod = math.prod((t * t for t in ts), start=1.0 + 0j)
    table = FactorTable(spec.nome)
    window = _vwp_terms(spec, table, range(-window_M, window_Mp + 1))
    first = _vwp_terms(VwpSpec(t0, ts + (q / t0,), z, spec.nome, "unilateral"), table, range(window_Mp + 1))
    args = window.arguments() + first.arguments()
    if window_M:
        pref_num = [q * q / (t0 * t0), *(t / t0 for t in ts)]
        pref_den = [1.0 / (t0 * t0), *(q / (t0 * t) for t in ts)]
        z2 = q ** (r - 8) / (z * m_prod)
        second = _vwp_terms(VwpSpec(q / t0, ts + (t0,), z2, spec.nome, "unilateral"), table, range(window_M))
        args += pref_num + pref_den + second.arguments()
    table.prefetch(args)

    lhs = _sum_window(window, (-window_M, window_Mp)).value
    rhs = _sum_unilateral(first, window_Mp).value
    if window_M:
        pref = q ** (r - 7) / (z * m_prod) * table.value(pref_num[0]) / table.value(pref_den[0])
        for a, b in zip(pref_num[1:], pref_den[1:]):
            pref *= table.value(a) / table.value(b)
        rhs = rhs + pref * _sum_unilateral(second, window_M - 1).value
    return VerificationReport.compare(lhs, rhs, tol, params_echo=spec.to_json())


# ---------------------------------------------------------------------------
# independent basic (p = 0) evaluators


def _qp_factor(a: complex) -> FactorialValue:
    if abs(a - 1.0) <= LATTICE_RTOL:
        return FactorialValue(1.0 + 0j, zero_order=1)
    return FactorialValue(1.0 - a)


def _qp_factorial(a: complex, q: complex, n: int) -> FactorialValue:
    """q-Pochhammer (a; q)_n with exact-zero bookkeeping, any integer n."""
    if n < 0:
        return _qp_factorial(a * q**n, q, -n).inverse()
    out = ONE
    arg = complex(a)
    for _ in range(n):
        out = out * _qp_factor(arg)
        arg *= q
    return out


def _qp_multi(ts, q, n):
    out = ONE
    for t in ts:
        out = out * _qp_factorial(t, q, n)
    return out


def eval_basic(
    kind: str,
    numerator: list[complex] | None = None,
    denominator: list[complex] | None = None,
    q: complex = 0j,
    alpha: complex = 0,
    z: complex = 0j,
    trunc: int | None = None,
    window: tuple[int, int] | None = None,
    t0: complex | None = None,
    ts: list[complex] | None = None,
) -> SeriesValue:
    """Independent basic hypergeometric evaluator (p = 0 degenerations).

    kind="phi": unilateral with implicit (q; q)_n denominator factor;
    kind="psi": bilateral over the given window;
    kind="vwp_phi": very-well-poised basic series in the (t0; ts) form.
    Uses q-Pochhammer products only.
    """
    if abs(q) >= 1.0:
        raise ThetaDomainError("eval_basic needs |q| < 1")
    if kind == "phi":
        def coeff(n: int) -> FactorialValue:
            num = _qp_multi(numerator, q, n)
            den = _qp_multi([q] + list(denominator), q, n)
            return (num / den) * (q ** (alpha * n * (n - 1) / 2.0) * z**n)

        return _sum_unilateral(coeff, trunc)
    if kind == "psi":
        if window is None:
            raise ValueError("psi evaluation needs a finite window")
        return _sum_window(lambda n: (_qp_multi(numerator, q, n) / _qp_multi(denominator, q, n)) * z**n, window)
    if kind == "vwp_phi":
        def coeff(n: int) -> FactorialValue:
            head = _qp_factor(t0 * t0 * q ** (2 * n)) / _qp_factor(t0 * t0)
            ms = [t0] + list(ts)
            num = _qp_multi([t0 * t for t in ms], q, n)
            den = _qp_multi([q * t0 / t for t in ms], q, n)
            return head * (num / den) * (q * z) ** n

        return _sum_unilateral(coeff, trunc)
    raise ValueError(f"unknown basic series kind {kind!r}")
