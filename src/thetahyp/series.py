"""Theta hypergeometric series evaluators and classifiers.

Covers the unilateral E-type series, the bilateral G-type series, their
very-well-poised simplified forms (multiplicative and additive), the
G-to-E two-series split, the p -> 0 degenerations to basic (q-)series,
and the balanced / well-poised / very-well-poised / modular classifiers.

Coefficients carry a finite part and an exact order, as FactorialValue
does, so that structural zeros and poles are resolved exactly rather than
through divisions by numerically tiny theta values. _LatticeTerms
assembles them from FactorTable's (finite_part, order) pairs, with the
complex operations FactorialValue's products and quotients make, in the
same order, and builds one FactorialValue per coefficient, so a term is
bit-identical to its FactorialValue product. Each evaluator reads all its
coefficients through one FactorTable, so each distinct theta factor is
evaluated once per sum, and a sum with a finite truncation or window
fills the table by one theta_many batch, so the first read of a factorial
prefix grows it through the batch's factors in one loop and every later
read is a list index.

Every coefficient is described once, as a _Multisum of theta heads and
factorial quotients, and read through _LatticeTerms. The E and G
coefficients (_eg_desc, E as G with the extra denominator w = q) and the
very-well-poised one (_vwp_desc) are its rank-1 case, read by _rank1 and
summed by _evaluate, which picks the description by the spec's class and
the extent by its kind, so every series here and the 10E9, 12E11 and
multivariable sums of ``identities`` share one evaluator, which
multiplies each quotient (a)_n / (b)_n in turn. A closed form or
prefactor, the identities' and ge_split_check's, is the same kind of
product: _closed describes it as a rank-1 _Multisum read at one point.
eval_basic and eval_vwp_additive stay apart: they are the independent
checks. Every term ratio is one (ratio, columns), h = ratio * prod
theta(a X) / theta(b X), from _lattice_h, _eg_desc (term_ratio_at) or
ellipticity._form_h, read by one scalar loop (_h_point) at a point and
one batch (_h_rows) on an array of points, a batch row equal to the loop
bit for bit. A denominator theta of 0 is a pole there, as a cancelled
finite part is not the limit of h: theta(y) / theta(p^m y) is (-1)^m y^m
p^(m(m-1)/2), not 1. term_ratio_at alone reads its columns with cancel
set, keeping the convention of FactorialValue's coefficients: each theta
value is a (finite_part, order) pair, and only a net pole is a pole.
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

from .errors import FloatRangeError, NonConvergenceError, PoleError, ThetaDomainError
from .factorials import _UNDERFLOWED, ONE, FactorialValue, FactorTable, _factor_pair
from .report import JsonFields, VerificationReport, _str_from_json
from .theta import (
    LATTICE_RTOL, MAX_TERMS, SERIES_TOL, ModularPair, Nome, _mul, _quot, _theta_lanes, theta, theta_log_range
)

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
class SeriesValue(JsonFields):
    value: complex
    terms_used: int
    terminated: bool
    tail_estimate: float


def spec_from_json(obj: dict) -> ThetaSeriesSpec | VwpSpec:
    kind = obj.get("kind")
    if isinstance(kind, str) and kind.startswith("vwp_"):
        return VwpSpec.from_json(obj)
    return ThetaSeriesSpec.from_json(obj)


# ---------------------------------------------------------------------------
# coefficients and term ratios


def _expect(spec, cls: type, caller: str) -> None:
    """Refuse a spec of another class with a ValueError naming the one caller reads."""
    if not isinstance(spec, cls):
        raise ValueError(f"{caller} expects a {cls.__name__}, got a {type(spec).__name__}")


def coefficient(spec: ThetaSeriesSpec, n: int) -> FactorialValue:
    """Coefficient c_n of the series as a FactorialValue (c_0 = 1); FloatRangeError if not finite."""
    _expect(spec, ThetaSeriesSpec, "coefficient")
    return _term(_rank1(_eg_desc(spec), FactorTable(spec.nome)), n).finite("coefficient", n)


def _integer_alpha(spec: ThetaSeriesSpec) -> int | None:
    alpha = complex(spec.alpha)
    return int(alpha.real) if alpha.imag == 0 and alpha.real.is_integer() else None


def _alpha_power(spec: ThetaSeriesSpec) -> int:
    """spec's alpha as the integer power w^alpha takes; ValueError where it is not an integer."""
    if (k := _integer_alpha(spec)) is None:
        raise ValueError("term_ratio_at requires integer alpha for non-integer arguments")
    return k


def term_ratio_at(spec: ThetaSeriesSpec, w: complex, n: int | None = None) -> complex:
    """h at the multiplicative argument w (q^n continued): the columns
    ((1,), a, b) of _eg_desc(spec)'s one block read by _h_point at ratio 1
    with orders cancelled, times q^{alpha n} or w^alpha, then z (_finish);
    PoleError on a net pole, after the ValueError of a non-integer alpha,
    which only n lifts.

    Given a 1-D complex array w and no n, it reads the columns by one
    _h_rows call, non-integer alpha raising first, and finishes each point
    in turn: each point is its value alone bit for bit, or NaN where that
    call raises."""
    _expect(spec, ThetaSeriesSpec, "term_ratio_at")
    [(_, pairs)] = _eg_desc(spec).blocks
    h = (1.0 + 0j, [(e, a, b) for a, b, e in pairs])
    if n is None and getattr(w, "ndim", 0) == 1:
        k, w = _alpha_power(spec), np.asarray(w, dtype=complex)
        nan, out = complex(math.nan, math.nan), []
        rows = _h_rows([h], np.zeros(len(w), dtype=np.intp), w[:, None], spec.nome.p, cancel=True)
        for value, x in zip(rows, w.tolist()):
            try:
                out.append(nan if value is None else _finish(value, x, x**k, spec.z))
            except (OverflowError, ZeroDivisionError):
                out.append(nan)
        return np.array(out, dtype=complex)
    try:
        value = _h_point(h, (w,), spec.nome.p, cancel=True)
    except PoleError:
        if n is None:
            _alpha_power(spec)  # a non-integer alpha raises before the pole
        raise
    return _finish(value, w, spec.nome.q ** (spec.alpha * n) if n is not None else w ** _alpha_power(spec), spec.z)


def _finish(value: complex, w, power: complex, z: complex) -> complex:
    """value * power * z, the tail of term_ratio_at at w; FloatRangeError where it is not finite."""
    value = value * power * z
    if cmath.isfinite(value):
        return value
    raise FloatRangeError(f"the term ratio at w = {w} leaves the float64 range")


# ---------------------------------------------------------------------------
# evaluators


def _term(coeff_fn, n: int) -> FactorialValue:
    """coeff_fn(n), with an overflow named by its term index."""
    try:
        return coeff_fn(n)
    except OverflowError as exc:
        raise FloatRangeError(f"term {n} of the series: {exc}") from exc


def _last_index(trunc: TruncationDecl | int | None) -> int | None:
    """The last index a unilateral sum truncated at trunc sums (a
    TruncationDecl, or any integer, numpy's included), None if unbounded;
    -1 sums no term, and a smaller one raises ValueError."""
    last = trunc.N if isinstance(trunc, TruncationDecl) else None if trunc is None else operator.index(trunc)
    if last is not None and last < -1:
        raise ValueError(f"a truncation needs a last index >= -1, got {last}")
    return last


def _sum_unilateral(coeff_fn, last: int | None) -> SeriesValue:
    """Sum coeff_fn(n) for n >= 0, raising FloatRangeError at the first
    non-finite term. An explicit last index sums exactly the terms
    0..last; None stops after two successive terms below SERIES_TOL
    relative to the total, the last one's size the tail estimate, and
    raises NonConvergenceError after MAX_TERMS terms."""
    total = 0j
    small_streak = 0
    for n in range(MAX_TERMS if last is None else last + 1):
        c = _term(coeff_fn, n)
        if c.is_zero:
            # a numerator lattice zero persists in every later coefficient;
            # terms 0..n-1 were summed
            return SeriesValue(total, n, True, 0.0)
        val = c.value
        if not cmath.isfinite(val):
            raise FloatRangeError(f"term {n} of the series is not finite: {val}")
        total += val
        if last is not None:
            continue
        if abs(val) >= SERIES_TOL * max(1.0, abs(total)):
            small_streak = 0
            continue
        small_streak += 1
        if small_streak == 2:
            return SeriesValue(total, n + 1, False, abs(val))
    if last is None:
        raise NonConvergenceError(f"the series did not converge in {MAX_TERMS} terms")
    return SeriesValue(total, last + 1, True, 0.0)


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


def _log_abs(z: complex) -> float:
    return math.log(abs(z)) if z else -math.inf


@dataclass(frozen=True)
class _Multisum:
    """A multisum coefficient c(lam) = prod_{j<k} cross[j, k] * prod_j blocks[j]
    * scalar(lam) (Warnaar 2002, Rosengren 2004), written once. Each part is
    (heads, pairs) over the indices it touches, (lam_j, lam_k) or (lam_j,): a
    head (c, e) stands for theta(c q^{e.lam}) / theta(c) and a pair (a, b, e)
    for (a)_{e.lam} / (b)_{e.lam}, a side None standing for 1. Rank 1 is the
    E, G and very-well-poised coefficients (_eg_desc, _vwp_desc) and the
    closed forms (_closed).
    _LatticeTerms evaluates it at integer points and lists the theta
    arguments of its distinct parts for one batch; _lattice_h reads off
    the term ratios h_l = c(lam + e_l) / c(lam)."""

    cross: dict[tuple[int, int], tuple[tuple, tuple]]
    blocks: tuple[tuple[tuple, tuple], ...]
    scalar: Callable[[tuple[int, ...]], complex]


def _dot(e: tuple[int, ...], lams: tuple[int, ...]) -> int:
    """e.lams over a block's one index or a cross part's two; an e of
    another length raises."""
    if len(e) == 1:
        return e[0] * lams[0]
    e0, e1 = e
    return e0 * lams[0] + e1 * lams[1]


def _runs(heads: tuple, pairs: tuple) -> tuple[tuple, list]:
    """A part's heads, and its pairs as runs (e, [(a, b), ...]) of consecutive
    pairs that share the exponent vector e, in order."""
    return heads, [(e, [(a, b) for a, b, _ in run]) for e, run in itertools.groupby(pairs, operator.itemgetter(2))]


class _LatticeTerms:
    """The coefficients of a _Multisum, read through a table. A point lam has
    the parts cross (j, k, lam_j, lam_k) and block (j, lam_j); each part's
    value is built once, kept in a memo and reused at every point that
    shares it. Factors, factorials, parts and products are (finite_part,
    order) pairs; a call returns its coefficient as one FactorialValue.
    ``arguments`` lists the theta arguments of the parts of the points
    given at construction, so a ``prefetch`` of the listing holds every
    theta value a call at those points asks for, and each factorial
    prefix the parts read grows through them at its first read. A call at
    one point, listed or not, builds that coefficient alone."""

    def __init__(self, desc: _Multisum, table: FactorTable, lattice=()) -> None:
        self.scalar, self.table, self._values = desc.scalar, table, {}
        self._cross = list(itertools.combinations(range(len(desc.blocks)), 2))
        self._shapes = {slot: _runs(*part) for slot, part in desc.cross.items()}
        self._shapes.update(((j,), _runs(*block)) for j, block in enumerate(desc.blocks))
        self.points = list(lattice)

    def _value(self, key: tuple[int, ...]) -> tuple[complex, int]:
        """The part key at its indices, m = e.lam for each head and pair, as a
        (finite_part, order) pair: its heads theta(c q^m) multiplied (a c q^m
        that underflowed to 0 raises FloatRangeError), divided by each
        theta(c), a factor pair whose finite part is never 0, then times each
        quotient (a)_m / (b)_m in turn, an absent side read as 1, each step
        the complex operation and order sum FactorialValue makes."""
        table, q, half = self.table, self.table.nome.q, len(key) // 2
        factor, factorial = table.factor, table.factorial
        heads, runs = self._shapes[key[:half]]
        at = key[half:]
        try:
            tops = [factor(c * q ** _dot(e, at)) for c, e in heads]
        except ThetaDomainError as exc:  # theta takes no z = 0
            if all(c * q ** _dot(e, at) for c, e in heads):
                raise
            raise FloatRangeError("a head argument c q^m underflowed to 0 in float64") from exc
        finite, order = tops[0] if tops else (1.0 + 0j, 0)
        for top, top_order in tops[1:]:
            finite, order = finite * top, order + top_order
        for c, _ in heads:
            bottom, bottom_order = factor(c)
            finite, order = finite / bottom, order - bottom_order
        for e, pairs in runs:
            m = _dot(e, at)
            for a, b in pairs:
                top, top_order = (1.0 + 0j, 0) if a is None else factorial(a, m)
                bottom, bottom_order = (1.0 + 0j, 0) if b is None else factorial(b, m)
                if bottom == 0:
                    raise FloatRangeError(_UNDERFLOWED)
                finite, order = finite * (top / bottom), order + top_order - bottom_order
        return finite, order

    def arguments(self) -> list[complex]:
        """The theta arguments the listed points' terms evaluate past the
        table's prefixes, formed as the terms form them. Each part shape is
        listed once over the indices the points reach in it: each head at c
        q^m for every distinct m = e.lam and at c, and each run of pairs that
        shares an exponent vector e with its bases over [min e.lam, max
        e.lam] at once. Nothing is listed where forming them overflows; the
        terms raise there."""
        if not self.points:
            return []
        table, q = self.table, self.table.nome.q
        lams = list(zip(*self.points))  # lams[j]: lam_j at each point
        args = []
        try:
            for slot, (heads, runs) in self._shapes.items():
                ats = dict.fromkeys(zip(*[lams[j] for j in slot]))
                for c, e in heads:
                    args += [c * q**m for m in dict.fromkeys(_dot(e, at) for at in ats)]
                    args.append(c)
                for e, pairs in runs:
                    ms = [_dot(e, at) for at in ats]
                    bases = [base for pair in pairs for base in pair if base is not None]
                    args += table.factorial_arguments(bases, min(ms), max(ms))
        except OverflowError:
            return []
        return args

    def __call__(self, *lam: int) -> FactorialValue:
        """The coefficient at the point lam: the product over pairs j < k of
        the cross parts, then over j of the blocks, times the scalar."""
        values, finite, order = self._values, 1.0 + 0j, 0
        for j, k in self._cross:
            value = values.get(key := (j, k, lam[j], lam[k])) or values.setdefault(key, self._value(key))
            finite, order = finite * value[0], order + value[1]
        for key in enumerate(lam):
            value = values.get(key) or values.setdefault(key, self._value(key))
            finite, order = finite * value[0], order + value[1]
        return FactorialValue(finite * self.scalar(lam), order)


def _rank1(desc: _Multisum, table: FactorTable, ns: range = range(0)) -> _LatticeTerms:
    """The coefficients of a rank-1 _Multisum, its one block's pairs at the
    exponent (1,), read through table. The points listed are (n,) for the
    first MAX_TERMS of ns, up to the first index whose coefficient reads an
    argument z with |log|z|| > theta_log_range, where theta raises. log|z|
    is linear in n, so each head (c, (k,)) at c q^kn and c, and the
    extreme pair bases at the two ends of their prefixes decide an index,
    and the two ends of ns decide whether any index is out."""
    [(heads, pairs)] = desc.blocks
    if ns := ns[:MAX_TERMS]:
        bound, lq = theta_log_range(table.nome.p), _log_abs(table.nome.q)
        head_logs = [(_log_abs(c), k) for c, (k,) in heads]
        logs = [_log_abs(base) for *bases, _ in pairs for base in bases if base is not None]
        extremes = (min(logs), max(logs)) if logs else ()

        def out(n: int) -> bool:
            powers = (0, n - 1) if n > 0 else (-1, n) if n < 0 else ()
            read = [l + e * lq for l, k in head_logs for e in (0, k * n)]
            read += [l + e * lq for l in extremes for e in powers]
            return max(map(abs, read), default=0.0) > bound

        if out(ns[0]) or out(ns[-1]):
            ns = ns[: next(i for i, n in enumerate(ns) if out(n))]
    return _LatticeTerms(desc, table, [(n,) for n in ns])


def _closed(table: FactorTable, pairs, scalar: complex = 1) -> _LatticeTerms:
    """A closed form or prefactor scalar * prod (a)_m / (b)_m over the pairs
    (a, b, m), a side None standing for 1: the rank-1 _Multisum with no head
    and one block of pairs (a, b, (m,)), listed and read at the point (1,)."""
    block = ((), tuple((a, b, (m,)) for a, b, m in pairs))
    return _LatticeTerms(_Multisum({}, (block,), lambda lam: scalar), table, [(1,)])


def _vwp_desc(spec: VwpSpec) -> _Multisum:
    """The vwp coefficient: the head (t0^2, (2,)), a pair (t0 t, q t0 / t)
    per t in (t0,) + ts (unilateral) or ts (bilateral), and (q z)^n."""
    q, t0, step = spec.nome.q, spec.t0, spec.nome.q * spec.z
    ms = (t0,) + spec.ts if spec.kind == "unilateral" else spec.ts
    pairs = tuple((t0 * t, q * t0 / t, (1,)) for t in ms)
    return _Multisum({}, ((((t0 * t0, (2,)),), pairs),), lambda lam: step ** lam[0])


def _eg_desc(spec: ThetaSeriesSpec) -> _Multisum:
    """The E or G coefficient: no head, the pairs (a_i, b_i) of the numerator
    and the effective denominator in order, one side None past the shorter
    list, and q^(alpha n (n-1) / 2) z^n."""
    q, alpha, z = spec.nome.q, spec.alpha, spec.z
    pairs = tuple((a, b, (1,)) for a, b in itertools.zip_longest(spec.numerator, spec.effective_denominator()))
    return _Multisum({}, (((), pairs),), lambda lam: q ** (alpha * lam[0] * (lam[0] - 1) / 2.0) * z ** lam[0])


def _lattice_h(descs: list, l: int, q: complex) -> list[tuple[complex, list[tuple]]]:
    """h_l = c(lam + e_l) / c(lam) of each _Multisum in descs, which differ
    only in their constants, for the 1-based index l as (ratio, columns):
    h_l(xs) = ratio * prod theta(a X) / theta(b X) over the monomial
    columns (e, a, b) in order, with xs = [q^{lam_j}] and X = prod_j
    x_j^{e_j}, e over all n indices. A head (c, e) gives (e, c q^{e_l}, c),
    a pair (a, b, e) gives (e, a, b) when e_l = 1, (e, b / q, a / q) when
    e_l = -1 and nothing when e_l = 0, and ratio is scalar(e_l) /
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


def _power(x, e: int):
    """The parts of x ** e for e in (1, 2, -1), formed as x, x * x and 1 / x."""
    if e == 1:
        return x.real, x.imag
    if e == 2:
        return _mul(x.real, x.imag, x.real, x.imag)
    if e == -1:
        return _quot(1.0, 0.0, x.real, x.imag)
    raise ValueError(f"no exponent {e} in a term ratio column")


def _h_rows(hs: list[tuple], sets, points, p: complex, refs=None, cancel: bool = False) -> list:
    """h at each row r, the (ratio, columns) hs[sets[r]] at the point
    points[r], a row of coordinates, as _h_point reads it with the same
    cancel: every set shares its columns' e and their sides of None. A row
    where theta raises on an argument, or that reads a pole, is None,
    where _h_point raises; a zero is 0j.

    The rows are float64 arrays and every complex product and quotient is
    formed as CPython forms it (_mul, _quot): X = prod_j x_j^{e_j} with x^2
    = x x and x^-1 = 1 / x once per distinct e, then num = a X and den = b
    X for every column of every row. Every argument of a side that is not
    None is evaluated in one _theta_lanes pass; an exact 0 counts an order
    and reads 1 + 0j, as does a side of None. Given refs, each row r is
    paired with a reference row refs[r], a row that is its own reference,
    and evaluates only the lanes whose argument bits differ from its
    reference row's in the same lane; each other lane reads the reference
    row's value. Each row then multiplies ratio by each column's quotient
    theta(num) / theta(den), in order."""
    columns = hs[0][1]
    rows, es, xs = len(points), list(dict.fromkeys(e for e, *_ in columns)), np.asarray(points, dtype=complex).T
    present = np.array([[a is not None for _, a, _ in columns], [b is not None for *_, b in columns]])[..., None]
    # (side, column, row), an absent side held by a 1 whose lane is never evaluated
    ab = np.array([[[1 if t is None else t for t in col[1:]] for col in cols] for _, cols in hs], dtype=complex)
    ab, ratio = ab.transpose(2, 1, 0)[..., sets], np.array([r for r, _ in hs], dtype=complex)[sets]
    with np.errstate(all="ignore"):
        parts = []
        for e in es:
            out, *rest = [_power(x, k) for x, k in zip(xs, e) if k]
            for part in rest:
                out = _mul(*out, *part)
            parts.append(out)
        at = [es.index(e) for e, *_ in columns]
        xr, xi = (np.array([parts[k][side] for k in at]).reshape(len(at), rows) for side in (0, 1))
        args = np.empty(ab.shape, dtype=complex)
        args.real, args.imag = _mul(ab.real, ab.imag, xr, xi)
        own = present
        if refs is not None:
            refs = np.asarray(refs, dtype=np.intp)
            re, im = args.real.view(np.uint64), args.imag.view(np.uint64)
            own = present & ((re != re[..., refs]) | (im != im[..., refs]) | (refs == np.arange(rows)))
        if own.all():
            v, bad = (lanes.reshape(args.shape) for lanes in _theta_lanes(args.ravel(), p))
        else:
            own = np.broadcast_to(own, args.shape)
            v, bad = np.ones(args.shape, dtype=complex), np.zeros(args.shape, dtype=bool)
            v[own], bad[own] = _theta_lanes(args[own], p)
        if refs is not None:
            v, bad = np.where(own, v, v[..., refs]), np.where(own, bad, bad[..., refs])
        zeros = poles = np.zeros(rows, dtype=int)
        if (zero := v == 0).any():  # theta's exact 0j on a lattice zero: the pair (1 + 0j, 1)
            v[zero], (zeros, poles) = 1.0, zero.sum(axis=1)
        tr, ti = _quot(v.real[0], v.imag[0], v.real[1], v.imag[1])
        out = ratio.real, ratio.imag
        for column in zip(tr, ti):
            out = _mul(*out, *column)
    h = np.empty(rows, dtype=complex)
    h.real, h.imag = out
    fail, net_zero = bad.any(axis=(0, 1)) | (poles > (zeros if cancel else 0)), zeros > poles
    return [None if f else 0j if z else value for value, f, z in zip(h.tolist(), fail.tolist(), net_zero.tolist())]


def _h_point(h: tuple, xs, p: complex, cancel: bool = False) -> complex:
    """h, a (ratio, columns) of _lattice_h, _form_h or term_ratio_at, at the
    point xs: one row of _h_rows bit for bit, as it forms each X, each
    theta's (finite_part, order) pair and each quotient in the same order
    with CPython's arithmetic, which _h_rows ports (numpy scalars in xs are
    read as Python complex, as numpy's own complex arithmetic may round
    differently). A side of None reads complex(1.0, 0.0) with no theta
    call, as the float 1.0 would take another path from Python 3.14 on.
    It raises where that row has no value: as theta does on the first
    argument it fails at, or PoleError on a denominator theta of 0 (with
    cancel, term_ratio_at's convention, only on a net pole of the orders);
    a numerator theta of 0, or a net zero, makes h 0j."""
    ratio, columns = h
    value, order, factors, xs, one = ratio, 0, {}, [complex(x) for x in xs], (complex(1.0, 0.0), 0)
    for e, a, b in columns:
        if e not in factors:
            parts = (x if k == 1 else x * x if k == 2 else complex(1.0, 0.0) / x for x, k in zip(xs, e) if k)
            factors[e] = functools.reduce(operator.mul, parts)
        num, top = one if a is None else _factor_pair(theta(a * factors[e], p))
        den, bottom = one if b is None else _factor_pair(theta(b * factors[e], p))
        if bottom and not cancel:
            raise PoleError("h reads a denominator theta of 0")
        value, order = value * (num / den), order + top - bottom
    if order < 0:
        raise PoleError(f"h reads a net pole of order {-order}")
    return 0j if order else value


def _evaluate(
    spec: ThetaSeriesSpec | VwpSpec,
    trunc: TruncationDecl | int | None = None,
    window: tuple[int, int] | None = None,
) -> SeriesValue:
    """Sum the series spec describes over the extent its kind takes: a
    unilateral one (E, vwp) from n = 0 to trunc, a bilateral one (G, vwp)
    over window. The extent the other kind takes is refused, not ignored.
    A sum with a finite trunc or window evaluates its theta factors in one
    theta_many batch; an unbounded one evaluates them as it reaches them."""
    if spec.kind.startswith("bilateral"):
        if trunc is not None:
            raise ValueError("a bilateral spec is summed over its window and takes no trunc")
        if window is None:
            raise ValueError("a bilateral spec needs a finite window")
    elif window is not None:
        raise ValueError("a unilateral spec is summed to its trunc and takes no window")
    desc = _vwp_desc(spec) if isinstance(spec, VwpSpec) else _eg_desc(spec)
    table = FactorTable(spec.nome)
    last = _last_index(trunc)
    if window is None and last is None:
        return _sum_unilateral(_rank1(desc, table), None)
    terms = _rank1(desc, table, range(last + 1) if window is None else range(window[0], window[1] + 1))
    table.prefetch(terms.arguments())
    return _sum_unilateral(terms, last) if window is None else _sum_window(terms, window)


def eval_E(spec: ThetaSeriesSpec, trunc: TruncationDecl | int | None = None) -> SeriesValue:
    """Unilateral series sum_{n>=0} c_n."""
    if spec.kind != UNILATERAL_E:
        raise ValueError("eval_E expects a unilateral_E spec")
    if isinstance(trunc, TruncationDecl):
        trunc.validate(spec)
    return _evaluate(spec, trunc)


def eval_G(spec: ThetaSeriesSpec, window: tuple[int, int]) -> SeriesValue:
    """Bilateral series as a windowed partial sum over n in [n_min, n_max]."""
    if spec.kind != BILATERAL_G:
        raise ValueError("eval_G expects a bilateral_G spec")
    return _evaluate(spec, window=window)


def vwp_coefficient(spec: VwpSpec, n: int) -> FactorialValue:
    """Coefficient of the simplified very-well-poised series at index n; FloatRangeError if not finite."""
    _expect(spec, VwpSpec, "vwp_coefficient")
    return _term(_rank1(_vwp_desc(spec), FactorTable(spec.nome)), n).finite("vwp coefficient", n)


def eval_vwp(
    spec: VwpSpec,
    trunc: TruncationDecl | int | None = None,
    window: tuple[int, int] | None = None,
) -> SeriesValue:
    """Evaluate the simplified very-well-poised series (multiplicative form):
    a unilateral spec from n = 0 to trunc, a bilateral one over window."""
    _expect(spec, VwpSpec, "eval_vwp")
    return _evaluate(spec, trunc, window)


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
    from .factorials import elliptic_factor, elliptic_factorial

    r = len(us) + 4
    usum = u0 + sum(us)
    expo_step = cmath.exp(2j * math.pi * pair.sigma * (usum - (r - 7) / 2.0))
    head_den = elliptic_factor(2 * u0, pair)

    def coeff(n: int) -> FactorialValue:
        head = elliptic_factor(2 * u0 + 2 * n, pair) / head_den
        num = math.prod((elliptic_factorial(u0 + u, pair, n) for u in [u0, *us]), start=ONE)
        den = math.prod((elliptic_factorial(u0 + 1 - u, pair, n) for u in [u0, *us]), start=ONE)
        return head * (num / den) * (z**n * expo_step**n)

    return _sum_unilateral(coeff, _last_index(trunc))


# ---------------------------------------------------------------------------
# classification


@dataclass
class SeriesClass(JsonFields):
    balanced: bool
    well_poised: bool
    very_well_poised: bool
    modular_constraint: bool
    elliptic: bool


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
    window_Mp: int,
    tol: float = 1e-10,
) -> VerificationReport:
    """Finite-window reassembly of a bilateral vwp series from two
    unilateral ones: the n in [-M, M'] window of the G series equals the
    [0, M'] partial sum of the first E series plus a theta prefactor times
    the [0, M-1] partial sum of the second E series at the reflected
    argument. Both windows must be non-negative. The three sums
    and the prefactor read their theta factors through one table, filled
    by one theta_many batch."""
    if spec.kind != "bilateral":
        raise ValueError("ge_split_check expects a bilateral vwp spec")
    if window_M < 0 or window_Mp < 0:
        raise ValueError(f"ge_split_check needs non-negative windows, got M={window_M}, M'={window_Mp}")
    q = spec.nome.q
    t0, ts, z = spec.t0, spec.ts, spec.z
    _check_params([t0 * t0, *(t0 * t for t in ts)], "ge_split product")  # the prefactor divides by them
    r = len(ts) + 4
    m_prod = math.prod((t * t for t in ts), start=1.0 + 0j)
    table = FactorTable(spec.nome)
    window = _rank1(_vwp_desc(spec), table, range(-window_M, window_Mp + 1))
    first = _rank1(_vwp_desc(VwpSpec(t0, ts + (q / t0,), z, spec.nome, "unilateral")), table, range(window_Mp + 1))
    args = window.arguments() + first.arguments()
    if window_M:
        pref_num = [q * q / (t0 * t0), *(t / t0 for t in ts)]
        pref_den = [1.0 / (t0 * t0), *(q / (t0 * t) for t in ts)]
        pref = _closed(table, [(a, b, 1) for a, b in zip(pref_num, pref_den)], q ** (r - 7) / (z * m_prod))
        z2 = q ** (r - 8) / (z * m_prod)
        second = _rank1(_vwp_desc(VwpSpec(q / t0, ts + (t0,), z2, spec.nome, "unilateral")), table, range(window_M))
        args += pref.arguments() + second.arguments()
    table.prefetch(args)

    lhs = _sum_window(window, (-window_M, window_Mp)).value
    rhs = _sum_unilateral(first, window_Mp).value
    if window_M:
        rhs = rhs + pref(1).value * _sum_unilateral(second, window_M - 1).value
    return VerificationReport.compare(lhs, rhs, tol, params_echo=spec.to_json())


# ---------------------------------------------------------------------------
# independent basic (p = 0) evaluators


def _qp_factor(a: complex) -> FactorialValue:
    if abs(a - 1.0) <= LATTICE_RTOL:
        return FactorialValue(1.0 + 0j, 1)
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

        return _sum_unilateral(coeff, _last_index(trunc))
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

        return _sum_unilateral(coeff, _last_index(trunc))
    raise ValueError(f"unknown basic series kind {kind!r}")
