"""Elliptic shifted factorials with structural zero/pole bookkeeping.

``theta_factorial(t, nome, n)`` is the multiplicative form
``theta(t; p; q)_n = prod_{m=0}^{n-1} theta(t q^m; p)`` and
``elliptic_factorial(u, pair, n)`` its additive counterpart
``[u]_n = [u][u+1]...[u+n-1]``. Negative indices invert:
``theta(t;p;q)_{-n} = 1/theta(t q^{-n};p;q)_n`` and ``[u]_{-n} = 1/[u-n]_n``.
A ``FactorTable`` grows each base's positive factorials as one upward
prefix (arguments t, t q, t q^2, ...) and its negative ones as one
downward prefix (arguments t/q, t/q^2, ...), so each factor of a window
is evaluated once.

A finite part that underflows to 0 is never a structural zero (those
keep finite part 1 and count an order), so dividing by one, or inverting
one, raises ``FloatRangeError`` rather than ``ZeroDivisionError``.

Factors landing exactly on a lattice zero are not multiplied into the
scalar value; each adds one to the value's net ``order`` (a quotient
subtracts its divisor's) so that ratios of factorials can resolve 0/inf
structurally instead of dividing by numerically tiny values.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import FloatRangeError, PoleError
from .theta import ModularPair, Nome, _theta_list, elliptic_number_zero_index, theta, theta1


# a structural zero keeps finite part 1, so a finite part of 0 has
# underflowed and a quotient by it overflows
_UNDERFLOWED = "a factorial value underflowed to 0 in float64, so its inverse overflows"


@dataclass(slots=True, unsafe_hash=True, init=False)
class FactorialValue:
    """A factorial value split into a finite part and an exact net order.

    The represented quantity is ``finite_part * 0**order`` read
    structurally: order > 0 means an exact zero, order < 0 an exact pole,
    order 0 the plain scalar ``finite_part``. Treated as immutable but not
    frozen, since a frozen one builds about 4x slower; the dataclass gives
    it equality, hash and repr over its two fields.
    """

    finite_part: complex
    order: int

    def __init__(self, finite_part: complex, order: int = 0) -> None:
        self.finite_part = finite_part
        self.order = order

    @property
    def is_zero(self) -> bool:
        return self.order > 0

    @property
    def is_pole(self) -> bool:
        return self.order < 0

    @property
    def value(self) -> complex:
        """The plain scalar; raises PoleError on a net pole."""
        if self.order < 0:
            raise PoleError(f"factorial value is infinite (pole order {-self.order})")
        if self.order > 0:
            return 0j
        return self.finite_part

    def __mul__(self, other: "FactorialValue | complex") -> "FactorialValue":
        if isinstance(other, FactorialValue):
            return FactorialValue(self.finite_part * other.finite_part, self.order + other.order)
        return FactorialValue(self.finite_part * other, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other: "FactorialValue | complex") -> "FactorialValue":
        if isinstance(other, FactorialValue):
            if other.finite_part == 0:
                raise FloatRangeError(_UNDERFLOWED)
            return FactorialValue(self.finite_part / other.finite_part, self.order - other.order)
        return FactorialValue(self.finite_part / other, self.order)

    def inverse(self) -> "FactorialValue":
        if self.finite_part == 0:
            raise FloatRangeError(_UNDERFLOWED)
        return FactorialValue(1.0 / self.finite_part, -self.order)

    def finite(self, what: str, n: int) -> "FactorialValue":
        """self, or FloatRangeError naming what at index n if the finite part is not finite."""
        if cmath.isfinite(self.finite_part):
            return self
        raise FloatRangeError(f"{what} at index {n} leaves the float64 range")


ONE = FactorialValue(1.0 + 0j)


def _factor_pair(value: complex) -> tuple[complex, int]:
    """A theta value as a (finite_part, order) pair: theta returns its exact
    0j on a detected lattice zero, so the zero flag is read from the value."""
    return (1.0 + 0j, 1) if value == 0 else (value, 0)


def theta_factor(t: complex, p: complex) -> FactorialValue:
    """A single theta(t; p) factor with its exact-zero flag; the lattice is
    searched once per factor."""
    return FactorialValue(*_factor_pair(theta(t, p)))


def theta_factorial(t: complex, nome: Nome, n: int) -> FactorialValue:
    """theta(t; p; q)_n for any integer n; FloatRangeError if not finite."""
    return FactorialValue(*FactorTable(nome).factorial(t, n)).finite("theta_factorial", n)


def theta_factorial_multi(ts: list[complex], nome: Nome, n: int) -> FactorialValue:
    """Product of theta_factorial over a parameter list (empty list -> 1); FloatRangeError if not finite."""
    table = FactorTable(nome)
    value = math.prod((FactorialValue(*table.factorial(t, n)) for t in ts), start=ONE)
    return value.finite("theta_factorial_multi", n)


class FactorTable:
    """Theta factors and factorial prefixes of one nome, each evaluated once.

    A sum builds one table, reads every coefficient through it and drops it
    when it returns; ``theta_factorial`` is a table used once. Every value
    in it is a plain ``(finite_part, order)`` pair; a FactorialValue is
    built only where a value leaves it. ``factor`` memoises the pair of
    ``theta_factor`` by its exact argument, and ``prefetch`` fills that
    memo with the bit-identical values of one ``theta_many`` batch.
    ``factorial`` keeps two prefix lists for each base t: the upward
    ``[(1, 0), f0, f0 f1, ...]`` with ``f_m = factor(t q^m)``, each
    argument the previous one times q, for n >= 0, and the downward ``[(1,
    0), f(t/q), f(t/q) f(t/q^2), ...]``, its argument m formed as ``t *
    q**-m``, whose entry n inverted is the factorial at -n. Each entry is
    the previous one's finite part times the factor's, and the sum of
    their orders, as FactorialValue multiplies them. So a window [-M, M']
    costs M + M' factors per base, and a value read from a grown prefix is
    bit-identical to one computed afresh. A prefix that grows goes on
    through every next factor the table holds, so after a ``prefetch`` of
    what ``factorial_arguments`` listed, the first read of a base fills its
    prefix in one loop up to the listed end or the first factor theta
    raised on, and every later read is a list index.
    """

    def __init__(self, nome: Nome) -> None:
        self.nome = nome
        self._factors: dict[complex, tuple[complex, int]] = {}
        self._prefixes: dict[complex, list[tuple[complex, int]]] = {}
        self._next: dict[complex, complex] = {}  # the next upward argument of each base
        self._downward: dict[complex, list[tuple[complex, int]]] = {}

    def factor(self, arg: complex) -> tuple[complex, int]:
        """theta_factor(arg, p) as a (finite_part, order) pair."""
        factor = self._factors.get(arg)
        if factor is None:
            factor = self._factors[arg] = _factor_pair(theta(arg, self.nome.p))
        return factor

    def prefetch(self, args: Iterable[complex], distance: float | None = None) -> bool:
        """Evaluate every argument not yet in the table in one theta_many
        batch (_theta_list) and return True. An argument theta raises on is
        left out, so factor raises on it as theta_factor does. Given a
        distance, return False, having evaluated nothing, where it refuses."""
        missing = [arg for arg in dict.fromkeys(args) if arg not in self._factors]
        values = _theta_list(missing, self.nome.p, distance)
        for arg, value in zip(missing, values or ()):
            if value is not None:
                self._factors[arg] = _factor_pair(value)
        return values is not None

    def factorial_arguments(self, ts: list[complex], lo: int, hi: int) -> list[complex]:
        """For each base t in ts, the arguments factorial(t, n) evaluates for
        lo <= n <= hi past t's prefixes as they stand, in order and formed as
        factorial forms them."""
        q, args = self.nome.q, []
        for t in ts:
            if lo < 0:
                args += [complex(t) * q ** -m for m in range(len(self._downward.get(t, ())) or 1, 1 - lo)]
            if hi > 0:
                arg = self._next.get(t, complex(t))
                for _ in range(len(self._prefixes.get(t, ())) or 1, hi + 1):
                    args.append(arg)
                    arg *= q
        return args

    def _grow(self, t: complex, n: int) -> None:
        """Grow t's prefix to entry n (downward to -n for n < 0), each factor
        by factor(argument), and on through every next factor the table
        holds; a next downward argument whose power of q fails is not held."""
        q, held = self.nome.q, self._factors
        if n < 0:
            prefix = self._downward.setdefault(t, [(1.0 + 0j, 0)])
            finite, order = prefix[-1]
            try:
                while factor := held.get(arg := complex(t) * q ** -len(prefix)) or (
                    len(prefix) <= -n and self.factor(arg)
                ):
                    finite, order = finite * factor[0], order + factor[1]
                    prefix.append((finite, order))
            except (OverflowError, ZeroDivisionError):
                if len(prefix) <= -n:
                    raise
            return
        prefix, arg = self._prefixes.setdefault(t, [(1.0 + 0j, 0)]), self._next.get(t, complex(t))
        finite, order = prefix[-1]
        while factor := held.get(arg) or (len(prefix) <= n and self.factor(arg)):
            finite, order = finite * factor[0], order + factor[1]
            prefix.append((finite, order))
            arg = self._next[t] = arg * q

    def factorial(self, t: complex, n: int) -> tuple[complex, int]:
        """theta(t; p; q)_n for any integer n as a (finite_part, order) pair;
        theta(t;p;q)_{-n} = 1/theta(t q^{-n};p;q)_n = 1/(theta(t/q)
        theta(t/q^2) ... theta(t/q^n)), read from the downward prefix of t
        and inverted as FactorialValue.inverse inverts it."""
        if n >= 0:
            if len(prefix := self._prefixes.get(t, ())) <= n:
                self._grow(t, n)
                prefix = self._prefixes[t]
            return prefix[n]
        if len(prefix := self._downward.get(t, ())) <= -n:
            self._grow(t, n)
            prefix = self._downward[t]
        finite, order = prefix[-n]
        if finite == 0:
            raise FloatRangeError(_UNDERFLOWED)
        return 1.0 / finite, -order


def elliptic_factor(u: complex, pair: ModularPair) -> FactorialValue:
    """A single elliptic number [u] with its exact-zero flag, by theta1's
    series and not through theta(z; p) as elliptic_number: it is what
    eval_vwp_additive, the oracle of the multiplicative form, reads."""
    if elliptic_number_zero_index(u, pair) is not None:
        return FactorialValue(1.0 + 0j, 1)
    return FactorialValue(theta1(u, pair))


def elliptic_factorial(u: complex, pair: ModularPair, n: int) -> FactorialValue:
    """[u]_n = [u][u+1]...[u+n-1]; [u]_{-n} = 1/[u-n]_n."""
    if n < 0:
        return elliptic_factorial(u + n, pair, -n).inverse()
    out = ONE
    for m in range(n):
        out = out * elliptic_factor(u + m, pair)
    return out
