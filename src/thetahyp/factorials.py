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
scalar value; they are counted in ``zero_order`` / ``pole_order`` so that
ratios of factorials can resolve 0/inf structurally instead of dividing
by numerically tiny values.
"""

from __future__ import annotations

from collections.abc import Iterable, KeysView
from dataclasses import dataclass

from .errors import FloatRangeError, PoleError
from .theta import ModularPair, Nome, elliptic_number, elliptic_number_zero_index, theta, theta_many


# a structural zero keeps finite part 1, so a finite part of 0 has
# underflowed and a quotient by it overflows
_UNDERFLOWED = "a factorial value underflowed to 0 in float64, so its inverse overflows"


@dataclass(frozen=True)
class FactorialValue:
    """A factorial value split into a finite part and exact zero/pole orders.

    The represented quantity is ``finite_part * 0**(zero_order - pole_order)``
    read structurally: net zero order > 0 means an exact zero, net order < 0
    an exact pole, net order 0 the plain scalar ``finite_part``.
    """

    finite_part: complex
    zero_order: int = 0
    pole_order: int = 0

    @property
    def net_order(self) -> int:
        return self.zero_order - self.pole_order

    @property
    def is_zero(self) -> bool:
        return self.net_order > 0

    @property
    def is_pole(self) -> bool:
        return self.net_order < 0

    @property
    def value(self) -> complex:
        """The plain scalar; raises PoleError on a net pole."""
        net = self.zero_order - self.pole_order
        if net < 0:
            raise PoleError(f"factorial value is infinite (pole order {-net})")
        if net > 0:
            return 0j
        return self.finite_part

    def __mul__(self, other: "FactorialValue | complex") -> "FactorialValue":
        if isinstance(other, FactorialValue):
            return FactorialValue(
                self.finite_part * other.finite_part,
                self.zero_order + other.zero_order,
                self.pole_order + other.pole_order,
            )
        return FactorialValue(self.finite_part * other, self.zero_order, self.pole_order)

    __rmul__ = __mul__

    def __truediv__(self, other: "FactorialValue | complex") -> "FactorialValue":
        if isinstance(other, FactorialValue):
            if other.finite_part == 0:
                raise FloatRangeError(_UNDERFLOWED)
            return FactorialValue(
                self.finite_part / other.finite_part,
                self.zero_order + other.pole_order,
                self.pole_order + other.zero_order,
            )
        return FactorialValue(self.finite_part / other, self.zero_order, self.pole_order)

    def inverse(self) -> "FactorialValue":
        if self.finite_part == 0:
            raise FloatRangeError(_UNDERFLOWED)
        return FactorialValue(1.0 / self.finite_part, self.pole_order, self.zero_order)


ONE = FactorialValue(1.0 + 0j)


def _plain(value: complex) -> complex:
    """A theta value as FactorialValue.value reads it back: 0j on a zero."""
    return value if value != 0 else 0j


def _factor_value(value: complex) -> FactorialValue:
    """A theta value as a factor: theta returns its exact 0j on a detected
    lattice zero, so the zero flag is read from the value."""
    if value == 0:
        return FactorialValue(1.0 + 0j, zero_order=1)
    return FactorialValue(value)


def theta_factor(t: complex, p: complex) -> FactorialValue:
    """A single theta(t; p) factor with its exact-zero flag; the lattice is
    searched once per factor."""
    return _factor_value(theta(t, p))


def theta_factorial(t: complex, nome: Nome, n: int) -> FactorialValue:
    """theta(t; p; q)_n for any integer n."""
    return FactorTable(nome).factorial(t, n)


def theta_factorial_multi(ts: list[complex], nome: Nome, n: int) -> FactorialValue:
    """Product of theta_factorial over a parameter list (empty list -> 1)."""
    return FactorTable(nome).factorial_multi(ts, n)


class FactorTable:
    """Theta factors and factorial prefixes of one nome, each evaluated once.

    A sum builds one table, reads every coefficient through it and drops it
    when it returns; ``theta_factorial`` is a table used once. ``value``
    memoises the plain theta value by its exact argument, 0j on a zero, and
    ``prefetch`` fills that memo with the bit-identical values of one
    ``theta_many`` batch, so a caller that multiplies plain values builds
    no ``FactorialValue``. ``factor`` memoises ``theta_factor``, built from
    ``value``. ``factorial`` keeps two prefix lists for each base t: the
    upward ``[1, f0, f0 f1, ...]`` with ``f_m = theta_factor(t q^m)``, each
    argument the previous one times q, for n >= 0, and the downward
    ``[1, f(t/q), f(t/q) f(t/q^2), ...]``, its argument m formed as
    ``t * q**-m``, whose entry n inverted is the factorial at -n. So a
    window [-M, M'] costs M + M' factors per base, and a value read from a
    grown prefix is bit-identical to one computed afresh.
    """

    def __init__(self, nome: Nome) -> None:
        self.nome = nome
        self._values: dict[complex, complex] = {}
        self._factors: dict[complex, FactorialValue] = {}
        self._prefixes: dict[complex, tuple[list[FactorialValue], complex]] = {}
        self._downward: dict[complex, list[FactorialValue]] = {}

    def value(self, arg: complex) -> complex:
        """theta_factor(arg, p).value: theta(arg, p), or 0j on a zero."""
        value = self._values.get(arg)
        if value is None:
            value = self._values[arg] = _plain(theta(arg, self.nome.p))
        return value

    def factor(self, arg: complex) -> FactorialValue:
        """theta_factor(arg, p)."""
        factor = self._factors.get(arg)
        if factor is None:
            factor = self._factors[arg] = _factor_value(self.value(arg))
        return factor

    def prefetch(self, args: Iterable[complex]) -> None:
        """Evaluate every argument not yet in the table in one theta_many
        batch. An argument theta raises on is left out, so value and factor
        raise on it as theta_factor does."""
        missing = [arg for arg in dict.fromkeys(args) if arg not in self._values]
        for arg, value in zip(missing, theta_many(missing, self.nome.p)):
            if value is not None:
                self._values[arg] = _plain(value)

    @property
    def arguments(self) -> KeysView[complex]:
        """Every argument theta has been evaluated at, in first-use order."""
        return self._values.keys()

    def factorial(self, t: complex, n: int) -> FactorialValue:
        """theta(t; p; q)_n for any integer n; theta(t;p;q)_{-n} =
        1/theta(t q^{-n};p;q)_n = 1/(theta(t/q) theta(t/q^2) ... theta(t/q^n)),
        read from the downward prefix of t."""
        q = self.nome.q
        if n < 0:
            prefix = self._downward.setdefault(t, [ONE])
            while len(prefix) <= -n:
                prefix.append(prefix[-1] * self.factor(complex(t) * q ** -len(prefix)))
            return prefix[-n].inverse()
        prefix, arg = self._prefixes.get(t, ([ONE], complex(t)))
        while len(prefix) <= n:
            prefix.append(prefix[-1] * self.factor(arg))
            arg *= q
        self._prefixes[t] = (prefix, arg)
        return prefix[n]

    def factorial_multi(self, ts: list[complex], n: int) -> FactorialValue:
        """theta_factorial_multi(ts, nome, n)."""
        out = ONE
        for t in ts:
            out = out * self.factorial(t, n)
        return out


def elliptic_factor(u: complex, pair: ModularPair) -> FactorialValue:
    """A single elliptic number [u] with its exact-zero flag."""
    if elliptic_number_zero_index(u, pair) is not None:
        return FactorialValue(1.0 + 0j, zero_order=1)
    return FactorialValue(elliptic_number(u, pair))


def elliptic_factorial(u: complex, pair: ModularPair, n: int) -> FactorialValue:
    """[u]_n = [u][u+1]...[u+n-1]; [u]_{-n} = 1/[u-n]_n."""
    if n < 0:
        return elliptic_factorial(u + n, pair, -n).inverse()
    out = ONE
    for m in range(n):
        out = out * elliptic_factor(u + m, pair)
    return out


def elliptic_factorial_multi(us: list[complex], pair: ModularPair, n: int) -> FactorialValue:
    out = ONE
    for u in us:
        out = out * elliptic_factorial(u, pair, n)
    return out
