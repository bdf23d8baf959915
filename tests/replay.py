"""Replay an identity's description at 40 digits.

``ReplayTable`` stands in for a ``FactorTable``: it forms the same float64
theta arguments as the table does and evaluates each theta factor by its
product in mpmath at ``DPS`` digits, with order 1 exactly where float64
``theta_zero_index`` detects a lattice zero. Fed to a parameter class's
``_describe``, it gives both sides free of float64 range and rounding past
the arguments. It reads the description, so it checks the float64
arithmetic and range, not the formula.
"""

from mpmath import fprod, fsum, mp, mpc

from thetahyp.identities import _evaluate
from thetahyp.theta import theta_zero_index

DPS = 40


class ReplayTable:
    def __init__(self, nome):
        self.nome, self._p, self._factors = nome, mpc(nome.p), {}

    def factor(self, arg):
        """theta(arg; p) as an (mpc, order) pair, by its product."""
        if arg not in self._factors:
            if theta_zero_index(arg, self.nome.p) is not None:
                self._factors[arg] = (mpc(1), 1)
            else:
                z, p = mpc(arg), self._p
                self._factors[arg] = (mp.qp(z, p) * mp.qp(p / z, p), 0)
        return self._factors[arg]

    def factorial(self, t, n):
        """theta(t; p; q)_n as FactorTable.factorial forms its arguments:
        upward by arg *= q, downward as t * q**-m, inverted."""
        q, arg = self.nome.q, complex(t)
        args = [arg * q**-m for m in range(1, 1 - n)]
        for _ in range(n):
            args.append(arg)
            arg *= q
        finite, order = mpc(1), 0
        for factor, factor_order in map(self.factor, args):
            finite, order = finite * factor, order + factor_order
        return (1 / finite, -order) if n < 0 else (finite, order)


def replay_sides(params):
    """params' (lhs, rhs) at DPS digits: the sums check forms, of the terms
    _evaluate reads from params' description on a ReplayTable."""
    with mp.workdps(DPS):
        *series, closed = _evaluate(*params._describe(ReplayTable(params.nome)))
        lhs, *rest = [fsum(term.value for term in terms) for terms in series]
        return lhs, closed.value * fprod(rest)
