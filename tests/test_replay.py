"""Identities replayed at 40 digits through their own descriptions.

Each case is the first seed-0 draw of its parameter class at the CLI's
default nome, with no resampling. The deep draws' float64 sides leave the
float64 range; the replay shows that their two sides agree all the same, so
only float64 range stops them. The shallow draws' float64 left-hand sums
match the replay. The steep E series of CI's steep.json is replayed term by
term: there the true terms leave the float64 range where float64 stops.
"""

import sys

import numpy as np
import pytest

pytest.importorskip("mpmath")

from mpmath import fprod, mp, mpc  # noqa: E402
from replay import ReplayTable, replay_sides  # noqa: E402

from thetahyp import ThetaSeriesSpec, coefficient  # noqa: E402
from thetahyp.cli import DEFAULT_NOME  # noqa: E402
from thetahyp.factorials import FactorTable  # noqa: E402
from thetahyp.identities import DEFAULT_BAND, BaileyParams, FTParams, Multi2Params  # noqa: E402

RTOL = 1e-12


def _draw(cls, *shape):
    return cls.draw(np.random.default_rng(0), *shape, DEFAULT_NOME, DEFAULT_BAND)


def _rel(got, want):
    return float(abs(got - want) / abs(want))


@pytest.mark.parametrize(
    "cls, shape",
    [(FTParams, (12,)), (BaileyParams, (12,)), (Multi2Params, (3, (5, 5, 5)))],
    ids=["ft_12", "bailey_12", "multi2_3_5"],
)
def test_deep_draws_sides_agree_at_40_digits(cls, shape):
    lhs, rhs = replay_sides(_draw(cls, *shape))
    assert _rel(lhs, rhs) <= RTOL


@pytest.mark.parametrize(
    "cls, shape", [(FTParams, (6,)), (Multi2Params, (3, (3, 3, 3)))], ids=["ft_6", "multi2_3_3"]
)
def test_shallow_draws_float64_lhs_matches_the_replay(cls, shape):
    params = _draw(cls, *shape)
    terms, *_ = params.sides(FactorTable(params.nome))
    lhs, _ = replay_sides(params)
    assert _rel(sum(term.value for term in terms), lhs) <= RTOL


def test_the_steep_series_true_terms_leave_the_float64_range_at_14():
    # the balanced spec of CI's steep.json, at alpha = -8: float64 stops its
    # sum at term 14, and at 40 digits c_13 is float64's and |c_14| is past
    # the float64 range, so the stop is the series' own
    num, den = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j), (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j)
    spec = ThetaSeriesSpec("unilateral_E", num, den, -8, 0.4 + 0j, DEFAULT_NOME)
    table, q = ReplayTable(DEFAULT_NOME), DEFAULT_NOME.q
    with mp.workdps(40):

        def c(n):
            top = fprod(table.factorial(a, n)[0] for a in num)
            return top / fprod(table.factorial(b, n)[0] for b in (q, *den)) * mpc(q) ** (-4 * n * (n - 1)) * 0.4**n

        assert _rel(coefficient(spec, 13).value, c(13)) <= RTOL
        assert abs(c(14)) > sys.float_info.max
