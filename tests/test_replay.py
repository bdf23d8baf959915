"""Identities replayed at 40 digits through their own descriptions.

Each case is the first seed-0 draw of its parameter class at the CLI's
default nome, with no resampling. The deep draws' float64 sides leave the
float64 range; the replay shows that their two sides agree all the same, so
only float64 range stops them. The shallow draws' float64 left-hand sums
match the replay.
"""

import numpy as np
import pytest

pytest.importorskip("mpmath")

from replay import replay_sides  # noqa: E402

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
