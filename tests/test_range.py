"""Every public reader of a term ratio, coefficient or factorial gives a
finite value or raises a typed error from thetahyp.errors, across the
float64 edge: |w| from 1e-22 to 1e22, Im x out to 300 and indices out to
60. The inputs are fixed by one seed."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from thetahyp import (
    FactorialValue,
    HForm,
    ModularPair,
    Nome,
    ThetaSeriesSpec,
    VwpSpec,
    coefficient,
    elliptic_factorial,
    errors,
    h_eval,
    multipliers,
    sample_multi1,
    sample_multi2,
    term_ratio_at,
    theta_factorial,
    theta_factorial_multi,
    vwp_canonical_h,
    vwp_coefficient,
)
from thetahyp.ellipticity import multi1_h, multi2_h
from thetahyp.theta import TWO_PI_I, elliptic_number_zero_index, theta_zero_index

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)
PAIR = ModularPair(0.04 + 0.3j, 0.08 + 0.45j)
CALLS = 300

# the balanced E spec of the CI ellipticity step and its balanced G spec
E_SPEC = ThetaSeriesSpec(
    "unilateral_E", (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j), (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j),
    0, 0.4 + 0j, NOME,
)
G_SPEC = ThetaSeriesSpec("bilateral_G", (0.6 + 0.2j, -0.45 + 0.5j), (0.7 - 0.1j, -0.56 + 0.22j), 0, 0.5 + 0.1j, NOME)
FORM = HForm((0.1, 0.12, 0.13, 0.14), (0.2, 0.21, 0.22, 0.23), 0j, 0.5, PAIR)
VWP = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j, 0.5 - 0.3j), 0.3 - 0.1j, NOME)


def _w(rng):
    """|w| log-uniform on [1e-22, 1e22], arg w uniform."""
    return 10 ** rng.uniform(-22, 22) * cmath.exp(2j * math.pi * rng.uniform())


def _x(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(-300, 300))


def _n(rng, low, high):
    return int(rng.integers(low, high + 1))


MULTI1, MULTI2 = sample_multi1(0, 2, 2, NOME), sample_multi2(0, 2, (2, 2), NOME)
READERS = {
    "term_ratio_at E": lambda rng: term_ratio_at(E_SPEC, _w(rng)),
    "term_ratio_at G": lambda rng: term_ratio_at(G_SPEC, _w(rng)),
    "h_eval": lambda rng: h_eval(FORM, _x(rng)),
    "vwp_canonical_h": lambda rng: vwp_canonical_h(0.1 + 0.02j, [0.2 - 0.05j, 0.15 + 0.1j], 0.6 + 0.3j, PAIR, _x(rng)),
    "coefficient": lambda rng: coefficient(E_SPEC, _n(rng, 0, 60)),
    "vwp_coefficient": lambda rng: vwp_coefficient(VWP, _n(rng, 0, 60)),
    "theta_factorial": lambda rng: theta_factorial(_w(rng), NOME, _n(rng, -40, 40)),
    "theta_factorial_multi": lambda rng: theta_factorial_multi([_w(rng), _w(rng)], NOME, _n(rng, -40, 40)),
    "multi1_h": lambda rng: multi1_h(MULTI1, _n(rng, 1, 2), [_w(rng), _w(rng)]),
    "multi2_h": lambda rng: multi2_h(MULTI2, _n(rng, 1, 2), [_w(rng), _w(rng)]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_gives_a_finite_value_or_a_typed_error(reader):
    rng = np.random.default_rng(0)
    call, typed, bad = READERS[reader], 0, []
    for _ in range(CALLS):
        try:
            value = call(rng)
        except Exception as exc:  # the class is what is checked
            assert type(exc).__module__ == errors.__name__, f"{reader}: {type(exc).__name__}: {exc}"
            typed += 1
            continue
        if isinstance(value, FactorialValue):
            value = value.finite_part
        if not cmath.isfinite(value):
            bad.append(value)
    assert not bad, f"{reader}: {len(bad)} of {CALLS} calls not finite, first {bad[0]}"
    assert typed < CALLS


# single values past the float64 edge: each raises FloatRangeError, not a
# bare OverflowError, and multipliers at beta = 1e6j does not return the
# (0j, 0j, 0j) of an underflow
EDGES = {
    "coefficient alpha -8 n 14": lambda: coefficient(dataclasses.replace(E_SPEC, alpha=-8), 14),
    "elliptic_factorial -1e6j": lambda: elliptic_factorial(-1e6j, PAIR, 2),
    "multipliers u 1e6j": lambda: multipliers(HForm((1e6j,), (0.2,), 0j, 1.0, PAIR)),
    "multipliers beta 1e6j": lambda: multipliers(HForm((0.1,), (0.2,), 1e6j, 1.0, PAIR)),
    # the head argument t0^2 q^(2n) underflows to 0, where theta takes no z
    "vwp_coefficient n 1000": lambda: vwp_coefficient(VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3, NOME), 1000),
    "vwp_coefficient n 10**6": lambda: vwp_coefficient(VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3, NOME), 10**6),
}


@pytest.mark.parametrize("call", sorted(EDGES))
def test_a_value_past_the_float64_edge_raises_float_range_error(call):
    with pytest.raises(errors.FloatRangeError):
        EDGES[call]()


def test_zero_index_of_an_argument_whose_abs_overflows_is_none():
    # both parts are finite but abs(z) overflows; theta_zero_index raised a
    # bare OverflowError from its logarithm, and so did
    # elliptic_number_zero_index at the u with q^u = z
    z = 1.7e308 * (1 + 1j)
    u = cmath.log(z) / (TWO_PI_I * PAIR.sigma)
    assert theta_zero_index(z, NOME.p) is None
    assert theta_zero_index(z, 0j) is None
    assert elliptic_number_zero_index(u, PAIR) is None
