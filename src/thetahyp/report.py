"""Verification report types and the JSON codec shared by series/identities/cli.

All JSON surfaces serialize a complex scalar as a two-element array
``[re, im]``, a nome as its ``"q"`` and ``"p"`` keys, and an integer as a
JSON integer: floats, booleans and strings are not read as integers, and
booleans are not read as numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields
from typing import Any

from .errors import FloatRangeError
from .theta import Nome


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v: Any, name: str = "value") -> complex:
    """A number or an [re, im] pair of numbers as a complex; booleans are not
    numbers. The error names the field, name."""
    pair = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
        raise ValueError(f"{name}: expected [re, im] pair, got {v!r}")
    return complex(float(pair[0]), float(pair[1]))


def _int_from_json(v: Any, name: str) -> int:
    """v when it is a JSON integer; the one test of what counts as one."""
    if type(v) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {v!r}")
    return v


def _str_from_json(v: Any, name: str) -> str:
    if type(v) is not str:
        raise ValueError(f"{name} must be a JSON string, got {v!r}")
    return v


# Per field annotation: the writer (int, str, float and bool fields are
# written as they are), and the reader, called as read(value, field name).
_TO_JSON = {
    "complex": complex_to_json,
    "tuple[complex, ...]": lambda v: [complex_to_json(x) for x in v],
    "tuple[int, ...]": list,
}
_FROM_JSON = {
    "complex": complex_from_json,
    "tuple[complex, ...]": lambda v, name: tuple(complex_from_json(x, f"{name}[{i}]") for i, x in enumerate(v)),
    "int": _int_from_json,
    "tuple[int, ...]": lambda v, name: tuple(_int_from_json(x, name) for x in v),
    "str": _str_from_json,
}


class JsonFields:
    """JSON form of a dataclass whose fields are its JSON keys: each field is
    written and read by the codec its annotation names, and a Nome field
    stands for the "q" and "p" keys."""

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "Nome":
                out["q"], out["p"] = complex_to_json(v.q), complex_to_json(v.p)
            else:
                out[f.name] = _TO_JSON[f.type](v) if f.type in _TO_JSON else v
        return out

    @classmethod
    def from_json(cls, obj: dict):
        kw = {}
        for f in fields(cls):
            if f.type == "Nome":
                kw[f.name] = Nome(complex_from_json(obj["q"], "q"), complex_from_json(obj["p"], "p"))
            else:
                kw[f.name] = _FROM_JSON[f.type](obj[f.name], f.name)
        return cls(**kw)


def rel_err(lhs: complex, rhs: complex) -> float:
    """Relative error |lhs - rhs| / |rhs|, falling back to absolute error
    when the reference is numerically zero."""
    a = abs(lhs - rhs)
    scale = abs(rhs)
    if scale < 1e-20:
        return a
    return a / scale


@dataclass
class VerificationReport:
    """Both-sides comparison of an identity at one parameter point."""

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    params_echo: dict = field(default_factory=dict)
    terms_summed: int = 0

    @classmethod
    def compare(
        cls,
        lhs: complex,
        rhs: complex,
        tol: float,
        params_echo: dict | None = None,
        terms_summed: int = 0,
    ) -> "VerificationReport":
        for name, side in (("lhs", lhs), ("rhs", rhs)):
            if not cmath.isfinite(side):
                raise FloatRangeError(f"{name} is not finite: {side}")
        r = rel_err(lhs, rhs)
        return cls(
            lhs=complex(lhs),
            rhs=complex(rhs),
            abs_err=abs(lhs - rhs),
            rel_err=r,
            passed=r <= tol,
            params_echo=params_echo or {},
            terms_summed=terms_summed,
        )

    def to_json(self) -> dict:
        return {
            "lhs": complex_to_json(self.lhs),
            "rhs": complex_to_json(self.rhs),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
            "params_echo": self.params_echo,
            "terms_summed": self.terms_summed,
        }


@dataclass
class EllipticityReport:
    """Outcome of one invariance check of a term ratio under a shift."""

    shift_kind: str
    max_rel_dev: float
    sample_count: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "shift_kind": self.shift_kind,
            "max_rel_dev": self.max_rel_dev,
            "sample_count": self.sample_count,
            "pass": self.passed,
        }
