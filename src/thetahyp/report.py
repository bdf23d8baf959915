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


def _exact(what: str, *kinds: type):
    """The reader of a JSON `what`, called as read(value, field name): a value
    whose type is exactly one of kinds, as the first of them. The one test of
    what counts as each: a boolean is not an integer, nor a number."""

    def read(v: Any, name: str):
        if type(v) not in kinds:
            raise ValueError(f"{name} must be a JSON {what}, got {v!r}")
        return kinds[0](v)

    return read


_int_from_json = _exact("integer", int)
_str_from_json = _exact("string", str)

# Per field annotation: the writer (int, str, float, bool and dict fields
# are written as they are), and the reader, called as read(value, field name).
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
    "float": _exact("number", float, int),
    "bool": _exact("boolean", bool),
    "dict": _exact("object", dict),
}


class JsonFields:
    """JSON form of a dataclass whose fields are its JSON keys: each field is
    written and read by the codec its annotation names, under the key its
    metadata's "json" names or else its own name, and a Nome field stands
    for the "q" and "p" keys."""

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "Nome":
                out["q"], out["p"] = complex_to_json(v.q), complex_to_json(v.p)
            else:
                out[f.metadata.get("json", f.name)] = _TO_JSON[f.type](v) if f.type in _TO_JSON else v
        return out

    @classmethod
    def from_json(cls, obj: dict):
        kw = {}
        for f in fields(cls):
            if f.type == "Nome":
                kw[f.name] = Nome(complex_from_json(obj["q"], "q"), complex_from_json(obj["p"], "p"))
            else:
                key = f.metadata.get("json", f.name)
                kw[f.name] = _FROM_JSON[f.type](obj[key], key)
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
class VerificationReport(JsonFields):
    """Both-sides comparison of an identity at one parameter point."""

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool = field(metadata={"json": "pass"})
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


@dataclass
class EllipticityReport(JsonFields):
    """Outcome of one invariance check of a term ratio under a shift."""

    shift_kind: str
    max_rel_dev: float
    sample_count: int
    passed: bool = field(metadata={"json": "pass"})
