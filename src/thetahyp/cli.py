"""JSON batch driver.

Subcommands: eval, verify, ellipticity, sample. Input and output files are
UTF-8 JSON; complex scalars are [re, im] pairs. Exit codes: 0 all checks
passed, 1 at least one numeric failure, 2 input/contract error (a
diagnostic object is still written/printed on exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .errors import FloatRangeError, NonConvergenceError, PoleError
from .report import EllipticityReport, _int_from_json
from .theta import Nome
from .series import VwpSpec, _evaluate, ge_split_check, spec_from_json, term_ratio_at
from .identities import (
    DEFAULT_BAND,
    BaileyParams,
    FTParams,
    Multi1Params,
    Multi2Params,
    _sample,
    _verify,
)
from .ellipticity import check_ellipticity

DEFAULT_NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)

# Per target: its parameter class and the draw arguments before nome and
# band, read from the flags. _sample returns a draw with the sides its table
# admitted, so the sampled path checks those sides; the file path builds them
# through _verify on the same kind of table.
_TARGETS = {
    "ft_sum": (FTParams, lambda a: (a.N,)),
    "bailey": (BaileyParams, lambda a: (a.N,)),
    "multi1": (Multi1Params, lambda a: (a.n, a.N)),
    "multi2": (Multi2Params, lambda a: (a.n, (a.N,) * a.n)),
}


class InputError(Exception):
    """Contract violation in a CLI input file or flag combination."""


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc


def _write_output(obj: dict, out_path: str | None) -> None:
    """Write obj as strict JSON: a NaN or infinite number is refused, before
    anything is written, rather than written as a NaN or Infinity token."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatRangeError(f"the output holds a NaN or infinite number ({exc})") from exc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_nome(flag: str | None) -> Nome:
    if flag is None:
        return DEFAULT_NOME
    parts = flag.split(",")
    if len(parts) != 4:
        raise InputError("--nome expects q_re,q_im,p_re,p_im")
    try:
        vals = [float(x) for x in parts]
    except ValueError as exc:
        raise InputError(f"--nome expects four reals: {exc}") from exc
    return Nome(complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def _parse_band(flag: str | None) -> tuple[float, float]:
    if flag is None:
        return DEFAULT_BAND
    parts = flag.split(",")
    if len(parts) != 2:
        raise InputError("--band expects lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InputError(f"--band expects two reals: {exc}") from exc
    if not (0.0 < lo < hi < 1.0):
        raise InputError("--band expects 0 < lo < hi < 1")
    return lo, hi


def _sample_draws(target: str, args: argparse.Namespace) -> list:
    """(params, sides) of the --draws draws from --seed on."""
    nome = _parse_nome(args.nome)
    band = _parse_band(args.band)
    cls, shape = _TARGETS[target]
    try:
        return [_sample(cls, args.seed + i, *shape(args), nome, band) for i in range(args.draws)]
    except RuntimeError as exc:
        raise InputError(str(exc)) from exc


def _write_reports(reports: list, out_path: str | None, **head) -> int:
    """Write the reports with their summary; exit code 0 iff all passed.
    An input with nothing to check is refused rather than passed."""
    if not reports:
        raise InputError("the input holds nothing to check")
    n_fail = sum(1 for r in reports if not r.passed)
    payload = {
        **head,
        "reports": [r.to_json() for r in reports],
        "summary": {"total": len(reports), "failed": n_fail, "pass": n_fail == 0},
    }
    _write_output(payload, out_path)
    return 0 if n_fail == 0 else 1


def _entries(obj: Any, key: str, what: str) -> list[dict]:
    """obj's `key` list, obj itself when it is an array, or [obj]; a single
    object under `key` counts as a one-entry list. Non-objects are refused."""
    if isinstance(obj, dict) and key in obj:
        obj = obj[key]
    entries = obj if isinstance(obj, list) else [obj]
    if not all(isinstance(e, dict) for e in entries):
        raise InputError(f"{key} must be an object or an array of {what} objects")
    return entries


def _decode(from_json, obj: Any, what: str):
    """from_json(obj), a malformed object refused as an InputError naming what."""
    try:
        return from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid {what}: {exc}") from exc


def _int_pair(value: Any, what: str) -> tuple[int, int]:
    """value as a pair of JSON integers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise InputError(f"{what} must be two integers, got {value!r}")
    return _int_from_json(value[0], what), _int_from_json(value[1], what)


def run_eval(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise InputError("eval input must be a JSON object")
    trunc = obj.pop("trunc", None)
    window = obj.pop("window", None)
    if trunc is not None and _int_from_json(trunc, "trunc") < 0:
        raise InputError(f"trunc must be a non-negative integer, got {trunc!r}")
    spec = _decode(spec_from_json, obj, "series spec")
    sv = _evaluate(spec, trunc, None if window is None else _int_pair(window, "window"))
    _write_output(sv.to_json(), args.out)
    return 0


def _file_params(args: argparse.Namespace) -> list:
    """Parameter sets from the input file."""
    target = args.target
    cls = _TARGETS[target][0]
    entries = _entries(_load_json(args.input), "params", "parameter")
    return [_decode(cls.from_json, e, f"{target} parameters") for e in entries]


def run_verify(args: argparse.Namespace) -> int:
    """Verify the input file's parameter sets, or the sampled draws; a draw
    is checked on the sides its sampler already built and admitted."""
    target = args.target
    if target == "ge_split":
        return _run_verify_ge_split(args)
    if args.input is not None:
        reports = [_verify(p, args.tol) for p in _file_params(args)]
    else:
        try:
            draws = _sample_draws(target, args)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        reports = [p.check(sides, args.tol) for p, sides in draws]
    return _write_reports(reports, args.out, target=target)


def _run_verify_ge_split(args: argparse.Namespace) -> int:
    if args.input is None:
        raise InputError("ge_split verification needs an input file with bilateral specs")
    reports = []
    for e in _entries(_load_json(args.input), "specs", "spec"):
        windows = _int_pair(e.get("windows", [2, 2]), "ge_split windows [M, M']")
        spec = _decode(VwpSpec.from_json, e["spec"] if "spec" in e else e, "ge_split spec")
        reports.append(ge_split_check(spec, *windows, tol=args.tol))
    return _write_reports(reports, args.out, target="ge_split")


def run_ellipticity(args: argparse.Namespace) -> int:
    reports: list[EllipticityReport] = []
    for e in _entries(_load_json(args.input), "specs", "spec"):
        spec = _decode(spec_from_json, e, "series spec")
        report = check_ellipticity(
            lambda w, s=spec: term_ratio_at(s, w),
            spec.nome,
            samples=args.draws,
            tol=args.tol,
            seed=args.seed,
        )
        reports.append(report)
    return _write_reports(reports, args.out)


def run_sample(args: argparse.Namespace) -> int:
    target = args.target
    payload = {
        "target": target,
        "seed": args.seed,
        "params": [p.to_json() for p, _ in _sample_draws(target, args)],
    }
    _write_output(payload, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(prog="thetahyp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "tol": dict(type=float, default=1e-8),
        "seed": dict(type=int, default=0),
        "draws": dict(type=int, default=10),
        "out": dict(default=None),
        "band": dict(default=None, help="sampler modulus band lo,hi"),
        "nome": dict(default=None, help="q_re,q_im,p_re,p_im"),
        "n": dict(type=int, default=2, help="rank of the multivariable families"),
        "N": dict(type=int, default=2, help="truncation depth"),
    }

    def add(name: str, summary: str, func, reads: list[str]) -> argparse.ArgumentParser:
        """A subcommand with only the flags its run function reads."""
        p = sub.add_parser(name, help=summary)
        for flag in reads:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(func=func)
        return p

    p_eval = add("eval", "evaluate one series spec", run_eval, ["out"])
    p_eval.add_argument("input")

    p_verify = add("verify", "verify an identity on explicit or sampled parameters", run_verify, list(flags))
    p_verify.add_argument("target", choices=[*_TARGETS, "ge_split"])
    p_verify.add_argument("input", nargs="?", default=None)

    p_ell = add("ellipticity", "index-shift invariance of a series term ratio", run_ellipticity,
                ["tol", "seed", "draws", "out"])
    p_ell.add_argument("input")

    p_sample = add("sample", "draw admissible identity parameters", run_sample, [f for f in flags if f != "tol"])
    p_sample.add_argument("target", choices=list(_TARGETS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    if hasattr(args, "tol") and not (0.0 < args.tol < 1.0):
        _emit_diagnostic("tolerance must lie in (0, 1)", args)
        return 2
    if hasattr(args, "draws") and args.draws < 1:
        _emit_diagnostic("--draws must be >= 1", args)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        _emit_diagnostic(str(exc), args)
        return 2
    # ThetaDomainError and BranchError are ValueErrors; an OSError is an
    # --out that cannot be written, so the diagnostic goes to stderr
    except (PoleError, NonConvergenceError, OverflowError, ValueError, KeyError, OSError) as exc:
        _emit_diagnostic(f"{type(exc).__name__}: {exc}", args)
        return 2


def _emit_diagnostic(message: str, args: argparse.Namespace) -> None:
    diag = {"error": message, "command": getattr(args, "command", None)}
    out = getattr(args, "out", None)
    try:
        _write_output(diag, out)
    except OSError:
        sys.stderr.write(json.dumps(diag) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
