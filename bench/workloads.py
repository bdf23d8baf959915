"""Seeded job lists for the three benchmark workloads.

A job is one unit of user work: ``call`` is the timed part and returns the
program's raw output; ``check`` reads that output, untimed, and classifies
the job. Every job list is a pure function of the workload seed. Library
functions are looked up on their module at call time, so the tracer's
rebinding reaches every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import thetahyp as th

cli = importlib.import_module("thetahyp.cli")

NOME = th.Nome(0.35 + 0.1j, 0.25 + 0.05j)  # the CLI's default nome
PAIR = th.ModularPair(0.04 + 0.3j, 0.08 + 0.45j)
S_PAIR = th.ModularPair(-0.2 + 0.3j, 0.1 + 0.6j)

VERIFY_TOL = 1e-8  # the CLI default
MULTI_TOL = 1e-7  # the verify_multi* default
ELLIPTIC_TOL = 1e-9  # the check_* defaults
MODULAR_TOL = 1e-8


@dataclass(frozen=True)
class Outcome:
    """A job's result. ``passed`` follows the failure rule: an exception, a
    CLI exit code other than 0, a non-finite error or a false verdict fails
    the job. ``consistent`` is false when the program's verdict contradicts
    its own numbers (a pass with a non-finite or out-of-tolerance error, or
    an exit code that disagrees with the report)."""

    err: float
    passed: bool
    consistent: bool = True
    error: str = ""


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    """``build`` gives the timed jobs, on which nothing fails today.
    ``defects`` gives jobs that hit a known defect; they run once, untimed,
    after the timed passes, and their failures are printed, not counted."""

    why: str
    build: Callable[[int, Path], list[Job]]
    defects: Callable[[int, Path], list[Job]] | None = None


def _verdict(err: float, claimed: bool, tol: float) -> Outcome:
    finite = math.isfinite(err)
    return Outcome(err, claimed and finite, consistent=not claimed or (finite and err <= tol))


def _worst(errs: list[float]) -> float:
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


def _annulus_draw(rng: random.Random) -> complex:
    while True:
        w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if 0.5 <= abs(w) <= 0.9:
            return w


# ---------------------------------------------------------------------------
# vwp-depth: the CLI in process, single-variable series at growing depth

VWP_SETS = 6
VWP_DEPTHS = (4, 5, 6)  # the depths the tests cover; deeper sums overflow to NaN today
DEFECT_DEPTHS = (8, 12)
GE_WINDOWS = (2, 4, 6, 8)  # at M=10 the coefficients underflow to 0 today
# Copies per set. They put the median job in the middle of the ft_sum N=6
# class and the 90th percentile in the ge_split M=8 class, so neither
# quantile sits on a boundary between classes.
FT_PER_SET = 2
GE_SPECS_PER_WINDOW = 2


def _cli_job(kind: str, argv: list[str], out: Path) -> Job:
    def check(rc: int) -> Outcome:
        if not out.exists():
            return Outcome(math.nan, False, error=f"exit {rc} without a report")
        payload = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if rc == 2 or "reports" not in payload:
            return Outcome(math.nan, False, error=str(payload.get("error", f"exit {rc}")))
        reports = payload["reports"]
        err = _worst([float(r["rel_err"]) for r in reports])
        claimed = all(r["pass"] for r in reports)
        verdict = _verdict(err, claimed and rc == 0, VERIFY_TOL)
        agrees = (rc == 0) == payload["summary"]["pass"] == claimed
        return Outcome(verdict.err, verdict.passed, verdict.consistent and agrees)

    return Job(kind, lambda: cli.main(argv), check)


def _sum_job(rng: random.Random, target: str, N: int, out: Path) -> Job:
    argv = ["verify", target, "--N", str(N), "--seed", str(rng.randrange(2**31)),
            "--draws", "1", "--tol", str(VERIFY_TOL), "--out", str(out)]
    return _cli_job(f"{target} N={N}", argv, out)


def build_vwp_depth(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"vwp-depth/{seed}")
    out = workdir / "report.json"
    jobs = []
    for s in range(VWP_SETS):
        for N in VWP_DEPTHS:
            jobs += [_sum_job(rng, "ft_sum", N, out) for _ in range(FT_PER_SET)]
            jobs.append(_sum_job(rng, "bailey", N, out))
        for M in GE_WINDOWS:
            for k in range(GE_SPECS_PER_WINDOW):
                spec = th.VwpSpec(_annulus_draw(rng), tuple(_annulus_draw(rng) for _ in range(4)),
                                  _annulus_draw(rng), NOME, "bilateral")
                entry = spec.to_json()
                entry["windows"] = [M, M]
                path = workdir / f"ge_split_{s}_{M}_{k}.json"
                path.write_text(json.dumps({"specs": [entry]}), encoding="utf-8")
                argv = ["verify", "ge_split", str(path), "--tol", str(VERIFY_TOL), "--out", str(out)]
                jobs.append(_cli_job(f"ge_split M={M}", argv, out))
    return jobs


def defects_vwp_depth(seed: int, workdir: Path) -> list[Job]:
    """The 10E9 and 12E11 sums past the depths that work: NaN today."""
    rng = random.Random(f"vwp-depth-defects/{seed}")
    out = workdir / "defect.json"
    return [_sum_job(rng, target, N, out) for target in ("ft_sum", "bailey") for N in DEFECT_DEPTHS]


# ---------------------------------------------------------------------------
# lattice-sum: the multisum verifiers on parameters sampled in set-up

LATTICE_SETS = 3
LATTICE_MULTI1 = ((2, 4), (3, 3))
# n=4 runs at N=2: at N=3 some seeds give NaN today, and at n=3 so do N=4 and N=5.
LATTICE_MULTI2 = ((3, 3), (4, 2))
# Two of each multi2 per set put the median job in the middle of the
# multi2 (3,3) class and the 90th percentile in the multi2 (4,2) class.
MULTI2_PER_SET = 2
DEFECT_MULTI2 = (3, 5)


def _report_check(report) -> Outcome:
    return _verdict(report.rel_err, report.passed, MULTI_TOL)


def _multi1_job(rng: random.Random, n: int, N: int) -> Job:
    params = th.sample_multi1(rng.randrange(2**31), n, N, NOME)
    return Job(f"multi1 n={n} N={N}", lambda p=params: th.verify_multi1(p, tol=MULTI_TOL), _report_check)


def _multi2_job(rng: random.Random, n: int, N: int) -> Job:
    params = th.sample_multi2(rng.randrange(2**31), n, (N,) * n, NOME)
    return Job(f"multi2 n={n} N={N}", lambda p=params: th.verify_multi2(p, tol=MULTI_TOL), _report_check)


def build_lattice_sum(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"lattice-sum/{seed}")
    jobs = []
    for _ in range(LATTICE_SETS):
        jobs += [_multi1_job(rng, n, N) for n, N in LATTICE_MULTI1]
        jobs += [_multi2_job(rng, n, N) for n, N in LATTICE_MULTI2 for _ in range(MULTI2_PER_SET)]
    return jobs


def defects_lattice_sum(seed: int, workdir: Path) -> list[Job]:
    """multi2 at n=3, N=5: its closed-form side overflows to NaN today."""
    return [_multi2_job(random.Random(f"lattice-sum-defects/{seed}"), *DEFECT_MULTI2)]


# ---------------------------------------------------------------------------
# term-ratio: ellipticity and modularity checks on inputs built in set-up

TERM_SETS = 6
TERM_RANKS = (2, 3)
TERM_SAMPLER_N = 2
# Copies per set of the cheap checks. With one of each of the four slower
# multivariable checks they put the median job in the middle of the
# ellipticity-E class and the 90th percentile in the middle of the
# multi1 n=3 class, so neither quantile sits on a boundary between classes.
MODULAR_PER_SET = 5
ELLIPTIC_PER_SET = 5
WP_PER_SET = 1


def _reports_check(reports, tol: float) -> Outcome:
    return _verdict(_worst([r.max_rel_dev for r in reports]), all(r.passed for r in reports), tol)


def _modular_check(result) -> Outcome:
    structural, report = result
    return _verdict(report.max_rel_dev, structural and report.passed, MODULAR_TOL)


def _wp_params(rng: random.Random) -> tuple[complex, list[complex], complex]:
    us = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)) for _ in range(3)]
    u0 = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.08, 0.08))
    z = complex(rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.3))
    return u0, us, z


def _balanced_e_spec(rng: random.Random) -> "th.ThetaSeriesSpec":
    num = tuple(complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3)) for _ in range(3))
    d0 = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3))
    d1 = math.prod(num, start=1 + 0j) / (NOME.q * d0)
    return th.ThetaSeriesSpec("unilateral_E", num, (d0, d1), 0, 0.4 + 0.1j, NOME)


def build_term_ratio(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"term-ratio/{seed}")
    jobs = []
    for _ in range(TERM_SETS):
        for _ in range(MODULAR_PER_SET):
            u0, us, z = _wp_params(rng)
            usum = sum(us, 0j)
            form = th.HForm(tuple(u0 + u for u in us) + (u0 - usum,),
                            tuple(u0 - u for u in us) + (u0 + usum,), 0j, z, S_PAIR)
            jobs.append(Job("modularity", lambda f=form: th.check_modularity(f, tol=MODULAR_TOL), _modular_check))
        for _ in range(ELLIPTIC_PER_SET):
            spec = _balanced_e_spec(rng)
            check_seed = rng.randrange(2**31)
            jobs.append(Job(
                "ellipticity E",
                lambda sp=spec, cs=check_seed: th.check_ellipticity(
                    lambda w: th.term_ratio_at(sp, w), NOME, tol=ELLIPTIC_TOL, seed=cs),
                lambda rep: _reports_check([rep], ELLIPTIC_TOL),
            ))
        for _ in range(WP_PER_SET):
            u0, us, z = _wp_params(rng)
            check_seed = rng.randrange(2**31)
            jobs.append(Job(
                "total wp",
                lambda a=(u0, us, z, PAIR), cs=check_seed: th.check_total_ellipticity_wp(
                    *a, tol=ELLIPTIC_TOL, seed=cs),
                lambda reps: _reports_check(reps, ELLIPTIC_TOL),
            ))
        for n in TERM_RANKS:
            p1 = th.sample_multi1(rng.randrange(2**31), n, TERM_SAMPLER_N, NOME)
            p2 = th.sample_multi2(rng.randrange(2**31), n, (TERM_SAMPLER_N,) * n, NOME)
            s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
            jobs.append(Job(
                f"total multi1 n={n}",
                lambda p=p1, cs=s1: th.check_total_ellipticity_multi1(p, tol=ELLIPTIC_TOL, seed=cs),
                lambda reps: _reports_check(reps, ELLIPTIC_TOL),
            ))
            jobs.append(Job(
                f"total multi2 n={n}",
                lambda p=p2, cs=s2: th.check_total_ellipticity_multi2(p, tol=ELLIPTIC_TOL, seed=cs),
                lambda reps: _reports_check(reps, ELLIPTIC_TOL),
            ))
    return jobs


WORKLOADS = {
    "vwp-depth": Workload(
        "10E9 and 12E11 sums at N=4,5,6 and ge_split windows M=2..8 through the in-process CLI: series "
        "and factorials at growing depth and cli overhead; N=8,12 (NaN today) run untimed",
        build_vwp_depth,
        defects_vwp_depth,
    ),
    "lattice-sum": Workload(
        "multi1 (2,4),(3,3) and multi2 (3,3),(4,2) sampled in set-up, verified per job: 110-177 theta "
        "calls per lattice point in theta, factorials and identities; series idle",
        build_lattice_sum,
        defects_lattice_sum,
    ),
    "term-ratio": Workload(
        "ellipticity and modularity checks: single theta_factor values at off-lattice arguments and "
        "theta1 by its series, with samplers, verifiers and coefficients idle",
        build_term_ratio,
    ),
}
