"""Per-module spans recorded from outside the package.

The package's modules bind each other's functions at import time
(``from .theta import theta``), so a function is only traced if every
module-level name that refers to it is rebound. ``Tracer.install`` finds
each target function in its defining module, wraps it once, and rebinds
every reference to the same function object in every ``thetahyp`` module,
including references held in module-level dicts (the CLI's verifier
table). ``uninstall`` restores the originals.

Spans are not kept one by one: each wrapper folds its span into running
totals at exit (calls, outermost wall time, self time, theta calls made
underneath, and an optional count read from the result). Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, replace

# Functions wrapped in each layer. Layer names are module names.
TARGETS: dict[str, tuple[str, ...]] = {
    "theta": ("theta", "theta_zero_index", "theta1", "elliptic_number"),
    "factorials": ("theta_factor", "theta_factorial", "theta_factorial_multi"),
    "series": ("vwp_coefficient", "eval_vwp", "term_ratio_at", "ge_split_check"),
    "identities": (
        "sample_ft",
        "sample_bailey",
        "sample_multi1",
        "sample_multi2",
        "verify_ft_sum",
        "verify_bailey",
        "verify_multi1",
        "verify_multi2",
    ),
    "ellipticity": (
        "check_ellipticity",
        "check_modularity",
        "check_total_ellipticity_wp",
        "check_total_ellipticity_multi1",
        "check_total_ellipticity_multi2",
        "h_eval",
        "vwp_canonical_h",
        "multi1_h",
        "multi2_h",
    ),
    "cli": ("main",),
}

# Counts read from a traced call's return value: the terms a sum used.
RESULT_COUNTS = {
    "series.eval_vwp": lambda sv: sv.terms_used,
    "identities.verify_multi1": lambda rep: rep.terms_summed,
    "identities.verify_multi2": lambda rep: rep.terms_summed,
}

THETA = "theta.theta"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0  # outermost spans only, so recursion is not double counted
    self_s: float = 0.0
    theta_under: int = 0  # theta calls made inside outermost spans
    result_count: int = 0


class Tracer:
    """Wraps the TARGETS functions while installed and aggregates their spans."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []  # [start, child_s] per open span
        self._restore: list[tuple[dict, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, SpanStats())
        theta_stats = self.stats.setdefault(THETA, SpanStats())
        count_result = RESULT_COUNTS.get(key)
        stack = self._stack
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            theta_before = theta_stats.calls
            stack.append(frame)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[0] -= 1
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if depth[0] == 0:
                    stats.total_s += elapsed
                    stats.theta_under += theta_stats.calls - theta_before
            if count_result is not None:
                stats.result_count += count_result(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise if one is missing."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "thetahyp" or name.startswith("thetahyp.")]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"thetahyp.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    raise RuntimeError(f"trace target thetahyp.{layer}.{name} is missing")
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    namespace = vars(mod)
                    tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
                    for table in tables:
                        for attr in [a for a, v in table.items() if v is fn]:
                            table[attr] = wrapper
                            self._restore.append((table, attr, fn))

    def uninstall(self) -> None:
        for table, attr, fn in reversed(self._restore):
            table[attr] = fn
        self._restore.clear()

    def snapshot(self) -> dict[str, SpanStats]:
        return {k: replace(v) for k, v in self.stats.items()}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def call_counts(stats: dict[str, SpanStats]) -> dict[str, int]:
    return {k: v.calls for k, v in stats.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, SpanStats], traced_pass_s: float, untraced_pass_s: float):
    """Per-layer metrics as {name: (value, unit, detail)}; detail gives each
    ratio's numerator and denominator."""

    def s(key: str) -> SpanStats:
        return stats.get(key, SpanStats())

    def layer_self(layer: str) -> float:
        return sum(v.self_s for k, v in stats.items() if k.split(".")[0] == layer)

    def total(layer: str, prefix: str) -> float:
        return sum(v.total_s for k, v in stats.items() if k.startswith(f"{layer}.{prefix}"))

    theta_calls = s(THETA).calls
    zero_index_calls = s("theta.theta_zero_index").calls
    series_theta = s("series.eval_vwp").theta_under
    series_terms = s("series.eval_vwp").result_count
    multi = [s("identities.verify_multi1"), s("identities.verify_multi2")]
    ident_theta = sum(v.theta_under for v in multi)
    ident_terms = sum(v.result_count for v in multi)
    sample_s = total("identities", "sample_")
    verify_s = total("identities", "verify_")
    h_calls = sum(s(f"ellipticity.{h}").calls for h in ("h_eval", "vwp_canonical_h", "multi1_h", "multi2_h"))

    return {
        "theta.theta.calls": (theta_calls, "count", ""),
        "theta.theta.self_s": (s(THETA).self_s, "s", ""),
        "theta.zero_index.calls": (zero_index_calls, "count", ""),
        "theta.zero_index_per_theta": (
            _ratio(zero_index_calls, theta_calls),
            "ratio",
            f"{zero_index_calls} theta_zero_index calls / {theta_calls} theta calls",
        ),
        "theta.theta1.calls": (s("theta.theta1").calls, "count", ""),
        "theta.theta1.self_s": (s("theta.theta1").self_s, "s", ""),
        "factorials.theta_factor.calls": (s("factorials.theta_factor").calls, "count", ""),
        "factorials.theta_factorial.calls": (s("factorials.theta_factorial").calls, "count", ""),
        "factorials.self_s": (layer_self("factorials"), "s", ""),
        "series.vwp_coefficient.calls": (s("series.vwp_coefficient").calls, "count", ""),
        "series.self_s": (layer_self("series"), "s", ""),
        "series.theta_per_term": (
            _ratio(series_theta, series_terms),
            "calls/term",
            f"{series_theta} theta calls under eval_vwp / {series_terms} terms summed",
        ),
        "identities.sample.total_s": (sample_s, "s", ""),
        "identities.verify.total_s": (verify_s, "s", ""),
        "identities.sample_share": (
            _ratio(sample_s, sample_s + verify_s),
            "ratio",
            f"{sample_s:.6f} s in sample_* / {sample_s + verify_s:.6f} s in sample_* and verify_*",
        ),
        "identities.theta_per_term": (
            _ratio(ident_theta, ident_terms),
            "calls/term",
            f"{ident_theta} theta calls under verify_multi* / {ident_terms} terms summed",
        ),
        "ellipticity.check.total_s": (total("ellipticity", "check_"), "s", ""),
        "ellipticity.h.calls": (h_calls, "count", ""),
        "ellipticity.self_s": (layer_self("ellipticity"), "s", ""),
        "cli.main.calls": (s("cli.main").calls, "count", ""),
        "cli.main.self_s": (s("cli.main").self_s, "s", ""),
        "trace.overhead": (
            _ratio(traced_pass_s, untraced_pass_s),
            "ratio",
            f"{traced_pass_s:.6f} s traced pass / {untraced_pass_s:.6f} s untraced pass (medians of scaled job time)",
        ),
    }
