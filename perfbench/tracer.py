"""Spans around the calls into each cointkit layer, recorded from outside.

:class:`Tracer` replaces each entry point below with a wrapper under every
name it is bound to in any loaded ``cointkit`` module (``ols_fit`` is bound
in ``regression``, ``unitroot``, ``cointegration``, ``ecm`` and the package
itself), and patches the two constructors on their classes. Each call
records a span ``[name, start, end, parent]`` in memory. ``uninstall``
restores every original; the timed runs never see a wrapper.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by
the root spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of each function it times.
FUNCTIONS = {
    "montecarlo.generate": [("cointkit.montecarlo", "generate")],
    "montecarlo.replication_seed": [("cointkit.montecarlo", "replication_seed")],
    "montecarlo.runner": [
        ("cointkit.montecarlo", name)
        for name in (
            "run_size_experiment",
            "run_false_positive_experiment",
            "run_ect_recovery_experiment",
            "run_ect_unit_root_experiment",
            "run_spurious_regression_experiment",
        )
    ],
    "series.align": [("cointkit.series", "align")],
    "series.transforms": [
        ("cointkit.series", name)
        for name in ("log_transform", "seasonal_difference", "iterated_difference")
    ],
    "ingest.ingest_csv": [("cointkit.ingest", "ingest_csv")],
    "regression.ols_fit": [("cointkit.regression", "ols_fit")],
    "unitroot.adf_regression": [("cointkit.unitroot", "adf_regression")],
    "cointegration.engle_granger_test": [("cointkit.cointegration", "engle_granger_test")],
    "cointegration.collect_warnings": [("cointkit.cointegration", "_collect_warnings")],
    "critvals.critical_value": [("cointkit.critvals", "critical_value")],
    "ecm.estimate_ecm": [("cointkit.ecm", "estimate_ecm")],
    "ecm.estimate_levels": [("cointkit.ecm", "estimate_levels")],
    "formats.json_dumps": [("cointkit.formats", "json_dumps")],
    "cli.main": [("cointkit.cli", "main")],
    "cli.write_outputs": [("cointkit.cli", "_write_outputs")],
}

# Span name -> (module, class, attribute) of each method it times.
METHODS = {
    "series.TimeSeries": [("cointkit.series", "TimeSeries", "__post_init__")],
    "regression.DesignMatrix": [
        ("cointkit.regression", "DesignMatrix", "from_columns"),
        ("cointkit.regression", "DesignMatrix", "__post_init__"),
    ],
}

WRAPPER_MARK = "__perfbench_wrapper__"


def ols_flops(n: int, k: int) -> float:
    """Floating-point operations of one ``ols_fit`` on an (n, k) design, computed.

    Householder QR with explicit Q, 4nk^2 - 4k^3/3; Q'y, X beta and the
    column norms, 6nk; the triangular solve and inverse, k^3.
    """
    return 4.0 * n * k * k - 4.0 * k**3 / 3.0 + 6.0 * n * k + float(k) ** 3


def _cointkit_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cointkit" or name.startswith("cointkit.")]


class Tracer:
    """Records spans at cointkit's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _observe_ols(self, args, kwargs, result, exc):
        design = args[1] if len(args) > 1 else kwargs["X"]
        self.counts["ols_flops"] += ols_flops(design.nobs, design.ncols)
        if exc is not None and type(exc).__name__ == "RankDeficient":
            self.counts["rank_failures"] += 1

    def _observe_ingest(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["ingest_rows"] += len(result)

    def _observe_json(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["json_bytes"] += len(result.encode("utf-8"))

    def _observe_write(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["written_bytes"] += sum(os.path.getsize(path) for path in result)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        import cointkit.cli  # noqa: F401  (loads every layer, so all bindings are found)

        observers = {
            "regression.ols_fit": self._observe_ols,
            "ingest.ingest_csv": self._observe_ingest,
            "formats.json_dumps": self._observe_json,
            "cli.write_outputs": self._observe_write,
        }
        modules = _cointkit_modules()
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        for name, targets in METHODS.items():
            for module_name, cls_name, attr in targets:
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total self time, total time, and number of spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def leftover_wrappers() -> list[str]:
    """Names of cointkit attributes that are still tracer wrappers."""
    found = []
    for module in _cointkit_modules():
        for key, value in vars(module).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, WRAPPER_MARK, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return sorted(set(found))
