"""Two-variable cointegration toolkit.

Dated series with transform lineage, a QR-based OLS core, augmented
Dickey-Fuller and Engle-Granger tests with response-surface critical
values, error-correction (ARDL) estimation with auditable control
manifests, and seeded Monte Carlo experiments that demonstrate what the
misused variants of these tools produce.

``import cointkit`` loads no layer. Each exported name, and each submodule
(``cointkit.errors``, ``cointkit.regression``, ...), is imported on first
use, so a CLI analyst command loads only the layers it runs and never the
Monte Carlo code.
"""

import importlib
import importlib.util
import sys

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "AuditReport": "ecm",
    "CointegrationReport": "cointegration",
    "CriticalValueTable": "critvals",
    "DesignMatrix": "regression",
    "DeterministicSpec": "critvals",
    "DgpSpec": "montecarlo",
    "EcmFit": "ecm",
    "EcmSpec": "ecm",
    "EctRecoveryResult": "montecarlo",
    "EgSpec": "cointegration",
    "ExperimentResult": "montecarlo",
    "GridCell": "cointegration",
    "GridReport": "cointegration",
    "GuardWarning": "cointegration",
    "IngestReport": "ingest",
    "LEVELS": "critvals",
    "OlsFit": "regression",
    "SOURCE_ID": "critvals",
    "SpuriousSlopeResult": "montecarlo",
    "TABLE": "critvals",
    "TestConfig": "montecarlo",
    "TimeSeries": "series",
    "TransformTag": "series",
    "UnitRootReport": "unitroot",
    "adf_test": "unitroot",
    "align": "series",
    "audit_controls": "ecm",
    "critical_value": "critvals",
    "critical_values_map": "critvals",
    "default_grid": "cointegration",
    "engle_granger_test": "cointegration",
    "estimate_ecm": "ecm",
    "estimate_levels": "ecm",
    "generate": "montecarlo",
    "has_differencing": "series",
    "ingest_csv": "ingest",
    "iterated_difference": "series",
    "log_transform": "series",
    "ols_fit": "regression",
    "replication_seed": "montecarlo",
    "run_ect_recovery_experiment": "montecarlo",
    "run_ect_unit_root_experiment": "montecarlo",
    "run_false_positive_experiment": "montecarlo",
    "run_size_experiment": "montecarlo",
    "run_spec_grid": "cointegration",
    "run_spurious_regression_experiment": "montecarlo",
    "seasonal_difference": "series",
    "wilson_interval": "montecarlo",
}
_SUBMODULES = (
    "cli",
    "cointegration",
    "critvals",
    "ecm",
    "errors",
    "formats",
    "ingest",
    "montecarlo",
    "regression",
    "series",
    "unitroot",
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CointegrationReport",
    "CriticalValueTable",
    "DesignMatrix",
    "DeterministicSpec",
    "DgpSpec",
    "EcmFit",
    "EcmSpec",
    "EctRecoveryResult",
    "EgSpec",
    "ExperimentResult",
    "GridCell",
    "GridReport",
    "GuardWarning",
    "IngestReport",
    "LEVELS",
    "OlsFit",
    "SOURCE_ID",
    "SpuriousSlopeResult",
    "TABLE",
    "TestConfig",
    "TimeSeries",
    "TransformTag",
    "UnitRootReport",
    "adf_test",
    "align",
    "audit_controls",
    "critical_value",
    "critical_values_map",
    "default_grid",
    "engle_granger_test",
    "errors",
    "estimate_ecm",
    "estimate_levels",
    "generate",
    "has_differencing",
    "ingest_csv",
    "iterated_difference",
    "log_transform",
    "ols_fit",
    "replication_seed",
    "run_ect_recovery_experiment",
    "run_ect_unit_root_experiment",
    "run_false_positive_experiment",
    "run_size_experiment",
    "run_spec_grid",
    "run_spurious_regression_experiment",
    "seasonal_difference",
    "wilson_interval",
]


def __getattr__(name: str):
    """Import an exported name's submodule, or a submodule, on first use (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))


def _lazy_module(name: str):
    """Register submodule ``name`` in ``sys.modules``; its code runs on first attribute use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The benchmark's tracer and a subprocess test look cointkit.montecarlo up in
# sys.modules after ``import cointkit.cli``, which no analyst command needs to
# run. Registered here, before any submodule import can load it eagerly, the
# module exists once and costs nothing until a Monte Carlo name is used.
montecarlo = _lazy_module("montecarlo")
