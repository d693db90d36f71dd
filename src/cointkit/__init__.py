"""Two-variable cointegration toolkit.

Dated series with transform lineage, a QR-based OLS core, augmented
Dickey-Fuller and Engle-Granger tests with response-surface critical
values, error-correction (ARDL) estimation with auditable control
manifests, and seeded Monte Carlo experiments that demonstrate what the
misused variants of these tools produce.
"""

from cointkit import errors
from cointkit.cointegration import (
    CointegrationReport,
    EgSpec,
    GridCell,
    GridReport,
    GuardWarning,
    default_grid,
    engle_granger_test,
    run_spec_grid,
)
from cointkit.critvals import (
    LEVELS,
    SOURCE_ID,
    CriticalValueTable,
    DeterministicSpec,
    TABLE,
    critical_value,
    critical_values_map,
)
from cointkit.ecm import (
    AuditReport,
    EcmFit,
    EcmSpec,
    audit_controls,
    estimate_ecm,
    estimate_levels,
)
from cointkit.ingest import IngestReport, ingest_csv
from cointkit.montecarlo import (
    DgpSpec,
    EctRecoveryResult,
    ExperimentResult,
    SpuriousSlopeResult,
    TestConfig,
    generate,
    replication_seed,
    run_ect_recovery_experiment,
    run_ect_unit_root_experiment,
    run_false_positive_experiment,
    run_size_experiment,
    run_spurious_regression_experiment,
    wilson_interval,
)
from cointkit.regression import DesignMatrix, OlsFit, ols_fit
from cointkit.series import (
    TimeSeries,
    TransformTag,
    align,
    has_differencing,
    iterated_difference,
    log_transform,
    seasonal_difference,
)
from cointkit.unitroot import UnitRootReport, adf_test

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
