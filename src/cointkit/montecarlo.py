"""Seeded data-generating processes and rejection-rate experiments.

Reproducibility is a contract here: innovations come from a named,
versioned generator (numpy's PCG64 driving ``standard_normal``), every
replication's seed is a pure function of the experiment base seed and the
replication index, and each result carries a digest of its full
configuration. Replications are independent, so the runners can fan out
across worker processes without changing any count.

Every generated series discards a 100-observation burn-in, so results
speak about the processes rather than their initial conditions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import ClassVar

import numpy as np

from cointkit.cointegration import (
    NORMALIZE_FIRST,
    UNTRANSFORMED,
    WARN_DIFFERENCED,
    EgSpec,
    _eg_regressions,
    differencing_warning,
    eg_critical_values,
    engle_granger_test,
)
from cointkit.critvals import LEVELS, DeterministicSpec
from cointkit.ecm import EcmSpec, estimate_ecm, estimate_levels
from cointkit.errors import CointkitError, MissingGuardWarning, UsageError
from cointkit.series import MONTHLY, TimeSeries, iterated_difference
from cointkit.unitroot import _adf, adf_critical_values, adf_regression, adf_test

PRNG_ID = "numpy-pcg64/standard-normal"
BURN_IN = 100

INDEPENDENT_RANDOM_WALKS = "independent_random_walks"
COINTEGRATED_PAIR = "cointegrated_pair"
WHITE_NOISE_PAIR = "white_noise_pair"
_DGP_KINDS = (INDEPENDENT_RANDOM_WALKS, COINTEGRATED_PAIR, WHITE_NOISE_PAIR)

EG_LEVELS = "eg-levels"
EG_DIFFERENCES = "eg-differences"
ADF = "adf"
_TEST_KINDS = (EG_LEVELS, EG_DIFFERENCES, ADF)

_WILSON_Z = 1.959963984540054  # 97.5 percent normal quantile

MIN_REPLICATIONS = 100

# Replications solved as one stack. Statistics are bitwise the same for any
# block size. Blocks of 16 already amortize the per-call overhead: 32 and 64
# were no faster on the Engle-Granger size experiment (n=300, 12 lags), and
# each replication in a block holds about 0.1 MiB of working memory there.
BLOCK_SIZE = 16


@dataclass(frozen=True)
class DgpSpec:
    """A fully seeded data-generating process for a pair of series.

    ``independent_random_walks``: two cumulative sums of independent
    normal innovations. ``cointegrated_pair``: the first series is a
    random walk x and the second follows
    y_t = y_{t-1} + adjust * (beta * x_{t-1} - y_{t-1}) + innovation,
    so beta * x - y is stationary by construction. ``white_noise_pair``:
    two independent normal series.
    """

    kind: str
    n: int
    innovation_sd: float = 1.0
    seed: int = 0
    beta: float = 1.0
    adjust: float = 0.5

    def __post_init__(self):
        if self.kind not in _DGP_KINDS:
            raise UsageError(f"unknown DGP kind {self.kind!r}")
        if int(self.n) < 30:
            raise UsageError(f"n must be >= 30, got {self.n}")
        if not 0.0 <= self.innovation_sd < math.inf:
            raise UsageError(f"innovation_sd must be finite and >= 0, got {self.innovation_sd}")
        if not math.isfinite(self.beta):
            raise UsageError(f"beta must be finite, got {self.beta}")
        if not 0.0 < self.adjust <= 1.0:
            raise UsageError(f"adjust must be in (0, 1], got {self.adjust}")
        if not 0 <= int(self.seed) < 2**64:
            raise UsageError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))

    def to_json_dict(self) -> dict:
        """The process without its seed, which each replication replaces."""
        out = {
            "kind": self.kind,
            "n": self.n,
            "innovation_sd": self.innovation_sd,
        }
        if self.kind == COINTEGRATED_PAIR:
            out["beta"] = self.beta
            out["adjust"] = self.adjust
        return out


def generate(dgp: DgpSpec) -> tuple[TimeSeries, TimeSeries]:
    """Deterministically generate the pair of series described by ``dgp``.

    For the cointegrated pair the first returned series is the random
    walk x and the second the adjusting series y. Output is monthly with
    an arbitrary fixed calendar start and empty lineage.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(dgp.seed)))
    total = dgp.n + BURN_IN
    innov = rng.standard_normal((2, total)) * dgp.innovation_sd

    if dgp.kind == INDEPENDENT_RANDOM_WALKS:
        first = np.cumsum(innov[0])[BURN_IN:]
        second = np.cumsum(innov[1])[BURN_IN:]
        names = ("walk_a", "walk_b")
    elif dgp.kind == WHITE_NOISE_PAIR:
        first = innov[0][BURN_IN:].copy()
        second = innov[1][BURN_IN:].copy()
        names = ("noise_a", "noise_b")
    else:
        u, e = innov[0], innov[1]
        x = np.cumsum(u)
        y = np.empty(total)
        y[0] = e[0]
        keep = 1.0 - dgp.adjust
        pull = dgp.adjust * dgp.beta
        for t in range(1, total):
            y[t] = keep * y[t - 1] + pull * x[t - 1] + e[t]
        first, second = x[BURN_IN:], y[BURN_IN:]
        names = ("sim_x", "sim_y")

    make = lambda vals, name: TimeSeries(
        start=(2000, 1), frequency=MONTHLY, values=vals, lineage=(), name=name
    )
    return make(first, names[0]), make(second, names[1])


def replication_seed(base_seed: int, r: int) -> int:
    """The 64-bit seed of replication ``r``: a pure function of its inputs."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(r),))
    return int(ss.generate_state(1, np.uint64)[0])


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise UsageError("total must be positive")
    z2 = _WILSON_Z**2
    phat = successes / total
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = _WILSON_Z * np.sqrt(phat * (1 - phat) / total + z2 / (4 * total**2)) / denom
    # Clamp away float noise so the interval always brackets the point rate.
    lo = min(max(center - half, 0.0), phat)
    hi = max(min(center + half, 1.0), phat)
    return float(lo), float(hi)


def _config(experiment: str, **settings) -> tuple[dict, str]:
    """An experiment's configuration record, keys in the given order, and its digest."""
    config = {"experiment": experiment, "prng": PRNG_ID, "burn_in": BURN_IN, **settings}
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    return config, digest


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


class _Result:
    """The serializer shared by the experiment results.

    ``to_json_dict`` gives the type tag, then each field in declaration
    order; tuples become lists, integer keys strings, and ``None`` fields
    are omitted.
    """

    _JSON_TYPE: ClassVar[str]

    def to_json_dict(self) -> dict:
        out = {"type": self._JSON_TYPE}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = _json_value(value)
        return out


@dataclass(frozen=True)
class ExperimentResult(_Result):
    """Rejection counts and rates per level, with reproducibility metadata."""

    _JSON_TYPE = "experiment_result"

    experiment: str
    replications: int
    rejections: dict[int, int]
    rejection_rate: dict[int, float]
    wilson_interval_95: dict[int, tuple[float, float]]
    seed: int
    config: dict
    config_digest: str
    guard_warning_count: int | None = None

    def to_csv_rows(self) -> list[list[str]]:
        from cointkit.formats import fmt12s

        rows = [["level", "rate", "wilson_lo", "wilson_hi"]]
        for level in LEVELS:
            lo, hi = self.wilson_interval_95[level]
            rows.append([str(level), fmt12s(self.rejection_rate[level]), fmt12s(lo), fmt12s(hi)])
        return rows


@dataclass(frozen=True)
class TestConfig:
    """Which test a size/power experiment runs on each generated pair."""

    kind: str
    lags: int = 0
    trend: bool = False
    det: DeterministicSpec = field(default_factory=DeterministicSpec.constant_only)

    def __post_init__(self):
        if self.kind not in _TEST_KINDS:
            raise UsageError(f"unknown test kind {self.kind!r}")
        if int(self.lags) < 0:
            raise UsageError("lags must be >= 0")
        object.__setattr__(self, "lags", int(self.lags))

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "lags": self.lags, "trend": bool(self.trend)}
        if self.kind == ADF:
            out["deterministic"] = self.det.label()
        return out


def _eg_spec(test: TestConfig) -> EgSpec:
    return EgSpec(
        transform=UNTRANSFORMED,
        normalize_on=NORMALIZE_FIRST,
        lags=test.lags,
        trend_in_stage_one=test.trend,
    )


def _size_outcome(test: TestConfig, dgp: DgpSpec, base_seed: int, r: int) -> dict:
    a, b = generate(replace(dgp, seed=replication_seed(base_seed, r)))
    guard_fired = None
    if test.kind == EG_DIFFERENCES:
        a, b = iterated_difference(a, 1), iterated_difference(b, 1)
    if test.kind in (EG_LEVELS, EG_DIFFERENCES):
        report = engle_granger_test(a, b, _eg_spec(test))
        if test.kind == EG_DIFFERENCES:
            guard_fired = any(w.code == WARN_DIFFERENCED for w in report.warnings)
            if not guard_fired:
                raise MissingGuardWarning(r)
        rejects = dict(report.reject_at)
    else:
        rejects = dict(adf_test(a, test.lags, test.det).reject_at)
    return {"rejects": rejects, "guard": guard_fired}


def _size_critical_values(test: TestConfig, dgp: DgpSpec) -> dict[int, float]:
    """The critical values every replication of a size experiment compares against.

    They depend on the effective sample size alone, which the configuration fixes.
    """
    n_obs = dgp.n - 1 if test.kind == EG_DIFFERENCES else dgp.n
    n_eff = n_obs - 1 - test.lags
    if test.kind == ADF:
        return adf_critical_values(n_eff, test.det)
    return eg_critical_values(n_eff, test.trend)


def _size_block(
    test: TestConfig, dgp: DgpSpec, cvs: dict[int, float], base_seed: int, r0: int, r1: int
) -> list[dict]:
    """Outcomes of replications ``r0``..``r1 - 1``, their statistics solved as one stack.

    Each statistic is bitwise the one :func:`_size_outcome` computes. If any
    replication fails, the block is rerun one replication at a time, so the
    error raised is the one, from the replication, that the scalar path raises.
    """
    try:
        pairs = [generate(replace(dgp, seed=replication_seed(base_seed, r))) for r in range(r0, r1)]
        if test.kind == EG_DIFFERENCES:
            pairs = [(iterated_difference(a, 1), iterated_difference(b, 1)) for a, b in pairs]
        first = np.stack([a.values for a, _ in pairs])
        if test.kind == ADF:
            solution, _ = _adf(first, test.lags, test.det)
        else:
            second = np.stack([b.values for _, b in pairs])
            _, solution, _ = _eg_regressions(first, second, _eg_spec(test))
    except CointkitError:
        return [_size_outcome(test, dgp, base_seed, r) for r in range(r0, r1)]

    outcomes = []
    for r, (a, b), stat in zip(range(r0, r1), pairs, solution.t_stats[:, 0].tolist()):
        guard_fired = None
        if test.kind == EG_DIFFERENCES:
            guard_fired = differencing_warning(a, b) is not None
            if not guard_fired:
                raise MissingGuardWarning(r)
        rejects = {level: stat < cvs[level] for level in LEVELS}
        outcomes.append({"rejects": rejects, "guard": guard_fired})
    return outcomes


def _ect_unit_root_outcome(spec: EcmSpec, n: int, sd: float, lags: int, base_seed: int, r: int) -> dict:
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, n, sd, replication_seed(base_seed, r))
    a, b = generate(dgp)
    fit = estimate_ecm(a, b, spec)
    stat, n_eff, _ = adf_regression(fit.ect_series.values, lags, DeterministicSpec.none())
    cvs = eg_critical_values(n_eff, spec.include_trend)
    return {"rejects": {level: stat < cvs[level] for level in LEVELS}, "guard": None}


def _spurious_outcome(n: int, sd: float, threshold: float, trend: bool, base_seed: int, r: int) -> dict:
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, n, sd, replication_seed(base_seed, r))
    a, b = generate(dgp)
    fit = estimate_levels(a, b, include_trend=trend)
    return {"exceed": abs(fit.t_stats["x"]) > threshold}


def _recovery_outcome(
    spec: EcmSpec, n: int, sd: float, beta: float, adjust: float, base_seed: int, r: int
) -> dict:
    dgp = DgpSpec(
        COINTEGRATED_PAIR, n, sd, replication_seed(base_seed, r), beta=beta, adjust=adjust
    )
    x, y = generate(dgp)
    fit = estimate_ecm(y, x, spec)
    return {"coef": fit.ect_coefficient, "t": fit.ect_t_stat}


def _each_replication(fn, *args) -> list[dict]:
    """The block runner of an experiment that solves one replication at a time."""
    *params, base_seed, r0, r1 = args
    return [fn(*params, base_seed, r) for r in range(r0, r1)]


_BLOCK_FNS = {
    "size": _size_block,
    "ect_unit_root": partial(_each_replication, _ect_unit_root_outcome),
    "spurious": partial(_each_replication, _spurious_outcome),
    "recovery": partial(_each_replication, _recovery_outcome),
}


def _outcome_chunk(
    fn_name: str, params: tuple, base_seed: int, blocks: list[tuple[int, int]]
) -> list[dict]:
    fn = _BLOCK_FNS[fn_name]
    outcomes: list[dict] = []
    for r0, r1 in blocks:
        outcomes.extend(fn(*params, base_seed, r0, r1))
    return outcomes


def _run_replications(
    fn_name: str, params: tuple, base_seed: int, reps: int, workers: int
) -> list[dict]:
    if reps < MIN_REPLICATIONS:
        raise UsageError(f"replications must be >= {MIN_REPLICATIONS}, got {reps}")
    max_workers = os.cpu_count() or 1
    if not 1 <= workers <= max_workers:
        raise UsageError(f"workers must be in 1..{max_workers} (the CPU count), got {workers}")
    blocks = [(r0, min(r0 + BLOCK_SIZE, reps)) for r0 in range(0, reps, BLOCK_SIZE)]
    if workers == 1:
        return _outcome_chunk(fn_name, params, base_seed, blocks)
    bounds = np.linspace(0, len(blocks), workers + 1).astype(int)
    chunks = [blocks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(_outcome_chunk, fn_name, params, base_seed, chunk) for chunk in chunks
        ]
        outcomes: list[dict] = []
        for fut in futures:  # chunk order preserved: counts and medians are worker-invariant
            outcomes.extend(fut.result())
    return outcomes


def _rejection_result(
    outcomes: list[dict], config: dict, digest: str, with_guard: bool = False
) -> ExperimentResult:
    reps = len(outcomes)
    rejections = {level: sum(1 for o in outcomes if o["rejects"][level]) for level in LEVELS}
    guard_count = sum(1 for o in outcomes if o.get("guard")) if with_guard else None
    return ExperimentResult(
        experiment=config["experiment"],
        replications=reps,
        rejections=rejections,
        rejection_rate={level: rejections[level] / reps for level in LEVELS},
        wilson_interval_95={level: wilson_interval(rejections[level], reps) for level in LEVELS},
        seed=config["base_seed"],
        config=config,
        config_digest=digest,
        guard_warning_count=guard_count,
    )


def run_size_experiment(
    test: TestConfig,
    dgp: DgpSpec,
    reps: int,
    base_seed: int,
    workers: int = 1,
) -> ExperimentResult:
    """Rejection rates of ``test`` under ``dgp`` at all tabulated levels.

    ``dgp.seed`` is ignored; replication ``r`` runs on
    ``replication_seed(base_seed, r)``. At least 100 replications.
    """
    config, digest = _config(
        "size",
        test=test.to_json_dict(),
        dgp=dgp.to_json_dict(),
        reps=int(reps),
        levels=list(LEVELS),
        base_seed=int(base_seed),
    )
    outcomes = _run_replications(
        "size", (test, dgp, _size_critical_values(test, dgp)), base_seed, int(reps), workers
    )
    return _rejection_result(outcomes, config, digest, with_guard=True)


def run_false_positive_experiment(
    n: int,
    reps: int,
    level: int = 1,
    base_seed: int = 0,
    innovation_sd: float = 1.0,
    workers: int = 1,
) -> ExperimentResult:
    """The misuse demonstration: Engle-Granger applied to first differences
    of two independent random walks.

    The differences of independent I(1) series are stationary, so their
    linear combination is stationary and the residual test rejects almost
    surely: a false positive for cointegration. Every replication must trip
    the differenced-input guard; a miss raises :class:`MissingGuardWarning`
    instead of being silently counted.
    """
    if int(level) not in LEVELS:
        raise UsageError(f"level must be one of {LEVELS}, got {level}")
    test = TestConfig(kind=EG_DIFFERENCES)
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, int(n), innovation_sd, 0)
    config, digest = _config(
        "false_positive",
        test=test.to_json_dict(),
        dgp=dgp.to_json_dict(),
        reps=int(reps),
        level=int(level),
        levels=list(LEVELS),
        base_seed=int(base_seed),
    )
    outcomes = _run_replications(
        "size", (test, dgp, _size_critical_values(test, dgp)), base_seed, int(reps), workers
    )
    result = _rejection_result(outcomes, config, digest, with_guard=True)
    if result.guard_warning_count != result.replications:
        raise MissingGuardWarning(-1)
    return result


@dataclass(frozen=True)
class SpuriousSlopeResult(_Result):
    """How often a levels regression of independent walks looks significant."""

    _JSON_TYPE = "spurious_slope_result"

    replications: int
    exceed_count: int
    exceed_rate: float
    wilson_interval_95: tuple[float, float]
    threshold: float
    seed: int
    config: dict
    config_digest: str


def run_spurious_regression_experiment(
    n: int,
    reps: int,
    base_seed: int,
    threshold: float = 1.96,
    innovation_sd: float = 1.0,
    include_trend: bool = False,
    workers: int = 1,
) -> SpuriousSlopeResult:
    """Rate of |slope t-ratio| > threshold in levels regressions of
    independent random walks: the classic spurious-regression effect."""
    config, digest = _config(
        "spurious_regression",
        n=int(n),
        innovation_sd=innovation_sd,
        threshold=threshold,
        include_trend=bool(include_trend),
        reps=int(reps),
        base_seed=int(base_seed),
    )
    outcomes = _run_replications(
        "spurious", (int(n), innovation_sd, threshold, bool(include_trend)), base_seed, int(reps), workers
    )
    count = sum(1 for o in outcomes if o["exceed"])
    return SpuriousSlopeResult(
        replications=len(outcomes),
        exceed_count=count,
        exceed_rate=count / len(outcomes),
        wilson_interval_95=wilson_interval(count, len(outcomes)),
        threshold=threshold,
        seed=int(base_seed),
        config=config,
        config_digest=digest,
    )


def run_ect_unit_root_experiment(
    n: int,
    reps: int,
    base_seed: int,
    ecm_spec: EcmSpec | None = None,
    lags: int = 0,
    innovation_sd: float = 1.0,
    workers: int = 1,
) -> ExperimentResult:
    """Unit-root rejection rates for error-correction terms built from
    independent random walks.

    The tested series is an estimated residual from a two-variable levels
    regression, so the comparison uses the two-variable residual-based
    critical values; one-variable tables would overstate rejections for a
    series that was constructed to look as stationary as least squares can
    make it. Under this null the term is I(1) and rejections should sit
    near the nominal level.
    """
    spec = ecm_spec or EcmSpec(seasonal_gap=MONTHLY)
    config, digest = _config(
        "ect_unit_root",
        n=int(n),
        innovation_sd=innovation_sd,
        ecm_spec=spec.to_json_dict(),
        adf_lags=int(lags),
        cv_variables=2,
        reps=int(reps),
        levels=list(LEVELS),
        base_seed=int(base_seed),
    )
    outcomes = _run_replications(
        "ect_unit_root", (spec, int(n), innovation_sd, int(lags)), base_seed, int(reps), workers
    )
    return _rejection_result(outcomes, config, digest)


@dataclass(frozen=True)
class EctRecoveryResult(_Result):
    """Distribution of estimated adjustment speed under a cointegrated DGP."""

    _JSON_TYPE = "ect_recovery_result"

    replications: int
    band: tuple[float, float]
    t_threshold: float
    in_band_count: int
    t_ok_count: int
    joint_count: int
    joint_rate: float
    wilson_interval_95: tuple[float, float]
    median_coefficient: float
    median_t_stat: float
    seed: int
    config: dict
    config_digest: str


def run_ect_recovery_experiment(
    n: int,
    reps: int,
    base_seed: int,
    beta: float = 1.0,
    adjust: float = 0.3,
    ecm_spec: EcmSpec | None = None,
    band: tuple[float, float] = (-0.45, -0.15),
    t_threshold: float = -3.0,
    innovation_sd: float = 1.0,
    workers: int = 1,
) -> EctRecoveryResult:
    """How reliably the ARDL stage recovers a known adjustment speed.

    The generating process corrects a one-period disequilibrium, so the
    default estimation uses the conventional one-period form (gap 1): in a
    year-over-year ARDL with one-period lag controls the error-correction
    term is linearly redundant given the differencing identity, and its
    coefficient converges to zero regardless of the true adjustment speed.
    """
    spec = ecm_spec or EcmSpec(seasonal_gap=1)
    config, digest = _config(
        "ect_recovery",
        n=int(n),
        innovation_sd=innovation_sd,
        beta=beta,
        adjust=adjust,
        ecm_spec=spec.to_json_dict(),
        band=list(band),
        t_threshold=t_threshold,
        reps=int(reps),
        base_seed=int(base_seed),
    )
    outcomes = _run_replications(
        "recovery", (spec, int(n), innovation_sd, beta, adjust), base_seed, int(reps), workers
    )
    lo, hi = band
    in_band = sum(1 for o in outcomes if lo < o["coef"] < hi)
    t_ok = sum(1 for o in outcomes if o["t"] < t_threshold)
    joint = sum(1 for o in outcomes if lo < o["coef"] < hi and o["t"] < t_threshold)
    reps_done = len(outcomes)
    return EctRecoveryResult(
        replications=reps_done,
        band=(float(lo), float(hi)),
        t_threshold=float(t_threshold),
        in_band_count=in_band,
        t_ok_count=t_ok,
        joint_count=joint,
        joint_rate=joint / reps_done,
        wilson_interval_95=wilson_interval(joint, reps_done),
        median_coefficient=float(np.median([o["coef"] for o in outcomes])),
        median_t_stat=float(np.median([o["t"] for o in outcomes])),
        seed=int(base_seed),
        config=config,
        config_digest=digest,
    )
