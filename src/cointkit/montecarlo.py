"""Seeded data-generating processes and rejection-rate experiments.

Reproducibility is a contract here: innovations come from a named,
versioned generator (numpy's PCG64 driving ``standard_normal``), every
replication's seed is a pure function of the experiment base seed and the
replication index, and each result carries a digest of its full
configuration. Replications are independent, so the runners can fan out
across worker processes without changing any count.

Every generated series discards a 100-observation burn-in, so results
speak about the processes rather than their initial conditions.

The runners draw replications in stacks of ``GENERATE_SIZE`` (64), one
generator per replication filling its row, and run the cointegrated-pair
recursion one time step at a time across every row of the stack. Each
series is bitwise equal to the one ``generate`` gives for that
replication's seed alone, whatever the stack, block or worker split.

A block of replications yields only statistics: one float per replication,
or (ECT coefficient, t-ratio) for the recovery experiment. Each runner
checks its settings at configuration, before any replication, then applies
its critical values, threshold or band once, to the statistics of every
replication.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from cointkit.cointegration import (
    NORMALIZE_FIRST,
    UNTRANSFORMED,
    EgSpec,
    _eg_regressions,
    differencing_warning,
    eg_critical_values,
)
from cointkit.critvals import LEVELS, DeterministicSpec
from cointkit.ecm import EcmSpec, _check_gap, _ecm_regressions, _levels_regression
from cointkit.errors import CointkitError, DataError, MissingGuardWarning, UsageError
from cointkit.series import MONTHLY, TimeSeries, iterated_difference
from cointkit.unitroot import _adf, _lag_order, adf_critical_values

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

# Replications drawn as one stack, then solved BLOCK_SIZE rows at a time.
# Series are bitwise the same for any draw size. A step of the
# cointegrated-pair recursion is mostly fixed ufunc overhead, so it costs
# less per row the more rows it covers, and the draw is larger than a
# kernel block. Per pair at n=600 (2-vCPU host,
# best of 15) the recursion took 0.074 ms for 16 rows, 0.048 ms for 32,
# 0.029 ms for 64 and 0.022 ms for 128, against 0.096 ms for a loop on
# Python floats. Kernel blocks of 64 instead of 16 were slower on the ECM
# recovery experiment and raised its peak RSS from 89 to 98 MiB.
GENERATE_SIZE = 64


def _seed(value) -> int:
    """``value`` as an int, which must fit in 64 unsigned bits."""
    if not 0 <= int(value) < 2**64:
        raise UsageError("seed must be a 64-bit unsigned integer")
    return int(value)


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
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", _seed(self.seed))

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


_SERIES_NAMES = {
    INDEPENDENT_RANDOM_WALKS: ("walk_a", "walk_b"),
    COINTEGRATED_PAIR: ("sim_x", "sim_y"),
    WHITE_NOISE_PAIR: ("noise_a", "noise_b"),
}


def _series(values: np.ndarray, name: str) -> TimeSeries:
    return TimeSeries(start=(2000, 1), frequency=MONTHLY, values=values, lineage=(), name=name)


def _generate_stack(dgp: DgpSpec, seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``dgp`` drawn with each of ``seeds`` (``dgp.seed`` is ignored).

    Returns the first and the second series of each pair as two C-contiguous
    (len(seeds), n) stacks. Every row is bitwise equal to what a stack of
    that one seed gives: the draw, the cumulative sums and the recursion
    perform the same IEEE operations, in the same order, on every row.
    """
    total = dgp.n + BURN_IN
    innov = np.empty((len(seeds), 2, total))
    for row, seed in zip(innov, seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        rng.standard_normal(out=row)
    # A huge innovation_sd overflows; the finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        innov *= dgp.innovation_sd
        if dgp.kind == WHITE_NOISE_PAIR:
            a, b = innov[:, 0], innov[:, 1]
        elif dgp.kind == INDEPENDENT_RANDOM_WALKS:
            walks = np.cumsum(innov, axis=2)
            a, b = walks[:, 0], walks[:, 1]
        else:
            a = np.cumsum(innov[:, 0], axis=1)
            b = _adjusting_series(a, innov[:, 1], dgp)
    first = np.ascontiguousarray(a[:, BURN_IN:])
    second = np.ascontiguousarray(b[:, BURN_IN:])
    for values in (first, second):
        finite = np.isfinite(values)
        if not finite.all():
            _, position = np.argwhere(~finite)[0]
            raise DataError(f"non-finite value at position {position}")
    return first, second


def _adjusting_series(x: np.ndarray, e: np.ndarray, dgp: DgpSpec) -> np.ndarray:
    """y_t = keep * y_{t-1} + pull * x_{t-1} + e_t with y_0 = e_0, for each row.

    The recursion runs time-major, one step for every row at once, as three
    ufunc calls in the order of the scalar expression, so each row is bitwise
    the scalar recursion.
    """
    e = np.ascontiguousarray(e.T)
    keep = np.full(e.shape[1], 1.0 - dgp.adjust)
    pull_x = np.ascontiguousarray((dgp.adjust * dgp.beta * x).T)
    y = np.empty_like(e)
    y[0] = e[0]
    steps = list(y)
    for prev, y_t, pull_x_prev, e_t in zip(steps, steps[1:], list(pull_x), list(e[1:])):
        np.multiply(keep, prev, y_t)
        np.add(y_t, pull_x_prev, y_t)
        np.add(y_t, e_t, y_t)
    return y.T


def generate(dgp: DgpSpec) -> tuple[TimeSeries, TimeSeries]:
    """Deterministically generate the pair of series described by ``dgp``.

    For the cointegrated pair the first returned series is the random
    walk x and the second the adjusting series y. Output is monthly with
    an arbitrary fixed calendar start and empty lineage. This is the
    one-seed case of the stacked draw the runners use.
    """
    first, second = _generate_stack(dgp, [dgp.seed])
    names = _SERIES_NAMES[dgp.kind]
    return _series(first[0], names[0]), _series(second[0], names[1])


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
    """An experiment's configuration record, keys in the given order, and its digest.

    The base seed is checked here, before any replication runs.
    """
    settings["base_seed"] = _seed(settings["base_seed"])
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


# Each block function gives the statistics of the replications whose series
# are the rows of ``first`` and ``second``, solved as one stack, bitwise equal
# to running the public estimator on each replication alone. Run on a stack
# of one, it is that scalar path. The runners bind a block's settings with
# ``functools.partial`` and apply critical values and thresholds once, to the
# statistics of every replication.
_Block = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _size_block(
    test: TestConfig, spec: EgSpec | None, dgp: DgpSpec, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """The test statistic of each replication; on eg-differences every one must trip the guard."""
    pairs = []
    if test.kind == EG_DIFFERENCES:
        # As series, so the guard sees each replication's differencing lineage.
        name_a, name_b = _SERIES_NAMES[dgp.kind]
        pairs = [
            (iterated_difference(_series(a, name_a), 1), iterated_difference(_series(b, name_b), 1))
            for a, b in zip(first, second)
        ]
        first = np.stack([a.values for a, _ in pairs])
        second = np.stack([b.values for _, b in pairs])
    if test.kind == ADF:
        solution, _ = _adf(first, test.lags, test.det)
    else:
        _, solution, _ = _eg_regressions(first, second, spec)
    for i, pair in enumerate(pairs):
        if differencing_warning(*pair) is None:
            raise MissingGuardWarning(i)  # _outcome_chunk sets the replication's index
    return solution.t_stats[:, 0]


def _spurious_block(trend: bool, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``estimate_levels`` of the first walk on the second: the slope's t-ratio."""
    return _levels_regression(first, second, trend).t_stats[:, 0]


def _ect_unit_root_block(
    spec: EcmSpec, lags: int, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """``estimate_ecm`` of the first walk on the second, then the ADF statistic of its ECT series."""
    levels, _ = _ecm_regressions(first, second, spec, MONTHLY)
    ect = levels.resid[:, : first.shape[1] - spec.ect_lag]
    solution, _ = _adf(ect, lags, DeterministicSpec.none())
    return solution.t_stats[:, 0]


def _recovery_block(spec: EcmSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``estimate_ecm`` of y on x: (ECT coefficient, its t-ratio) per replication."""
    _, ardl = _ecm_regressions(y, x, spec, MONTHLY)
    col = ardl.names.index(f"ect_l{spec.ect_lag}")
    return np.stack([ardl.beta[:, col], ardl.t_stats[:, col]], axis=-1)


def _outcome_chunk(block: _Block, dgp: DgpSpec, base_seed: int, r0: int, r1: int) -> np.ndarray:
    """``block``'s statistics of replications ``r0``..``r1 - 1``, drawn
    ``GENERATE_SIZE`` and solved ``BLOCK_SIZE`` at a time."""
    pieces: list[np.ndarray] = []
    for d0 in range(r0, r1, GENERATE_SIZE):
        seeds = [replication_seed(base_seed, r) for r in range(d0, min(d0 + GENERATE_SIZE, r1))]
        try:
            first, second = _generate_stack(dgp, seeds)
            drawn = [
                block(first[b0 : b0 + BLOCK_SIZE], second[b0 : b0 + BLOCK_SIZE])
                for b0 in range(0, len(seeds), BLOCK_SIZE)
            ]
        except CointkitError:
            # One replication at a time, the error raised is the one, from the
            # first failing replication, that the scalar path raises.
            drawn = []
            for r, seed in enumerate(seeds, start=d0):
                try:
                    drawn.append(block(*_generate_stack(dgp, [seed])))
                except CointkitError as exc:
                    exc.replication = r
                    exc.seed = seed
                    raise
        pieces.extend(drawn)
    return np.concatenate(pieces)


def _run_replications(block: _Block, dgp: DgpSpec, config: dict, workers: int) -> np.ndarray:
    """``block``'s statistics of the ``config["reps"]`` replications of ``config["base_seed"]``.

    ``block`` is pickled into each worker process: a ``functools.partial``
    over a module-level function.
    """
    reps, base_seed = config["reps"], config["base_seed"]
    if reps < MIN_REPLICATIONS:
        raise UsageError(f"replications must be >= {MIN_REPLICATIONS}, got {reps}")
    max_workers = os.cpu_count() or 1
    if not 1 <= workers <= max_workers:
        raise UsageError(f"workers must be in 1..{max_workers} (the CPU count), got {workers}")
    if workers == 1:
        return _outcome_chunk(block, dgp, base_seed, 0, reps)
    # Whole kernel blocks per worker, split as evenly as the block count allows.
    n_blocks = -(-reps // BLOCK_SIZE)
    bounds = [min(n_blocks * w // workers * BLOCK_SIZE, reps) for w in range(workers + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_outcome_chunk, block, dgp, base_seed, lo, hi) for lo, hi in chunks]
        # Chunk order preserved: counts and medians are worker-invariant.
        return np.concatenate([fut.result() for fut in futures])


def _rejection_result(
    stats: np.ndarray, cvs: dict[int, float], config: dict, digest: str, guard_count: int | None = None
) -> ExperimentResult:
    """Rejections of each statistic below its level's critical value."""
    reps = len(stats)
    rejections = {level: int(np.count_nonzero(stats < cvs[level])) for level in LEVELS}
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


def _size_result(
    test: TestConfig, dgp: DgpSpec, config: dict, digest: str, workers: int
) -> ExperimentResult:
    """Rejections of ``test`` under ``dgp``; the guard fires on every eg-differences replication.

    The critical values depend on the effective sample size alone, which the configuration fixes.
    """
    n_obs = dgp.n - 1 if test.kind == EG_DIFFERENCES else dgp.n
    n_eff = n_obs - 1 - test.lags
    if test.kind == ADF:
        spec, cvs = None, adf_critical_values(n_eff, test.det)
    else:
        spec, cvs = _eg_spec(test), eg_critical_values(n_eff, test.trend)
    stats = _run_replications(partial(_size_block, test, spec, dgp), dgp, config, workers)
    guard_count = len(stats) if test.kind == EG_DIFFERENCES else 0
    return _rejection_result(stats, cvs, config, digest, guard_count)


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
        base_seed=base_seed,
    )
    return _size_result(test, dgp, config, digest, workers)


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
        base_seed=base_seed,
    )
    return _size_result(test, dgp, config, digest, workers)


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
    if not math.isfinite(threshold):
        raise UsageError(f"threshold must be finite, got {threshold}")
    config, digest = _config(
        "spurious_regression",
        n=int(n),
        innovation_sd=innovation_sd,
        threshold=threshold,
        include_trend=bool(include_trend),
        reps=int(reps),
        base_seed=base_seed,
    )
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, int(n), innovation_sd)
    slope_t = _run_replications(partial(_spurious_block, bool(include_trend)), dgp, config, workers)
    count = int(np.count_nonzero(np.abs(slope_t) > threshold))
    return SpuriousSlopeResult(
        replications=len(slope_t),
        exceed_count=count,
        exceed_rate=count / len(slope_t),
        wilson_interval_95=wilson_interval(count, len(slope_t)),
        threshold=threshold,
        seed=config["base_seed"],
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
    _check_gap(spec.seasonal_gap, MONTHLY)
    lags = _lag_order(lags)
    config, digest = _config(
        "ect_unit_root",
        n=int(n),
        innovation_sd=innovation_sd,
        ecm_spec=spec.to_json_dict(),
        adf_lags=lags,
        cv_variables=2,
        reps=int(reps),
        levels=list(LEVELS),
        base_seed=base_seed,
    )
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, int(n), innovation_sd)
    # The ECT series has n - ect_lag observations; its ADF loses 1 + lags more.
    cvs = eg_critical_values(dgp.n - spec.ect_lag - 1 - lags, spec.include_trend)
    stats = _run_replications(partial(_ect_unit_root_block, spec, lags), dgp, config, workers)
    return _rejection_result(stats, cvs, config, digest)


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
    if not math.isfinite(t_threshold):
        raise UsageError(f"t_threshold must be finite, got {t_threshold}")
    if len(band) != 2 or not all(map(math.isfinite, band)) or not band[0] < band[1]:
        raise UsageError(f"band must be two finite bounds with lo < hi, got {tuple(band)}")
    lo, hi = band
    spec = ecm_spec or EcmSpec(seasonal_gap=1)
    _check_gap(spec.seasonal_gap, MONTHLY)
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
        base_seed=base_seed,
    )
    dgp = DgpSpec(COINTEGRATED_PAIR, int(n), innovation_sd, beta=beta, adjust=adjust)
    coef, t = _run_replications(partial(_recovery_block, spec), dgp, config, workers).T
    in_band = (lo < coef) & (coef < hi)
    t_ok = t < t_threshold
    joint = int(np.count_nonzero(in_band & t_ok))
    return EctRecoveryResult(
        replications=len(coef),
        band=(float(lo), float(hi)),
        t_threshold=float(t_threshold),
        in_band_count=int(np.count_nonzero(in_band)),
        t_ok_count=int(np.count_nonzero(t_ok)),
        joint_count=joint,
        joint_rate=joint / len(coef),
        wilson_interval_95=wilson_interval(joint, len(coef)),
        median_coefficient=float(np.median(coef)),
        median_t_stat=float(np.median(t)),
        seed=config["base_seed"],
        config=config,
        config_digest=digest,
    )
