"""Seeded data-generating processes and rejection-rate experiments.

Reproducibility is a contract here: innovations come from a named,
versioned generator (numpy's PCG64 driving ``standard_normal``), every
replication's seed is a pure function of the experiment base seed and the
replication index, and each result carries a digest of its full
configuration. Replications are independent, so the runners can fan out
across worker processes without changing any count.

Every generated series discards a 100-observation burn-in, so results
speak about the processes rather than their initial conditions.

The runners draw replications in stacks of up to ``GENERATE_SIZE`` (256),
fewer for long series (``_draw_rows``). numpy's ``SeedSequence`` hash runs
on the whole stack at once, to give each replication's seed and then its
PCG64 state, bitwise equal to building them one replication at a time, so
``PRNG_ID`` and the seed scheme are numpy's. One reused PCG64 fills each
row from that row's state, the walks are summed in place, and the
cointegrated-pair recursion runs one time step at a time across every row
of the stack. Each series is bitwise equal to the one ``generate`` gives
for that replication's seed alone, whatever the stack, block or worker
split.

A block of replications yields only statistics: one float per replication,
or (ECT coefficient, t-ratio) for the recovery experiment. Each runner
checks its settings at configuration, before any replication, then applies
its critical values, threshold or band once, to the statistics of every
replication.

Of cointkit, this module imports only ``errors``, ``formats``,
``regression`` (the stacked designs) and ``critvals`` (the critical-value
rule) at module level. Each other layer is imported by the function that
needs it: the ECT runners import ``ecm`` and ``series.MONTHLY`` to check
their settings, and only the recovery block runs the ECM kernel; the ECT
unit-root block is the levels regression plus ADF. The eg-differences
size runner imports ``cointegration.differencing_warning`` and
``series.iterated_difference`` for its one guard check, at configuration,
and ``generate`` imports ``series.TimeSeries``; no block imports anything
or builds a series. So the size experiments on levels and the
spurious-regression experiment load no estimator layer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from cointkit.critvals import LEVELS, DeterministicSpec, adf_critical_values, eg_critical_values
from cointkit.errors import (
    CointkitError,
    MissingGuardWarning,
    UsageError,
    flag_setting,
    instance_setting,
    int_setting,
    real_setting,
)
from cointkit.formats import JsonRecord, fmt12s
from cointkit.regression import (
    MAX_LAGS,
    _adf,
    _adf_sample,
    _check_finite,
    _difference,
    _eg_stage_two,
    _levels_regression,
    median,
)

if TYPE_CHECKING:  # imported where used, so only the ECT experiments load the ECM layer
    from cointkit.ecm import EcmSpec
    from cointkit.series import TimeSeries

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
# Series are bitwise the same for any draw size. Each draw pays fixed costs
# whatever its row count: the seeding hash, its allocations, and on the
# cointegrated pair one recursion of three ufunc calls per time step, so a
# worker draws its replications in as few stacks as memory allows. Seeding
# and drawing one replication (2-vCPU host, best of 15) took 56 us in an
# 8-row draw, 24 us in 64 rows and 23 us in 256 for walks at n=300, and
# 195, 64 and 62 us for the pair at n=600. A draw covers up to
# GENERATE_SIZE rows and at most _DRAW_STEPS row-steps (rows times
# n + BURN_IN), but never fewer than 64 rows, so long series are drawn 64
# at a time. A draw works in place, so its tracemalloc peak is at most 36
# bytes per row-step: about 6 MiB for a full draw at n=600.
GENERATE_SIZE = 256
_DRAW_STEPS = 256 * 700


def _draw_rows(n: int) -> int:
    """The replications drawn as one stack for series of ``n`` observations."""
    return min(GENERATE_SIZE, max(64, _DRAW_STEPS // (n + BURN_IN)))


# Every seed, a DGP's or an experiment's base seed, under the integer rule.
_seed = partial(int_setting, "seed", lo=0, hi=2**64 - 1, expected="a 64-bit unsigned integer")


# numpy's SeedSequence, run on a stack. It is O'Neill's seed_seq hash (PCG
# report HMC-CS-2014-0905) over a pool of four uint32 words, and numpy keeps
# its output stable across releases. _seed_sequence follows numpy's
# mix_entropy and generate_state loops step for step, with one running hash
# constant; the constant advances the same way whatever the entropy, so each
# loop over pool words is one ufunc call for the whole stack.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value, const: int, count: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """numpy's ``hashmix`` of ``value`` run ``count`` times from hash constant
    ``const``, one step per row of the result; and the constant it leaves."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    value = (value ^ column[:-1]) * column[1:]
    return value ^ (value >> 16), consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_sequence(entropy: list, rows: int, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words)`` of ``rows`` entropies as (n_words, rows) uint32.

    ``entropy`` is numpy's assembled entropy, one item per word: an int
    shared by every row, or a (rows,) uint32 array. Arrays stay arrays, so
    the arithmetic wraps silently as numpy's uint32 does.
    """
    # mix_entropy: hash the pool words, a missing entropy word as 0 ...
    pool = np.zeros((_POOL_SIZE, rows), np.uint32)
    for i, word in enumerate(entropy[:_POOL_SIZE]):
        pool[i] = word
    pool, const = _hashmix(pool, _INIT_A, _POOL_SIZE)
    # ... hash each pool word into the other three ...
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed, const = _hashmix(pool[src], const, len(dst))
        pool[dst] = _mix(pool[dst], hashed)
    # ... and each further entropy word into all four.
    for word in entropy[_POOL_SIZE:]:
        hashed, const = _hashmix(word, const, _POOL_SIZE)
        pool = _mix(pool, hashed)
    # generate_state: the cycled pool, hashed with the second constant.
    cycled = np.tile(pool, (-(-n_words // _POOL_SIZE), 1))[:n_words]
    state, _ = _hashmix(cycled, _INIT_B, n_words, _MULT_B)
    return state


def _int_words(value: int) -> list[int]:
    """``value`` as numpy's SeedSequence reads an int: little-endian uint32 words, at least one."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _keyed_states(prefix: list[int], keys: list[int], n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` of the SeedSequence with entropy ``prefix`` and then
    the words of each key, as (n_words, len(keys)) uint32.

    Keys with more words give longer entropies, so each word count is hashed
    as its own group.
    """
    if min(keys, default=0) < 0:
        raise ValueError("expected non-negative integer")
    shifts = range(0, max(max(keys, default=0).bit_length(), 1), 32)
    words = np.array([[key >> shift & _MASK32 for key in keys] for shift in shifts], np.uint32)
    lengths = (np.arange(1, len(words) + 1)[:, None] * (words != 0)).max(axis=0, initial=1)
    out = np.empty((n_words, len(keys)), np.uint32)
    for length in sorted(set(lengths.tolist())):  # np.unique would import numpy.ma
        rows = lengths == length
        group = words[:length, rows]
        out[:, rows] = _seed_sequence(prefix + list(group), group.shape[1], n_words)
    return out


def _uint64s(words: np.ndarray) -> list[list[int]]:
    """Pairs of uint32 rows read as little-endian uint64 rows, as Python ints."""
    wide = words.astype(np.uint64)
    return (wide[0::2] | wide[1::2] << np.uint64(32)).tolist()


def _replication_seeds(base_seed: int, r0: int, r1: int) -> list[int]:
    """``replication_seed(base_seed, r)`` for r in ``r0..r1 - 1``.

    Each is numpy's ``SeedSequence(entropy=base_seed, spawn_key=(r,))
    .generate_state(1, np.uint64)[0]``, bit for bit: the base seed's words,
    zero-padded to the pool size, then the spawn key's.
    """
    base = _int_words(base_seed)
    prefix = base + [0] * (_POOL_SIZE - len(base))
    (seeds,) = _uint64s(_keyed_states(prefix, list(range(r0, r1)), 2))
    return seeds


def replication_seed(base_seed: int, r: int) -> int:
    """The 64-bit seed of replication ``r``: a pure function of its inputs.

    Negative arguments raise numpy's ``ValueError``, as ``SeedSequence`` does.
    """
    base_seed, r = int_setting("base_seed", base_seed), int_setting("r", r)
    return _replication_seeds(base_seed, r, r + 1)[0]


def _pcg64_states(seeds: list[int]) -> list[dict]:
    """The ``.state`` numpy's ``PCG64`` takes from ``SeedSequence(seed)``, for each seed.

    PCG64 seeds from four uint64 words: the first two are the 128-bit
    initial state, the last two the stream, which numpy's
    ``pcg_setseq_128_srandom_r`` turns into an odd increment and two steps.
    """
    state_hi, state_lo, seq_hi, seq_lo = _uint64s(_keyed_states([], seeds, 8))
    states = []
    for hi, lo, inc_hi, inc_lo in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


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
        object.__setattr__(self, "n", int_setting("n", self.n, 30))
        object.__setattr__(self, "innovation_sd", real_setting("innovation_sd", self.innovation_sd, 0))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "beta", real_setting("beta", self.beta))
        object.__setattr__(self, "adjust", real_setting("adjust", self.adjust))
        if not 0.0 < self.adjust <= 1.0:
            raise UsageError(f"adjust must be in (0, 1], got {self.adjust}")

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
    from cointkit.series import MONTHLY, TimeSeries

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
    bit_generator = np.random.PCG64(0)  # every row sets its own state
    rng = np.random.Generator(bit_generator)
    for row, state in zip(innov, _pcg64_states(seeds)):
        bit_generator.state = state
        rng.standard_normal(out=row)
    # A huge innovation_sd overflows; the finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        innov *= dgp.innovation_sd
        if dgp.kind == INDEPENDENT_RANDOM_WALKS:
            np.cumsum(innov, axis=2, out=innov)
        elif dgp.kind == COINTEGRATED_PAIR:
            np.cumsum(innov[:, 0], axis=1, out=innov[:, 0])
            _adjusting_series(innov[:, 0], innov[:, 1], dgp)
    first = np.ascontiguousarray(innov[:, 0, BURN_IN:])
    second = np.ascontiguousarray(innov[:, 1, BURN_IN:])
    _check_finite(first, second)
    return first, second


def _adjusting_series(x: np.ndarray, e: np.ndarray, dgp: DgpSpec) -> None:
    """Overwrites each row of ``e`` with y_t = keep * y_{t-1} + pull * x_{t-1} + e_t, y_0 = e_0.

    The recursion runs time-major, one step for every row at once, in place
    over one transposed copy of ``e``. Each step is three ufunc calls in the
    order of the scalar expression; the last adds ``tmp + e_t``, which is
    bitwise ``(keep * y_{t-1} + pull * x_{t-1}) + e_t``, so each row is
    bitwise the scalar recursion.
    """
    y = np.ascontiguousarray(e.T)
    pull_x = np.multiply(dgp.adjust * dgp.beta, x.T, out=np.empty_like(y))
    keep = np.full(y.shape[1], 1.0 - dgp.adjust)
    tmp = np.empty_like(keep)
    steps = list(y)
    for prev, y_t, pull_x_prev in zip(steps, steps[1:], list(pull_x)):
        np.multiply(keep, prev, tmp)
        np.add(tmp, pull_x_prev, tmp)
        np.add(tmp, y_t, y_t)
    e[...] = y.T


def generate(dgp: DgpSpec) -> tuple[TimeSeries, TimeSeries]:
    """Deterministically generate the pair of series described by ``dgp``.

    For the cointegrated pair the first returned series is the random
    walk x and the second the adjusting series y. Output is monthly with
    an arbitrary fixed calendar start and empty lineage. This is the
    one-seed case of the stacked draw the runners use.
    """
    instance_setting("dgp", dgp, DgpSpec)
    first, second = _generate_stack(dgp, [dgp.seed])
    names = _SERIES_NAMES[dgp.kind]
    return _series(first[0], names[0]), _series(second[0], names[1])


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    total = int_setting("total", total)
    if total <= 0:
        raise UsageError("total must be positive")
    successes = int_setting("successes", successes, 0, total)
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

    The replication count and the base seed are checked here, before any replication runs.
    """
    settings["reps"] = int_setting("reps", settings["reps"], MIN_REPLICATIONS)
    settings["base_seed"] = _seed(settings["base_seed"])
    config = {"experiment": experiment, "prng": PRNG_ID, "burn_in": BURN_IN, **settings}
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    return config, digest


@dataclass(frozen=True)
class ExperimentResult(JsonRecord):
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
        object.__setattr__(self, "lags", int_setting("lags", self.lags, 0))
        object.__setattr__(self, "trend", flag_setting("trend", self.trend))
        instance_setting("det", self.det, DeterministicSpec)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "lags": self.lags, "trend": self.trend}
        if self.kind == ADF:
            out["deterministic"] = self.det.label()
        return out


# Each block function gives the statistics of the replications whose series
# are the rows of ``first`` and ``second``, solved as one stack, bitwise equal
# to running the public estimator on each replication alone. Run on a stack
# of one, it is that scalar path. The runners bind a block's settings with
# ``functools.partial`` and apply critical values and thresholds once, to the
# statistics of every replication.
_Block = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _size_block(test: TestConfig, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The test statistic of each replication.

    eg-differences differences both stacks whole, by the rule ``_adf`` uses.
    """
    if test.kind == EG_DIFFERENCES:
        first, second = _difference(first), _difference(second)
    if test.kind == ADF:
        solution, _ = _adf(first, test.lags, test.det.constant, test.det.trend)
    else:
        solution, _ = _eg_stage_two(_levels_regression(first, second, test.trend).resid, first, test.lags)
    return solution.t_stats[:, 0]


def _spurious_block(trend: bool, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``estimate_levels`` of the first walk on the second: the slope's t-ratio."""
    return _levels_regression(first, second, trend).t_stats[:, 0]


def _ect_unit_root_block(
    spec: EcmSpec, lags: int, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """``estimate_levels`` of the first walk on the second, then the ADF statistic of
    its first n - ect_lag residuals (``estimate_ecm``'s ECT series). No ARDL stage is
    solved, and degeneracy is judged on the scale of the first walk."""
    levels = _levels_regression(first, second, spec.include_trend)
    ect = levels.resid[:, : first.shape[1] - spec.ect_lag]
    solution, _ = _eg_stage_two(ect, first, lags)
    return solution.t_stats[:, 0]


def _recovery_block(spec: EcmSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``estimate_ecm`` of y on x: (ECT coefficient, its t-ratio) per replication."""
    from cointkit.ecm import _ecm_regressions
    from cointkit.series import MONTHLY

    _, ardl = _ecm_regressions(y, x, spec, MONTHLY)
    col = ardl.names.index(f"ect_l{spec.ect_lag}")
    return np.stack([ardl.beta[:, col], ardl.t_stats[:, col]], axis=-1)


def _outcome_chunk(block: _Block, dgp: DgpSpec, base_seed: int, r0: int, r1: int) -> np.ndarray:
    """``block``'s statistics of replications ``r0``..``r1 - 1``, drawn
    ``_draw_rows(dgp.n)`` and solved ``BLOCK_SIZE`` at a time."""
    pieces: list[np.ndarray] = []
    rows = _draw_rows(dgp.n)
    for d0 in range(r0, r1, rows):
        seeds = _replication_seeds(base_seed, d0, min(d0 + rows, r1))
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
    workers = int_setting("workers", workers)
    max_workers = os.cpu_count() or 1
    if not 1 <= workers <= max_workers:
        raise UsageError(f"workers must be in 1..{max_workers} (the CPU count), got {workers}")
    if workers == 1:
        return _outcome_chunk(block, dgp, base_seed, 0, reps)
    # Whole kernel blocks per worker, split as evenly as the block count allows.
    n_blocks = -(-reps // BLOCK_SIZE)
    bounds = [min(n_blocks * w // workers * BLOCK_SIZE, reps) for w in range(workers + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    from concurrent.futures import ProcessPoolExecutor

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

    The critical values depend on the effective sample size alone, which the
    configuration fixes. So does the guard, which reads lineage alone: it
    runs once, before any replication, on the DGP's two series differenced
    once, and a miss raises :class:`MissingGuardWarning`.
    """
    if test.kind != ADF:
        int_setting("lags", test.lags, 0, MAX_LAGS)  # the Engle-Granger lag bound
    n_eff = _adf_sample(dgp.n - 1 if test.kind == EG_DIFFERENCES else dgp.n, test.lags)
    if test.kind == ADF:
        cvs = adf_critical_values(n_eff, test.det)
    else:
        cvs = eg_critical_values(n_eff, test.trend)
    if test.kind == EG_DIFFERENCES:
        from cointkit.cointegration import differencing_warning
        from cointkit.series import iterated_difference

        raw = (_series(np.zeros(2), name) for name in _SERIES_NAMES[dgp.kind])  # any values
        if differencing_warning(*(iterated_difference(x, 1) for x in raw)) is None:
            raise MissingGuardWarning()
    stats = _run_replications(partial(_size_block, test), dgp, config, workers)
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
    test = instance_setting("test", test, TestConfig)
    dgp = instance_setting("dgp", dgp, DgpSpec)
    config, digest = _config(
        "size",
        test=test.to_json_dict(),
        dgp=dgp.to_json_dict(),
        reps=reps,
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
    instead of being silently counted. The guard reads lineage alone, which
    every replication shares, so it runs once, before any replication is
    drawn; the blocks difference their walks as whole stacks.
    """
    level = int_setting("level", level)
    if level not in LEVELS:
        raise UsageError(f"level must be one of {LEVELS}, got {level}")
    test = TestConfig(kind=EG_DIFFERENCES)
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, n, innovation_sd, 0)
    config, digest = _config(
        "false_positive",
        test=test.to_json_dict(),
        dgp=dgp.to_json_dict(),
        reps=reps,
        level=level,
        levels=list(LEVELS),
        base_seed=base_seed,
    )
    return _size_result(test, dgp, config, digest, workers)


@dataclass(frozen=True)
class SpuriousSlopeResult(JsonRecord):
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
    threshold = real_setting("threshold", threshold)
    include_trend = flag_setting("include_trend", include_trend)
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, n, innovation_sd)
    config, digest = _config(
        "spurious_regression",
        n=dgp.n,
        innovation_sd=dgp.innovation_sd,
        threshold=threshold,
        include_trend=include_trend,
        reps=reps,
        base_seed=base_seed,
    )
    slope_t = _run_replications(partial(_spurious_block, include_trend), dgp, config, workers)
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
    from cointkit.ecm import EcmSpec, _ardl_rows
    from cointkit.series import MONTHLY

    spec = EcmSpec(MONTHLY) if ecm_spec is None else instance_setting("ecm_spec", ecm_spec, EcmSpec)
    lags = int_setting("lags", lags, 0)
    dgp = DgpSpec(INDEPENDENT_RANDOM_WALKS, n, innovation_sd)
    config, digest = _config(
        "ect_unit_root",
        n=dgp.n,
        innovation_sd=dgp.innovation_sd,
        ecm_spec=spec.to_json_dict(),
        adf_lags=lags,
        cv_variables=2,
        reps=reps,
        levels=list(LEVELS),
        base_seed=base_seed,
    )
    _ardl_rows(dgp.n, spec, MONTHLY)
    # The ECT series has n - ect_lag observations.
    cvs = eg_critical_values(_adf_sample(dgp.n - spec.ect_lag, lags), spec.include_trend)
    stats = _run_replications(partial(_ect_unit_root_block, spec, lags), dgp, config, workers)
    return _rejection_result(stats, cvs, config, digest)


@dataclass(frozen=True)
class EctRecoveryResult(JsonRecord):
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
    from cointkit.ecm import EcmSpec, _ardl_rows
    from cointkit.series import MONTHLY

    t_threshold = real_setting("t_threshold", t_threshold)
    try:
        bounds = tuple(real_setting("band", bound) for bound in band)
    except (TypeError, UsageError):  # not iterable, or a bound that is not a finite real
        bounds = ()
    if len(bounds) != 2 or not bounds[0] < bounds[1]:
        raise UsageError(f"band must be two finite bounds with lo < hi, got {band!r}")
    band = lo, hi = bounds
    spec = EcmSpec(1) if ecm_spec is None else instance_setting("ecm_spec", ecm_spec, EcmSpec)
    dgp = DgpSpec(COINTEGRATED_PAIR, n, innovation_sd, beta=beta, adjust=adjust)
    config, digest = _config(
        "ect_recovery",
        n=dgp.n,
        innovation_sd=dgp.innovation_sd,
        beta=dgp.beta,
        adjust=dgp.adjust,
        ecm_spec=spec.to_json_dict(),
        band=list(band),
        t_threshold=t_threshold,
        reps=reps,
        base_seed=base_seed,
    )
    _ardl_rows(dgp.n, spec, MONTHLY)
    coef, t = _run_replications(partial(_recovery_block, spec), dgp, config, workers).T
    in_band = (lo < coef) & (coef < hi)
    t_ok = t < t_threshold
    joint = int(np.count_nonzero(in_band & t_ok))
    return EctRecoveryResult(
        replications=len(coef),
        band=band,
        t_threshold=t_threshold,
        in_band_count=int(np.count_nonzero(in_band)),
        t_ok_count=int(np.count_nonzero(t_ok)),
        joint_count=joint,
        joint_rate=joint / len(coef),
        wilson_interval_95=wilson_interval(joint, len(coef)),
        median_coefficient=median(coef),
        median_t_stat=median(t),
        seed=config["base_seed"],
        config=config,
        config_digest=digest,
    )
