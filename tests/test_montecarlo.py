import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cointkit.cointegration as coint
import cointkit.montecarlo as mc
from cointkit.cli import main
from cointkit.cointegration import (
    NORMALIZE_FIRST,
    UNTRANSFORMED,
    WARN_DIFFERENCED,
    EgSpec,
    engle_granger_test,
)
from cointkit.critvals import LEVELS, DeterministicSpec
from cointkit.ecm import EcmSpec, _ecm_regressions, estimate_ecm, estimate_levels
from cointkit.errors import (
    DataError,
    MissingGuardWarning,
    RankDeficient,
    SeriesTooShort,
    UsageError,
)
from cointkit.regression import _adf, _eg_stage_two, _levels_regression
from cointkit.series import ITERATED_DIFF, MONTHLY, TimeSeries, TransformTag, iterated_difference
from cointkit.unitroot import adf_regression, adf_test


class TestDgp:
    def test_validation(self):
        with pytest.raises(UsageError):
            mc.DgpSpec("brownian", 100)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 10)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 100, adjust=0.0)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 100, adjust=1.5)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, innovation_sd=-1.0)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, innovation_sd=float("inf"))
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 100, beta=float("inf"))
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=2**64)

    def test_same_seed_is_bitwise_identical(self):
        for kind in (mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR):
            a1, b1 = mc.generate(mc.DgpSpec(kind, 100, seed=99))
            a2, b2 = mc.generate(mc.DgpSpec(kind, 100, seed=99))
            assert np.array_equal(a1.values, a2.values)
            assert np.array_equal(b1.values, b2.values)

    def test_different_seeds_differ(self):
        a1, _ = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=1))
        a2, _ = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=2))
        assert not np.array_equal(a1.values, a2.values)

    def test_zero_innovation_limit_is_identically_zero(self):
        for kind in (mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR):
            a, b = mc.generate(mc.DgpSpec(kind, 60, innovation_sd=0.0, seed=3))
            assert np.array_equal(a.values, np.zeros(60))
            assert np.array_equal(b.values, np.zeros(60))

    def test_requested_length_and_raw_lineage(self):
        a, b = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 123, seed=4))
        assert len(a) == len(b) == 123
        assert a.lineage == () and b.lineage == ()

    def test_cointegrated_equilibrium_error_is_mean_zero(self):
        # beta*x - y is a stationary AR(1) with coefficient 1-adjust; for
        # beta=2, adjust=0.5, unit innovations its variance is 5/(1-0.25)
        # and the standard error of its mean over n=1000 is about 0.14.
        x, y = mc.generate(mc.DgpSpec(mc.COINTEGRATED_PAIR, 1000, seed=5, beta=2.0, adjust=0.5))
        z = 2.0 * x.values - y.values
        assert abs(z.mean()) <= 3 * 0.142


_KINDS = [mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR]


def _scalar_pair(dgp):
    """``dgp``'s pair drawn one replication at a time, the recursion on Python floats."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(dgp.seed)))
    innov = rng.standard_normal((2, dgp.n + mc.BURN_IN)) * dgp.innovation_sd
    if dgp.kind == mc.WHITE_NOISE_PAIR:
        return innov[0][mc.BURN_IN :], innov[1][mc.BURN_IN :]
    x = np.cumsum(innov[0])
    if dgp.kind == mc.INDEPENDENT_RANDOM_WALKS:
        return x[mc.BURN_IN :], np.cumsum(innov[1])[mc.BURN_IN :]
    keep, pull = 1.0 - dgp.adjust, dgp.adjust * dgp.beta
    y = [innov[1][0]]
    for x_prev, e_t in zip(x.tolist(), innov[1][1:].tolist()):
        y.append(keep * y[-1] + pull * x_prev + e_t)
    return x[mc.BURN_IN :], np.array(y[mc.BURN_IN :])


class TestGenerateStack:
    """Each row of a stacked draw is bitwise the one-seed ``generate``."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_generate_equals_scalar_reference(self, kind, monkeypatch):
        # The recursion runs in chunks of time steps. With chunks of 200, n +
        # BURN_IN falls below one chunk, on it, one and two past it, and two
        # chunks plus one; then the same at the module's own chunk length.
        cases = [(200, n) for n in (60, 100, 101, 102, 301)]
        cases += [(mc._CHUNK_STEPS, n) for n in (60, 61, 62)]
        for chunk, n in cases:
            monkeypatch.setattr(mc, "_CHUNK_STEPS", chunk)
            for sd, beta, adjust in ((1.0, 1.0, 0.5), (2.5, -0.7, 0.3), (0.37, 2.0, 1.0)):
                dgp = mc.DgpSpec(kind, n, sd, seed=mc.replication_seed(6, 1), beta=beta, adjust=adjust)
                a, b = mc.generate(dgp)
                first, second = _scalar_pair(dgp)
                assert a.values.tobytes() == first.tobytes()
                assert b.values.tobytes() == second.tobytes()

    @pytest.mark.parametrize("sd", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("n", [30, 300])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_rows_equal_generate(self, kind, n, sd):
        dgp = mc.DgpSpec(kind, n, sd, beta=1.7, adjust=0.3)
        for size in (256, 200, 64, 17, 1):
            seeds = [mc.replication_seed(6, r) for r in range(size)]
            first, second = mc._generate_stack(dgp, seeds)
            assert first.shape == second.shape == (size, n)
            # Views of the one innovation buffer the draw ran in, each row contiguous.
            assert first.base is second.base and first.base.shape == (size, 2, n + mc.BURN_IN)
            assert first.strides[1] == second.strides[1] == first.itemsize
            for i, seed in enumerate(seeds):
                a, b = mc.generate(replace(dgp, seed=seed))
                assert first[i].tobytes() == a.values.tobytes()
                assert second[i].tobytes() == b.values.tobytes()

    @pytest.mark.parametrize(
        "block",
        [
            partial(mc._size_block, mc.TestConfig(mc.EG_LEVELS, lags=2, trend=True)),
            partial(mc._size_block, mc.TestConfig(mc.EG_DIFFERENCES, lags=2)),
            partial(mc._size_block, mc.TestConfig(mc.ADF, lags=2, det=DeterministicSpec.constant_trend())),
            partial(mc._spurious_block, True),
            partial(mc._ect_unit_root_block, EcmSpec(MONTHLY), 1),
            partial(mc._recovery_block, EcmSpec(1)),
        ],
        ids=["eg-levels", "eg-differences", "adf", "spurious", "ect-unit-root", "recovery"],
    )
    def test_blocks_give_the_same_statistics_on_views_and_copies(self, block):
        kind = mc.COINTEGRATED_PAIR if block.func is mc._recovery_block else mc.INDEPENDENT_RANDOM_WALKS
        dgp = mc.DgpSpec(kind, 80, beta=1.7, adjust=0.3)
        first, second = mc._generate_stack(dgp, [mc.replication_seed(6, r) for r in range(40)])
        assert not first.flags.c_contiguous and not second.flags.c_contiguous
        for rows in (slice(None), slice(16, 32), slice(39, 40)):
            views = block(first[rows], second[rows])
            copies = block(np.ascontiguousarray(first[rows]), np.ascontiguousarray(second[rows]))
            assert views.tobytes() == copies.tobytes()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_overflow_raises_the_same_error_without_warnings(self, kind):
        dgp = mc.DgpSpec(kind, 60, 1e308, seed=mc.replication_seed(6, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as scalar:
                mc.generate(dgp)
            with pytest.raises(DataError) as stacked:
                mc._generate_stack(dgp, [dgp.seed])
            with pytest.raises(DataError):
                mc._generate_stack(dgp, [mc.replication_seed(6, r) for r in range(64)])
        assert str(scalar.value).startswith("non-finite value at position ")
        assert str(stacked.value) == str(scalar.value)

    @pytest.mark.parametrize("n", [30, 600, 10_000])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_draw_works_in_place(self, kind, n):
        # The draw's peak working set, innovations and results included, per
        # row-step (a row times n + BURN_IN steps). The first draw in a
        # process also imports numpy's seeding modules, so a warm draw is traced.
        rows = mc._draw_rows(n)
        dgp = mc.DgpSpec(kind, n, beta=1.7, adjust=0.3)
        seeds = mc._replication_seeds(6, 0, rows)
        mc._generate_stack(dgp, seeds[:1])
        tracemalloc.start()
        try:
            mc._generate_stack(dgp, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * rows * (n + mc.BURN_IN)

    def test_recursion_allocates_only_its_chunk_buffers(self):
        # Two (chunk, rows) buffers of scratch, a few rows and the views of the
        # buffers; never a copy of the (rows, n + BURN_IN) stack.
        rows, total = mc._draw_rows(600), 600 + mc.BURN_IN
        x = np.cumsum(np.ones((rows, total)), axis=1)
        e = np.ones((rows, total))
        dgp = mc.DgpSpec(mc.COINTEGRATED_PAIR, 600, beta=1.7, adjust=0.3)
        tracemalloc.start()
        try:
            mc._adjusting_series(x, e, dgp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * rows * mc._CHUNK_STEPS + 4 * 8 * rows + 16384

    def test_finiteness_check_holds_one_mask(self):
        # One boolean mask of a series' size at a time, plus numpy's fixed
        # 8192-element buffer for a strided input; never one mask per series at once.
        dgp = mc.DgpSpec(mc.COINTEGRATED_PAIR, 600)
        first, second = mc._generate_stack(dgp, mc._replication_seeds(0, 0, 200))
        mc.check_finite(first, second)
        tracemalloc.start()
        try:
            mc.check_finite(first, second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= first.size + 8 * 8192 + 4096

    @pytest.mark.parametrize(
        "n, reps, draws", [(60, 600, [256, 256, 88]), (600, 200, [200]), (10_000, 130, [64, 64, 2])]
    )
    def test_draw_rows_shrink_for_long_series(self, monkeypatch, n, reps, draws):
        drawn = []
        real = mc._generate_stack

        def generate_stack(dgp, seeds):
            drawn.append(len(seeds))
            return real(dgp, seeds)

        monkeypatch.setattr(mc, "_generate_stack", generate_stack)
        dgp = mc.DgpSpec(mc.WHITE_NOISE_PAIR, n)
        stats = mc._outcome_chunk(lambda first, second: first[:, 0], dgp, 6, 0, reps)
        assert drawn == draws
        assert len(stats) == reps


class TestSeeds:
    def test_replication_seed_is_pure(self):
        assert mc.replication_seed(42, 7) == mc.replication_seed(42, 7)

    def test_replication_seed_varies(self):
        seeds = {mc.replication_seed(42, r) for r in range(200)}
        assert len(seeds) == 200
        assert mc.replication_seed(42, 0) != mc.replication_seed(43, 0)


_UINT64 = st.integers(0, 2**64 - 1)


def _numpy_seed(base_seed, r):
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(r,))
    return int(ss.generate_state(1, np.uint64)[0])


class TestStackedSeedingEqualsNumpy:
    """The stacked SeedSequence hash against numpy's own, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        base_seed=st.integers(0, 2**128 - 1),
        r0=st.one_of(_UINT64, st.integers(2**32 - 70, 2**32 - 1)),
        size=st.integers(1, 70),
    )
    def test_replication_seeds(self, base_seed, r0, size):
        r1 = min(r0 + size, 2**64)
        expected = [_numpy_seed(base_seed, r) for r in range(r0, r1)]
        assert mc._replication_seeds(base_seed, r0, r1) == expected
        assert mc.replication_seed(base_seed, r0) == expected[0]

    @pytest.mark.parametrize("base_seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**201])
    def test_stack_straddling_two_word_spawn_keys(self, base_seed):
        # Indices from 2**32 on take a two-word spawn key: a longer entropy.
        r0, r1 = 2**32 - 5, 2**32 + 5
        expected = [_numpy_seed(base_seed, r) for r in range(r0, r1)]
        assert mc._replication_seeds(base_seed, r0, r1) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(_UINT64, st.integers(0, 2**32 - 1)), min_size=1, max_size=70))
    def test_pcg64_states(self, seeds):
        expected = [np.random.PCG64(np.random.SeedSequence(s)).state for s in seeds]
        assert list(mc._pcg64_states(seeds)) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_UINT64, min_size=1, max_size=8))
    def test_reused_generator_draws(self, seeds):
        dgp = mc.DgpSpec(mc.WHITE_NOISE_PAIR, 30)
        first, second = mc._generate_stack(dgp, seeds)
        for i, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            innov = rng.standard_normal((2, dgp.n + mc.BURN_IN))[:, mc.BURN_IN :]
            assert first[i].tobytes() == innov[0].tobytes()
            assert second[i].tobytes() == innov[1].tobytes()

    @pytest.mark.parametrize("base_seed, r", [(-1, 0), (0, -1), (-(2**70), 3), (5, -(2**40))])
    def test_negative_arguments_raise(self, base_seed, r):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            mc.replication_seed(base_seed, r)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            mc._replication_seeds(base_seed, r, r + 3)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            mc._pcg64_states([3, min(base_seed, r)])

    def test_runners_construct_no_seed_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SeedSequence was constructed")

        expected = _RUNNERS["ect_recovery"](base_seed=3)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert _RUNNERS["ect_recovery"](base_seed=3) == expected
        assert mc.replication_seed(3, 0) == mc._replication_seeds(3, 0, 1)[0]


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(mc.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )


def _fresh_run(code: str) -> tuple[list[str], list[str]]:
    """``code``'s stdout lines in a fresh interpreter, and the cointkit submodules whose code ran.

    LazyLoader puts a module in sys.modules before its code runs, and
    ``-X importtime`` never logs that code, so a module counts as run once
    its class is no longer the lazy one.
    """
    code += (
        "\nimport importlib.util, sys"
        "\nprint(*sorted(name.split('.', 1)[1] for name, m in sys.modules.items()"
        " if name.startswith('cointkit.') and type(m) is not importlib.util._LazyModule))"
    )
    *lines, executed = _fresh_python("-c", code).stdout.splitlines()
    return lines, executed.split()


def test_fresh_imports_load_only_what_they_use():
    # The CLI registers montecarlo, the series and the estimator layers without
    # running them, and imports no numpy.
    lines, executed = _fresh_run(
        "import sys, cointkit.cli; "
        "print(*(name in sys.modules for name in ('numpy', 'hashlib', 'concurrent.futures.process')))"
    )
    assert lines == ["False False False"]
    assert executed == ["cli", "errors", "formats", "ingest", "periods"]
    # A size experiment runs on the OLS core and the critical values alone.
    _, executed = _fresh_run(
        "import numpy, cointkit as ck; ck.run_size_experiment(ck.TestConfig('eg-levels', lags=12), "
        "ck.DgpSpec('independent_random_walks', 60), reps=100, base_seed=0)"
    )
    assert executed == ["critvals", "errors", "formats", "montecarlo", "regression"]
    # The ECT recovery experiment runs the ECM layer, but no Engle-Granger or ADF layer.
    _, executed = _fresh_run(
        "import numpy, cointkit as ck; ck.run_ect_recovery_experiment(60, 100, 0, ecm_spec=ck.EcmSpec(1))"
    )
    assert "ecm" in executed and "cointegration" not in executed and "unitroot" not in executed
    # eg and grid run no ECM code. numpy >= 2 imports numpy.ma only when asked,
    # and np.median's NaN check asks.
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    pair = ["--input", os.path.join(inputs, "walk_a.csv"), "--input2", os.path.join(inputs, "walk_b.csv")]
    lines, executed = _fresh_run(
        "import sys; from cointkit.cli import main; "
        f"codes = [main([command, *{pair!r}]) for command in ('eg', 'grid')]; "
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    assert lines[-1].startswith("[0, 0] ")
    if int(np.__version__.split(".")[0]) >= 2:
        assert lines[-1] == "[0, 0] False"
    assert "cointegration" in executed and "ecm" not in executed
    # ecm's companion check is stage two of the ECM's own levels fit: the
    # Engle-Granger layer stays registered and lazy.
    pair = ["--input", os.path.join(inputs, "coint_y.csv"), "--input2", os.path.join(inputs, "coint_x.csv")]
    lines, executed = _fresh_run(
        "import sys; from cointkit.cli import main; "
        f"print(main(['ecm', *{pair!r}]), type(sys.modules['cointkit.cointegration']).__name__)"
    )
    assert lines[-1] == "0 _LazyModule"
    assert "ecm" in executed and "cointegration" not in executed
    # After a bare ``import cointkit``, submodules and exports load on first
    # use, and a pool run pickles the lazily loaded runner's arguments.
    code = (
        "import sys, json, cointkit as ck; "
        "print('cointkit.regression' in sys.modules, ck.regression.__name__, ck.errors.__name__); "
        "run = lambda workers: ck.run_size_experiment(ck.TestConfig('eg-levels'), "
        "ck.DgpSpec('independent_random_walks', 60), reps=100, base_seed=3, workers=workers); "
        "print(json.dumps(run(2).to_json_dict()) == json.dumps(run(1).to_json_dict()))"
    )
    assert _fresh_python("-c", code).stdout.split() == [
        "False", "cointkit.regression", "cointkit.errors", "True"
    ]


_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.mark.skipif(
    not os.path.exists(os.path.join(_PERFBENCH, "tracer.py")),
    reason="the benchmark's perfbench/tracer.py is not in this tree",
)
def test_benchmark_tracer_finds_every_module_it_patches():
    # The tracer looks each module it patches up in sys.modules after
    # importing the CLI and reading a Monte Carlo name, then each function
    # and method it wraps, so a deletion or rename that would break
    # ``run.py --trace 1`` fails here.
    lines, _ = _fresh_run(
        f"import sys; sys.path.insert(0, {_PERFBENCH!r}); import tracer, cointkit.cli, cointkit.montecarlo\n"
        "cointkit.montecarlo.PRNG_ID\n"
        "def missing(target):\n"
        "    module = sys.modules.get(target[0])\n"
        "    if module is None: return True\n"
        "    if len(target) == 2: return not hasattr(module, target[1])\n"
        "    return target[2] not in vars(getattr(module, target[1], object))\n"
        "targets = [t for group in (tracer.FUNCTIONS, tracer.METHODS) for ts in group.values() for t in ts]\n"
        "print(sorted({t[0] for t in targets})); print([t for t in targets if missing(t)])"
    )
    assert "'cointkit.unitroot'" in lines[0] and lines[1] == "[]"


def test_package_exports_every_name_in_all():
    import cointkit as ck

    assert ck.run_size_experiment is mc.run_size_experiment
    star: dict = {}
    exec("from cointkit import *", star)
    assert set(ck.__all__) <= set(star)
    assert all(star[name] is getattr(ck, name) for name in ck.__all__)
    assert set(ck.__all__) <= set(dir(ck))
    with pytest.raises(AttributeError, match="no_such_name"):
        ck.no_such_name


class TestWilson:
    def test_brackets_point_rate(self):
        for k, n in ((0, 100), (3, 100), (50, 100), (100, 100), (999, 1000)):
            lo, hi = mc.wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_width_shrinks_with_replications(self):
        lo1, hi1 = mc.wilson_interval(10, 100)
        lo2, hi2 = mc.wilson_interval(1000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    @pytest.mark.parametrize("k, n", [(5, 3), (-1, 10), (11, 10), (0, 0)])
    def test_rejects_impossible_counts(self, k, n):
        with pytest.raises(UsageError):
            mc.wilson_interval(k, n)


class TestFalsePositiveExperiment:
    def test_small_sample_rate_still_extreme(self):
        result = mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=7)
        assert result.rejection_rate[1] >= 0.95
        assert result.guard_warning_count == 100

    def test_rejects_too_few_replications(self):
        with pytest.raises(UsageError):
            mc.run_false_positive_experiment(n=50, reps=50, level=1, base_seed=7)

    def test_rejects_unknown_level(self):
        with pytest.raises(UsageError):
            mc.run_false_positive_experiment(n=50, reps=100, level=2, base_seed=7)

    def test_missing_guard_fails_loudly(self, monkeypatch):
        # A configuration check: raised before any replication is drawn, so it
        # names no replication.
        def no_draw(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(coint, "differencing_warning", lambda a, b: None)
        monkeypatch.setattr(mc, "_generate_stack", no_draw)
        with pytest.raises(MissingGuardWarning) as caught:
            mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=7)
        assert str(caught.value) == "differenced-input guard did not fire on differenced data"
        assert not hasattr(caught.value, "replication")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 16])
    def test_guard_runs_once_per_experiment(self, monkeypatch, block_size, workers):
        # The guard reads lineage alone, which the configuration fixes, so it
        # runs once, before any draw, and the replications build no series.
        # Two workers run as threads, so this process sees everything they do.
        guards, built = [], []
        real_guard, real_init = coint.differencing_warning, TimeSeries.__post_init__
        real_generate = mc._generate_stack

        def differencing_warning(a, b):
            guards.append((a.lineage, b.lineage))
            return real_guard(a, b)

        def post_init(series):
            built.append(series.name)
            real_init(series)

        def generate_stack(dgp, seeds):
            assert len(guards) == 1, "a replication was drawn before the guard ran"
            return real_generate(dgp, seeds)

        monkeypatch.setattr(coint, "differencing_warning", differencing_warning)
        monkeypatch.setattr(TimeSeries, "__post_init__", post_init)
        monkeypatch.setattr(mc, "_generate_stack", generate_stack)
        monkeypatch.setattr(mc, "BLOCK_SIZE", block_size)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ThreadPool)
        result = mc.run_false_positive_experiment(
            n=50, reps=100, level=1, base_seed=7, workers=workers
        )
        assert result.guard_warning_count == 100
        assert guards == [((TransformTag(ITERATED_DIFF, 1, 1),),) * 2]
        assert built == ["walk_a", "walk_a", "walk_b", "walk_b"]  # each raw, then its difference


class TestSizeExperiment:
    def test_levels_test_near_nominal_size(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 200),
            reps=200,
            base_seed=11,
        )
        assert 0.0 <= result.rejection_rate[5] <= 0.12
        lo, hi = result.wilson_interval_95[5]
        assert lo <= result.rejection_rate[5] <= hi

    def test_power_against_cointegrated_alternative(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 300, adjust=0.3),
            reps=150,
            base_seed=12,
        )
        assert result.rejection_rate[5] >= 0.9

    def test_adf_power_on_white_noise(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.ADF, det=DeterministicSpec.constant_only()),
            mc.DgpSpec(mc.WHITE_NOISE_PAIR, 300),
            reps=200,
            base_seed=13,
        )
        assert result.rejection_rate[5] >= 0.99

    @pytest.mark.parametrize("reps", [101, 161])
    def test_worker_count_does_not_change_results(self, monkeypatch, reps):
        # Every runner, with a partial last block and pool chunks of unequal
        # size. With draws of 64, at 161 replications the second worker's
        # chunk (80..160) spans a full 64-replication draw and a partial one.
        # Two workers are allowed on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "GENERATE_SIZE", 64)
        runners = {
            "size": lambda w: mc.run_size_experiment(
                mc.TestConfig(kind=mc.EG_LEVELS, lags=1),
                mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60),
                reps=reps,
                base_seed=14,
                workers=w,
            ),
            "false_positive": lambda w: mc.run_false_positive_experiment(
                n=50, reps=reps, base_seed=14, workers=w
            ),
            "spurious": lambda w: mc.run_spurious_regression_experiment(
                n=60, reps=reps, base_seed=14, workers=w
            ),
            "ect_unit_root": lambda w: mc.run_ect_unit_root_experiment(
                n=60, reps=reps, base_seed=14, workers=w
            ),
            "ect_recovery": lambda w: mc.run_ect_recovery_experiment(
                n=60, reps=reps, base_seed=14, workers=w
            ),
        }
        for name, run in runners.items():
            assert run(1).to_json_dict() == run(2).to_json_dict(), name

    def test_rates_stable_across_base_seeds(self):
        results = [
            mc.run_size_experiment(
                mc.TestConfig(kind=mc.EG_LEVELS),
                mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 150),
                reps=400,
                base_seed=seed,
            )
            for seed in (110, 111, 112, 113, 114)
        ]
        for r1 in results:
            for r2 in results:
                lo, hi = r2.wilson_interval_95[5]
                assert lo <= r1.rejection_rate[5] <= hi


def _five_runners(reps: int) -> dict:
    """Each runner's result for ``reps`` replications of base seed 15, series of 60."""
    return {
        "size": mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS, lags=1),
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 60, adjust=0.3),
            reps=reps,
            base_seed=15,
        ).to_json_dict(),
        "false_positive": mc.run_false_positive_experiment(
            n=60, reps=reps, base_seed=15
        ).to_json_dict(),
        "spurious": mc.run_spurious_regression_experiment(
            n=60, reps=reps, base_seed=15
        ).to_json_dict(),
        "ect_unit_root": mc.run_ect_unit_root_experiment(
            n=60, reps=reps, base_seed=15
        ).to_json_dict(),
        "ect_recovery": mc.run_ect_recovery_experiment(
            n=60, reps=reps, base_seed=15
        ).to_json_dict(),
    }


class TestDrawSize:
    def test_draw_size_does_not_change_results(self, monkeypatch):
        # 300 replications span two draws at the default size.
        assert mc._draw_rows(60) < 300
        reference = _five_runners(300)
        for size in (1, 7, 64):
            monkeypatch.setattr(mc, "GENERATE_SIZE", size)
            assert _five_runners(300) == reference, size


_SPLIT_BLOCKS = (mc.EG_LEVELS, mc.EG_DIFFERENCES, mc.ADF, "spurious", "ect-unit-root", "ect-recovery")


def _split_block(name, n):
    """One of the five block functions, bound as its runner binds it, and its DGP."""
    walks = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, n)
    if name in (mc.EG_LEVELS, mc.EG_DIFFERENCES, mc.ADF):
        test = mc.TestConfig(kind=name, lags=1)
        return partial(mc._size_block, test), walks
    if name == "spurious":
        return partial(mc._spurious_block, False), walks
    if name == "ect-unit-root":
        return partial(mc._ect_unit_root_block, EcmSpec(seasonal_gap=MONTHLY), 1), walks
    pair = mc.DgpSpec(mc.COINTEGRATED_PAIR, n, adjust=0.3)
    return partial(mc._recovery_block, EcmSpec(seasonal_gap=1)), pair


class TestSplitInvariance:
    """Any run of replications, drawn and solved in stacks of any size, gives
    bitwise the statistics of its replications run one at a time."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(_SPLIT_BLOCKS),
        n=st.integers(30, 60),
        r0=st.integers(0, 300),
        reps=st.integers(1, 40),
        generate_size=st.integers(1, 48),
        block_size=st.integers(1, 24),
    )
    def test_chunk_equals_replications_one_at_a_time(
        self, name, n, r0, reps, generate_size, block_size
    ):
        block, dgp = _split_block(name, n)
        seeds = mc._replication_seeds(13, r0, r0 + reps)
        alone = np.concatenate([block(*mc._generate_stack(dgp, [seed])) for seed in seeds])
        # Patched in the example's own scope: @given runs many examples in one test call.
        with mock.patch.object(mc, "GENERATE_SIZE", generate_size), mock.patch.object(
            mc, "BLOCK_SIZE", block_size
        ):
            assert mc._draw_rows(n) == generate_size
            chunk = mc._outcome_chunk(block, dgp, 13, r0, r0 + reps)
        assert chunk.shape == alone.shape
        assert chunk.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", [mc.EG_LEVELS, "ect-recovery"])
    @settings(max_examples=20, deadline=None)
    @given(
        base_seed=_UINT64,
        generate_size=st.integers(1, 40),
        reps=st.integers(1, 120),
        cuts=st.lists(st.integers(1, 119), max_size=4),
    )
    def test_chunks_at_any_cuts_concatenate_to_one_chunk(
        self, name, base_seed, generate_size, reps, cuts
    ):
        # What --workers rests on, at cuts that need not be block multiples
        # and base seeds that no golden uses.
        block, dgp = _split_block(name, 40)
        if name == mc.EG_LEVELS:  # with two lags, as the size experiments mostly run it
            block = partial(mc._size_block, mc.TestConfig(mc.EG_LEVELS, lags=2))
        bounds = sorted({0, reps, *(cut for cut in cuts if cut < reps)})
        with mock.patch.object(mc, "GENERATE_SIZE", generate_size):
            whole = mc._outcome_chunk(block, dgp, base_seed, 0, reps)
            chunks = [mc._outcome_chunk(block, dgp, base_seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        joined = np.concatenate(chunks)
        assert joined.shape == whole.shape
        assert joined.tobytes() == whole.tobytes()


class TestDigest:
    def test_digest_changes_with_any_field(self):
        base = dict(
            test=mc.TestConfig(kind=mc.EG_LEVELS),
            dgp=mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60),
            reps=100,
            base_seed=1,
        )
        reference = mc.run_size_experiment(**base)
        variants = [
            dict(base, test=mc.TestConfig(kind=mc.EG_LEVELS, lags=1)),
            dict(base, dgp=mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 61)),
            dict(base, reps=101),
            dict(base, base_seed=2),
        ]
        for kwargs in variants:
            assert mc.run_size_experiment(**kwargs).config_digest != reference.config_digest

    def test_digest_stable_for_identical_config(self):
        kwargs = dict(
            test=mc.TestConfig(kind=mc.ADF),
            dgp=mc.DgpSpec(mc.WHITE_NOISE_PAIR, 60),
            reps=100,
            base_seed=3,
        )
        assert (
            mc.run_size_experiment(**kwargs).config_digest
            == mc.run_size_experiment(**kwargs).config_digest
        )

    @pytest.mark.parametrize("number", [int, float, np.int32, np.int64, np.float32, np.float64])
    def test_equal_settings_give_equal_digests(self, number):
        # 60, 60.0 and a numpy 60 are one setting, whether the setting is an
        # integer (n, reps, lags, level, base_seed) or a real.
        def results(num):
            return [
                mc.run_spurious_regression_experiment(
                    n=num(60), reps=num(100), base_seed=num(5), threshold=num(2), innovation_sd=num(1)
                ),
                mc.run_ect_recovery_experiment(
                    n=num(60),
                    reps=100,
                    base_seed=5,
                    beta=num(1),
                    adjust=num(1),
                    band=(num(-1), num(0)),
                    t_threshold=num(-3),
                    innovation_sd=num(1),
                ),
                mc.run_ect_unit_root_experiment(
                    n=num(60), reps=100, base_seed=5, lags=num(1), innovation_sd=num(1)
                ),
                mc.run_false_positive_experiment(n=num(60), reps=100, level=num(5), base_seed=5),
                mc.run_size_experiment(
                    mc.TestConfig(kind=mc.EG_LEVELS, lags=num(1)),
                    mc.DgpSpec(mc.COINTEGRATED_PAIR, num(60), num(1), beta=num(2), adjust=num(1)),
                    reps=num(100),
                    base_seed=num(5),
                ),
            ]

        made = results(number)
        for result, reference in zip(made, results(int)):
            assert result.to_json_dict() == reference.to_json_dict()
        spurious, recovery, unit_root, false_positive, size = made
        assert type(spurious.config["threshold"]) is type(spurious.threshold) is float
        assert type(spurious.config["innovation_sd"]) is float
        assert [type(v) for v in recovery.config["band"]] == [float, float]
        assert [type(recovery.config[k]) for k in ("beta", "adjust", "t_threshold")] == [float] * 3
        assert [type(spurious.config[k]) for k in ("n", "reps", "base_seed")] == [int] * 3
        assert type(unit_root.config["adf_lags"]) is type(false_positive.config["level"]) is int
        assert type(size.config["test"]["lags"]) is type(size.config["dgp"]["n"]) is int

    @pytest.mark.parametrize(
        "run, variants",
        [
            (
                partial(mc.run_spurious_regression_experiment, n=60, reps=100, base_seed=5),
                [{}, {"n": 61}, {"reps": 101}, {"base_seed": 6}, {"threshold": 2.5},
                 {"innovation_sd": 1.5}, {"include_trend": True}],
            ),
            (
                partial(mc.run_ect_recovery_experiment, n=60, reps=100, base_seed=5),
                [{}, {"beta": 1.5}, {"adjust": 0.5}, {"band": (-0.45, -0.1)}, {"t_threshold": -2.5},
                 {"ecm_spec": EcmSpec(1, ect_lag=2)}],
            ),
            (
                partial(mc.run_ect_unit_root_experiment, n=60, reps=100, base_seed=5),
                [{}, {"lags": 1}, {"ecm_spec": EcmSpec(12, include_trend=True)}],
            ),
            (
                partial(mc.run_false_positive_experiment, n=60, reps=100, base_seed=5),
                [{}, {"level": 5}, {"innovation_sd": 2.0}],
            ),
        ],
        ids=["spurious", "ect_recovery", "ect_unit_root", "false_positive"],
    )
    def test_unequal_settings_give_different_digests(self, run, variants):
        digests = [run(**kwargs).config_digest for kwargs in variants]
        assert len(set(digests)) == len(variants)

    def test_template_seed_is_not_part_of_config(self):
        a = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60, seed=1),
            reps=100,
            base_seed=4,
        )
        b = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60, seed=999),
            reps=100,
            base_seed=4,
        )
        assert a.config_digest == b.config_digest
        assert a.rejections == b.rejections


class TestSpuriousRegression:
    def test_rate_well_above_nominal(self):
        result = mc.run_spurious_regression_experiment(n=500, reps=200, base_seed=21)
        assert result.exceed_rate > 0.6
        lo, hi = result.wilson_interval_95
        assert lo <= result.exceed_rate <= hi


class TestEctExperiments:
    def test_ect_unit_root_rarely_rejects_under_null(self):
        result = mc.run_ect_unit_root_experiment(n=300, reps=150, base_seed=22)
        assert result.rejection_rate[5] <= 0.12

    def test_ect_recovery_under_cointegration(self):
        result = mc.run_ect_recovery_experiment(n=400, reps=120, base_seed=23, adjust=0.3)
        assert result.joint_rate >= 0.9
        assert -0.45 < result.median_coefficient < -0.15
        assert result.median_t_stat < -3

    def test_recovery_respects_custom_spec(self):
        result = mc.run_ect_recovery_experiment(
            n=400,
            reps=100,
            base_seed=24,
            adjust=0.3,
            ecm_spec=EcmSpec(seasonal_gap=12),
        )
        # Year-over-year differencing with one-period controls makes the
        # term redundant: recovery collapses.
        assert result.joint_rate <= 0.1


class TestResultShapes:
    def test_experiment_result_json_and_csv(self):
        result = mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=31)
        doc = result.to_json_dict()
        assert doc["type"] == "experiment_result"
        assert doc["config"]["prng"] == mc.PRNG_ID
        assert doc["guard_warning_count"] == 100
        assert set(doc["rejection_rate"]) == {"1", "5", "10"}
        rows = result.to_csv_rows()
        assert rows[0] == ["level", "rate", "wilson_lo", "wilson_hi"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "5", "10"]

    def test_counts_are_python_ints(self):
        size, fp, spurious, ect, recovery = (
            _RUNNERS[name](base_seed=0)
            for name in ("size", "false_positive", "spurious", "ect_unit_root", "ect_recovery")
        )
        counts = [size.guard_warning_count, fp.guard_warning_count]
        counts += [c for r in (size, fp, ect) for c in (r.replications, *r.rejections.values())]
        counts += [spurious.replications, spurious.exceed_count, recovery.replications]
        counts += [recovery.in_band_count, recovery.t_ok_count, recovery.joint_count]
        assert [type(c) for c in counts] == [int] * len(counts)


class _ThreadPool(concurrent.futures.ThreadPoolExecutor):
    """The worker pool's calls, run on threads of this process."""

    def __init__(self, max_workers, mp_context):
        super().__init__(max_workers)


def _two_cpus_and_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


_RUNNERS = {
    "size": lambda **kw: mc.run_size_experiment(
        mc.TestConfig(kind=mc.EG_LEVELS), mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60), reps=100, **kw
    ),
    "false_positive": lambda **kw: mc.run_false_positive_experiment(n=60, reps=100, **kw),
    "spurious": lambda **kw: mc.run_spurious_regression_experiment(n=60, reps=100, **kw),
    "ect_unit_root": lambda **kw: mc.run_ect_unit_root_experiment(n=60, reps=100, **kw),
    "ect_recovery": lambda **kw: mc.run_ect_recovery_experiment(n=60, reps=100, **kw),
}


def _size(kind: str, lags: int) -> mc.ExperimentResult:
    """A size experiment of ``kind`` with ``lags`` lags on independent walks of 30."""
    test = mc.TestConfig(kind=kind, lags=lags)
    return mc.run_size_experiment(test, mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 30), 100, 0)


@pytest.fixture
def no_replications(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(mc, "_outcome_chunk", refuse)


class TestRunnerValidation:
    """Bad runner parameters fail typed, at configuration, before any replication."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("name", sorted(_RUNNERS))
    def test_base_seed_outside_64_bits(self, no_replications, name, seed):
        with pytest.raises(UsageError, match="^seed must be a 64-bit unsigned integer$"):
            _RUNNERS[name](base_seed=seed)

    @pytest.mark.parametrize("command", ["mc-size", "mc-falsepos"])
    def test_cli_negative_seed_is_exit_one(self, no_replications, capsys, command):
        assert main([command, "--seed", "-1", "--reps", "100", "--n", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ") and err.count("\n") == 1
        assert '"UsageError"' in err and "64-bit unsigned" in err

    def test_threshold_must_be_finite(self, no_replications):
        with pytest.raises(UsageError, match="threshold must be finite"):
            _RUNNERS["spurious"](base_seed=0, threshold=math.nan)

    def test_t_threshold_must_be_finite(self, no_replications):
        with pytest.raises(UsageError, match="t_threshold must be finite"):
            _RUNNERS["ect_recovery"](base_seed=0, t_threshold=math.nan)

    @pytest.mark.parametrize(
        "run, message",
        [
            (
                lambda: mc.run_size_experiment(
                    mc.TestConfig(kind=mc.EG_LEVELS, lags=25),
                    mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60),
                    reps=100,
                    base_seed=0,
                ),
                "^lags must be in 0..24, got 25$",
            ),
            (lambda: _RUNNERS["ect_unit_root"](base_seed=0, lags=-1), "^lags must be in 0..24, got -1$"),
            # the Engle-Granger lag bound, as for the size experiments
            (lambda: _RUNNERS["ect_unit_root"](base_seed=0, lags=25), "^lags must be in 0..24, got 25$"),
            (
                lambda: _RUNNERS["ect_unit_root"](base_seed=0, ecm_spec=EcmSpec(seasonal_gap=4)),
                "^seasonal_gap 4 matches neither",
            ),
            (
                lambda: _RUNNERS["ect_recovery"](base_seed=0, ecm_spec=EcmSpec(seasonal_gap=4)),
                "^seasonal_gap 4 matches neither",
            ),
        ],
        ids=[
            "size-lags-25",
            "ect-unit-root-lags-minus-1",
            "ect-unit-root-lags-25",
            "ect-unit-root-gap-4",
            "ect-recovery-gap-4",
        ],
    )
    def test_setting_fails_with_no_replication_context(self, no_replications, run, message):
        with pytest.raises(UsageError, match=message) as caught:
            run()
        assert not hasattr(caught.value, "replication")

    @pytest.mark.parametrize(
        "run, message",
        [
            (
                lambda: _size(mc.EG_LEVELS, 24),
                "^effective sample 5 after differencing and 24 lags; need >= 10$",
            ),
            (
                lambda: _size(mc.ADF, 20),
                "^effective sample 9 after differencing and 20 lags; need >= 10$",
            ),
            (
                lambda: _size(mc.EG_DIFFERENCES, 19),
                "^effective sample 9 after differencing and 19 lags; need >= 10$",
            ),
            (
                lambda: mc.run_ect_unit_root_experiment(30, 100, 0, lags=20),
                "^effective sample 8 after differencing and 20 lags; need >= 10$",
            ),
            (
                lambda: mc.run_ect_unit_root_experiment(
                    30, 100, 0, ecm_spec=EcmSpec(12, ardl_control_lags=20)
                ),
                "^ARDL stage has 0 effective observations after trimming; need >= 10$",
            ),
            (
                lambda: mc.run_ect_recovery_experiment(
                    30, 100, 0, ecm_spec=EcmSpec(1, ardl_control_lags=25)
                ),
                "^ARDL stage has 4 effective observations after trimming; need >= 10$",
            ),
        ],
        ids=[
            "size-eg-levels-lags-24",
            "size-adf-lags-20",
            "size-eg-differences-lags-19",
            "ect-unit-root-lags-20",
            "ect-unit-root-ardl-lags-20",
            "ect-recovery-ardl-lags-25",
        ],
    )
    def test_short_sample_fails_with_no_replication_context(self, no_replications, run, message):
        with pytest.raises(SeriesTooShort, match=message) as caught:
            run()
        assert not hasattr(caught.value, "replication")

    def test_cli_short_sample_names_no_replication(self, no_replications, capsys):
        assert main(["mc-size", "--n", "30", "--reps", "100", "--lags", "24"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ") and err.count("\n") == 1
        record = json.loads(err[len("cointkit-error: ") :])
        assert record == {
            "error": "SeriesTooShort",
            "message": "effective sample 5 after differencing and 24 lags; need >= 10",
        }

    def test_cli_configuration_error_names_no_replication(self, no_replications, capsys):
        assert main(["mc-size", "--n", "60", "--reps", "100", "--lags", "25"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ") and err.count("\n") == 1
        record = json.loads(err[len("cointkit-error: ") :])
        assert record == {"error": "UsageError", "message": "lags must be in 0..24, got 25"}

    @pytest.mark.parametrize(
        "band",
        [(0.1, -0.5), (-0.2, -0.2), (math.nan, -0.15), (-0.45, math.inf), (-0.45, -0.3, -0.15)],
        ids=str,
    )
    def test_band_must_be_finite_and_increasing(self, no_replications, band):
        with pytest.raises(UsageError, match="band must be two finite bounds with lo < hi"):
            _RUNNERS["ect_recovery"](base_seed=0, band=band)


class TestWorkerBound:
    @pytest.mark.parametrize("workers", [0, 3])
    def test_out_of_range_rejected_before_any_process(self, monkeypatch, workers):
        _two_cpus_and_no_pool(monkeypatch)
        with pytest.raises(UsageError, match="workers must be in 1..2"):
            mc.run_false_positive_experiment(n=50, reps=100, workers=workers)

    @pytest.mark.parametrize("workers", ["0", "3"])
    def test_cli_reports_usage_error(self, monkeypatch, capsys, workers):
        _two_cpus_and_no_pool(monkeypatch)
        code = main(["mc-size", "--n", "50", "--reps", "100", "--workers", workers])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ")
        assert '"UsageError"' in err


class TestWorkerPool:
    def test_pool_starts_its_workers_by_fork_on_linux(self, monkeypatch):
        methods = []

        class Recording(_ThreadPool):
            def __init__(self, max_workers, mp_context):
                methods.append(mp_context.get_start_method())
                super().__init__(max_workers, mp_context)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        mc.run_false_positive_experiment(n=50, reps=100, workers=2)
        expected = "fork" if sys.platform.startswith("linux") else multiprocessing.get_start_method()
        assert methods == [expected]

    def test_two_worker_processes_warn_of_nothing(self, monkeypatch):
        # Python 3.12+ warns when a process with more than one thread forks.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run = partial(mc.run_ect_recovery_experiment, n=60, reps=161, base_seed=14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = run(workers=2)
        assert json.dumps(two.to_json_dict()) == json.dumps(run(workers=1).to_json_dict())


def _size_outcome(test, dgp, base_seed, r):
    """One size replication's report through the public tests: the scalar reference."""
    a, b = mc.generate(replace(dgp, seed=mc.replication_seed(base_seed, r)))
    if test.kind == mc.EG_DIFFERENCES:
        a, b = iterated_difference(a, 1), iterated_difference(b, 1)
    if test.kind == mc.ADF:
        return adf_test(a, test.lags, test.det)
    report = engle_granger_test(a, b, EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, test.lags, test.trend))
    if test.kind == mc.EG_DIFFERENCES and not any(w.code == WARN_DIFFERENCED for w in report.warnings):
        raise MissingGuardWarning()
    return report


def _pairs(test, dgp, base_seed, reps):
    pairs = [mc.generate(replace(dgp, seed=mc.replication_seed(base_seed, r))) for r in range(reps)]
    if test.kind == mc.EG_DIFFERENCES:
        pairs = [(iterated_difference(a, 1), iterated_difference(b, 1)) for a, b in pairs]
    return pairs


class TestStackedEqualsScalar:
    """The block path must reproduce the one-replication path bit for bit."""

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("kind", [mc.EG_LEVELS, mc.EG_DIFFERENCES, mc.ADF])
    @pytest.mark.parametrize(
        "dgp_kind", [mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR]
    )
    def test_statistics_and_outcomes(self, dgp_kind, kind, deterministic):
        det = (
            DeterministicSpec.constant_trend() if deterministic else DeterministicSpec.constant_only()
        )
        test = mc.TestConfig(kind=kind, lags=2, trend=deterministic, det=det)
        dgp = mc.DgpSpec(dgp_kind, 80)
        pairs = _pairs(test, dgp, 5, 40)

        if kind == mc.ADF:
            scalar = [adf_test(a, test.lags, det).statistic for a, _ in pairs]

            def stacked(rows):
                solution, _ = _adf(np.stack([a.values for a, _ in rows]), test.lags, det.constant, det.trend)
                return solution.t_stats[:, 0]

        else:
            spec = EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, test.lags, deterministic)
            scalar = [engle_granger_test(a, b, spec).statistic for a, b in pairs]

            def stacked(rows):
                first = np.stack([a.values for a, _ in rows])
                second = np.stack([b.values for _, b in rows])
                resid = _levels_regression(first, second, deterministic).resid
                return _eg_stage_two(resid, first, test.lags)[0].t_stats[:, 0]

        for size in (40, 17, 1):
            pieces = [stacked(pairs[i : i + size]) for i in range(0, len(pairs), size)]
            assert np.concatenate(pieces).tolist() == scalar

        reports = [_size_outcome(test, dgp, 5, r) for r in range(100)]
        block = partial(mc._size_block, test)
        blocked = mc._run_replications(block, dgp, {"reps": 100, "base_seed": 5}, 1)
        assert blocked.tolist() == [report.statistic for report in reports]
        result = mc.run_size_experiment(test, dgp, reps=100, base_seed=5)
        assert result.rejections == {
            level: sum(report.reject_at[level] for report in reports) for level in LEVELS
        }

    def test_overflowing_difference_raises_the_series_error(self):
        # Finite levels whose first differences overflow: the error is the
        # one iterated_difference raises, and numpy warns of nothing.
        test = mc.TestConfig(kind=mc.EG_DIFFERENCES)
        dgp = mc.DgpSpec(mc.WHITE_NOISE_PAIR, 30, 6e307)
        with np.errstate(over="ignore"), pytest.raises(DataError) as scalar:
            _size_outcome(test, dgp, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as blocked:
                mc.run_size_experiment(test, dgp, reps=100, base_seed=2)
        assert str(blocked.value) == str(scalar.value) == "non-finite value at position 6"
        assert (blocked.value.replication, blocked.value.seed) == (0, mc.replication_seed(2, 0))

    def test_failing_block_raises_the_scalar_error(self, monkeypatch):
        # In the first draw, replication 33 is rank deficient in stage one
        # and drawing replication 35 fails; one at a time, 33 fails first.
        real = mc._generate_stack
        zero_seed = mc.replication_seed(9, 33)
        bad_seed = mc.replication_seed(9, 35)

        def generate_stack(dgp, seeds):
            if bad_seed in seeds:
                raise DataError("replication 35 cannot be drawn")
            first, second = real(dgp, seeds)
            if zero_seed in seeds:
                first[seeds.index(zero_seed)] = 0.0
                second[seeds.index(zero_seed)] = 0.0
            return first, second

        monkeypatch.setattr(mc, "_generate_stack", generate_stack)
        test = mc.TestConfig(kind=mc.EG_LEVELS)
        dgp = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60)
        with pytest.raises(RankDeficient) as scalar:
            for r in range(100):
                _size_outcome(test, dgp, 9, r)
        with pytest.raises(RankDeficient) as blocked:
            mc.run_size_experiment(test, dgp, reps=100, base_seed=9)
        assert str(blocked.value) == str(scalar.value)
        assert (blocked.value.replication, blocked.value.seed) == (33, zero_seed)


_ECM_SPECS = [
    EcmSpec(seasonal_gap=gap, ect_lag=ect_lag, ardl_control_lags=lags, include_trend=trend)
    for gap in (1, 12)
    for trend in (False, True)
    for lags in (1, 2)
    for ect_lag in (1, 2)
]
_ECM_REPS = 40


def _in_blocks(block, size):
    """Statistics of replications 0.._ECM_REPS - 1, solved ``size`` at a time."""
    outcomes = []
    for r0 in range(0, _ECM_REPS, size):
        outcomes.extend(block(r0, min(r0 + size, _ECM_REPS)))
    return outcomes


def _replication(dgp, r):
    return mc.generate(replace(dgp, seed=mc.replication_seed(5, r)))


def _drawn(dgp, r0, r1):
    """Replications r0..r1 - 1 as the runners draw them: two stacks."""
    return mc._generate_stack(dgp, [mc.replication_seed(5, r) for r in range(r0, r1)])


class TestEcmBlocksEqualScalar:
    """The ECM block functions must reproduce the public estimators bit for bit."""

    @pytest.mark.parametrize("spec", _ECM_SPECS, ids=str)
    def test_kernel_solutions(self, spec):
        dgp = mc.DgpSpec(mc.COINTEGRATED_PAIR, 80, adjust=0.3)
        pairs = [_replication(dgp, r) for r in range(_ECM_REPS)]
        fits = [estimate_ecm(y, x, spec) for x, y in pairs]
        for size in (40, 17, 1):
            for r0 in range(0, _ECM_REPS, size):
                chunk = pairs[r0 : r0 + size]
                x = np.stack([a.values for a, _ in chunk])
                y = np.stack([b.values for _, b in chunk])
                levels, ardl = _ecm_regressions(y, x, spec, MONTHLY)
                for i, fit in enumerate(fits[r0 : r0 + size]):
                    for solution, one in ((levels, fit.levels_fit), (ardl, fit.ardl_fit)):
                        assert solution.names == one.column_names
                        assert solution.beta[i].tolist() == list(one.coefficients.values())
                        assert solution.t_stats[i].tolist() == list(one.t_stats.values())
                        assert solution.resid[i].tolist() == one.residuals.tolist()

    @pytest.mark.parametrize("spec", _ECM_SPECS, ids=str)
    def test_recovery_block(self, spec):
        dgp = mc.DgpSpec(mc.COINTEGRATED_PAIR, 80, adjust=0.3)
        scalar = []
        for r in range(_ECM_REPS):
            x, y = _replication(dgp, r)
            fit = estimate_ecm(y, x, spec)
            scalar.append([fit.ect_coefficient, fit.ect_t_stat])
        for size in (40, 17, 1):
            block = lambda r0, r1: mc._recovery_block(spec, *_drawn(dgp, r0, r1)).tolist()
            assert _in_blocks(block, size) == scalar

    @pytest.mark.parametrize("spec", _ECM_SPECS, ids=str)
    def test_ect_unit_root_block(self, spec):
        dgp = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 80)
        lags, none = 1, DeterministicSpec.none()
        stats = []
        for r in range(_ECM_REPS):
            a, b = _replication(dgp, r)
            stat, n_eff, _ = adf_regression(estimate_ecm(a, b, spec).ect_series.values, lags, none)
            # The runner's critical values are for this effective sample.
            assert n_eff == 80 - spec.ect_lag - 1 - lags
            stats.append(stat)
        for size in (40, 17, 1):
            block = lambda r0, r1: mc._ect_unit_root_block(spec, lags, *_drawn(dgp, r0, r1)).tolist()
            assert _in_blocks(block, size) == stats

    @pytest.mark.parametrize("trend", [False, True])
    def test_spurious_block(self, trend):
        dgp = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 80)
        slopes = [estimate_levels(*_replication(dgp, r), include_trend=trend).t_stats["x"] for r in range(_ECM_REPS)]
        for size in (40, 17, 1):
            block = lambda r0, r1: mc._spurious_block(trend, *_drawn(dgp, r0, r1)).tolist()
            assert _in_blocks(block, size) == slopes


class TestReplicationContext:
    """A failing replication's error is the scalar path's, plus its index and seed."""

    RUNNERS = {
        "spurious": (
            lambda **kw: mc.run_spurious_regression_experiment(n=60, reps=100, base_seed=8, **kw),
            lambda a, b: estimate_levels(a, b),
        ),
        "ect_unit_root": (
            lambda **kw: mc.run_ect_unit_root_experiment(n=60, reps=100, base_seed=8, **kw),
            lambda a, b: estimate_ecm(a, b, EcmSpec(seasonal_gap=MONTHLY)),
        ),
        "ect_recovery": (
            lambda **kw: mc.run_ect_recovery_experiment(n=60, reps=100, base_seed=8, **kw),
            lambda x, y: estimate_ecm(y, x, EcmSpec(seasonal_gap=1)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_zero_innovations_raise_the_scalar_error(self, name):
        run, scalar = self.RUNNERS[name]
        kind = mc.COINTEGRATED_PAIR if name == "ect_recovery" else mc.INDEPENDENT_RANDOM_WALKS
        seed = mc.replication_seed(8, 0)
        with pytest.raises(RankDeficient) as expected:
            scalar(*mc.generate(mc.DgpSpec(kind, 60, 0.0, seed, adjust=0.3)))
        with pytest.raises(RankDeficient) as caught:
            run(innovation_sd=0.0)
        assert str(caught.value) == str(expected.value)
        assert (caught.value.replication, caught.value.seed) == (0, seed)

    def test_context_survives_a_worker_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RankDeficient) as caught:
            mc.run_spurious_regression_experiment(
                n=60, reps=100, base_seed=8, innovation_sd=0.0, workers=2
            )
        assert str(caught.value) == "column 'x' is linearly dependent on earlier columns"
        assert caught.value.column == "x"
        assert (caught.value.replication, caught.value.seed) == (0, mc.replication_seed(8, 0))
