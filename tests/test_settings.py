"""The settings contract: every public setting is coerced by one of four rules.

An integer setting takes Python or numpy integers and integral finite
floats; a real setting takes finite Python or numpy ints and floats; a flag
takes Python or numpy bools; an object setting takes an instance of its
class. Anything else, and anything out of range, is a ``UsageError`` naming
the setting: never a raw Python error, never a silently truncated value.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cointkit.montecarlo as mc
from cointkit.cointegration import NORMALIZE_FIRST, UNTRANSFORMED, EgSpec, run_spec_grid
from cointkit.critvals import DeterministicSpec, critical_value
from cointkit.ecm import EcmSpec, estimate_levels
from cointkit.errors import UsageError, flag_setting, int_setting, real_setting
from cointkit.series import MONTHLY, TimeSeries, iterated_difference, seasonal_difference
from cointkit.unitroot import _adf_sample, adf_regression, adf_test
from helpers import monthly_series


class TestRules:
    @pytest.mark.parametrize(
        "value", [7, 7.0, np.int8(7), np.uint64(7), np.int64(7), np.float32(7), np.float64(7)], ids=repr
    )
    def test_integer_rule_accepts_integral_numbers(self, value):
        out = int_setting("k", value)
        assert type(out) is int and out == 7

    @pytest.mark.parametrize(
        "value",
        [True, np.True_, "7", None, 7.5, np.float64(-0.5), math.nan, math.inf, np.float32("inf"), 7j],
        ids=repr,
    )
    def test_integer_rule_rejects_the_rest(self, value):
        with pytest.raises(UsageError, match=r"^k must be an integer, got "):
            int_setting("k", value)

    @pytest.mark.parametrize("value", [2, 2.5, np.int32(2), np.float32(2.5), np.float64(-1e300)], ids=repr)
    def test_real_rule_gives_python_floats(self, value):
        out = real_setting("x", value)
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value", [False, np.bool_(False), "2", None, [2.0], 2j], ids=repr)
    def test_real_rule_rejects_non_numbers(self, value):
        with pytest.raises(UsageError, match=r"^x must be a real number, got "):
            real_setting("x", value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, np.float64("inf"), 10**400], ids=repr)
    def test_real_rule_rejects_non_finite_values(self, value):
        with pytest.raises(UsageError, match=r"^x must be finite, got (nan|-?inf)$"):
            real_setting("x", value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
    def test_flag_rule_gives_python_bools(self, value):
        out = flag_setting("f", value)
        assert type(out) is bool and out == bool(value)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 1.0, None, np.int64(1)], ids=repr)
    def test_flag_rule_rejects_the_rest(self, value):
        with pytest.raises(UsageError, match=r"^f must be True or False, got "):
            flag_setting("f", value)

    def test_bound_messages(self):
        with pytest.raises(UsageError, match=r"^lags must be >= 0, got -1$"):
            int_setting("lags", -1.0, 0)
        with pytest.raises(UsageError, match=r"^lags must be in 0\.\.24, got 25$"):
            int_setting("lags", np.int64(25), 0, 24)
        with pytest.raises(UsageError, match=r"^sd must be >= 0, got -0\.5$"):
            real_setting("sd", -0.5, 0)
        with pytest.raises(UsageError, match=r"^seed must be a 64-bit unsigned integer$"):
            int_setting("seed", 2**64, 0, 2**64 - 1, expected="a 64-bit unsigned integer")
        with pytest.raises(UsageError, match=r"^seed must be a 64-bit unsigned integer$"):
            int_setting("seed", "1", 0, 2**64 - 1, expected="a 64-bit unsigned integer")
        assert int_setting("lags", 24.0, 0, 24) == 24


# Values that no rule takes, or only some do.
_NOT_NUMBERS = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.sampled_from([np.True_, np.False_, 1j, [1], (1,)]),
)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf")])
_NON_INTEGRAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
_NOT_INTEGERS = st.one_of(
    _NOT_NUMBERS, _NOT_FINITE, _NON_INTEGRAL, _NON_INTEGRAL.map(np.float64), st.just(np.float32(0.5))
)
_NOT_REALS = st.one_of(_NOT_NUMBERS, _NOT_FINITE)
_NOT_FLAGS = st.one_of(
    st.sampled_from(["true", "false", "", 0, 1, 1.0, np.int64(1)]), st.none(), st.text(max_size=4)
)


def _integers(value: int) -> list:
    """``value`` and its numpy and integral-float twins, which the integer rule takes."""
    return [value, float(value), np.int64(value), np.int32(value), np.float64(value)]


def _reals(value: float) -> list:
    twins = [value, np.float64(value), np.float32(value)]
    return twins + [int(value), np.int64(value)] if float(value).is_integer() else twins


_FLAGS = [True, False, np.True_, np.False_]


class Setting:
    """One public setting: what its rule must accept, and values it must reject."""

    def __init__(self, name: str, run, valid: list, junk, out_of_range: tuple = ()):
        self.name = name
        self.run = run  # calls the public constructor or runner with the setting's value
        self.valid = valid
        strategies = [st.sampled_from(valid), junk]
        if out_of_range:
            strategies.append(st.sampled_from(out_of_range))
        self.values = st.one_of(*strategies)

    def __repr__(self) -> str:
        return self.name

    def is_valid(self, value) -> bool:
        return any(_same(value, v) for v in self.valid)


def _same(a, b) -> bool:
    """Equal and of the same types, element by element: ``False`` is not ``0``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _int(name, run, value, out_of_range=()):
    return Setting(name, run, _integers(value), _NOT_INTEGERS, out_of_range)


def _real(name, run, value, out_of_range=()):
    return Setting(name, run, _reals(value), _NOT_REALS, out_of_range)


def _flag(name, run):
    return Setting(name, run, _FLAGS, _NOT_FLAGS)


_SERIES, _OTHER = (monthly_series(np.cumsum(w)) for w in np.random.default_rng(3).standard_normal((2, 40)))
_C = DeterministicSpec.constant_only()
_DGP_SPEC = mc.DgpSpec(mc.COINTEGRATED_PAIR, 60)
_EG_SPEC = EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, 0, False)
_SEED_OUT = (-1, 2**64, 2**70, -(2**63))

CONSTRUCTORS = [
    _int("DgpSpec.n", lambda v: replace(_DGP_SPEC, n=v), 60, (29, 0, -5)),
    _real("DgpSpec.innovation_sd", lambda v: replace(_DGP_SPEC, innovation_sd=v), 1.5, (-1.0, -1e-9)),
    _int("DgpSpec.seed", lambda v: replace(_DGP_SPEC, seed=v), 7, _SEED_OUT),
    _real("DgpSpec.beta", lambda v: replace(_DGP_SPEC, beta=v), -2.0),
    _real("DgpSpec.adjust", lambda v: replace(_DGP_SPEC, adjust=v), 0.25, (0.0, -0.5, 1.5)),
    _int("TestConfig.lags", lambda v: mc.TestConfig(mc.EG_LEVELS, lags=v), 3, (-1,)),
    _flag("TestConfig.trend", lambda v: mc.TestConfig(mc.EG_LEVELS, trend=v)),
    _int("EgSpec.lags", lambda v: replace(_EG_SPEC, lags=v), 12, (-1, 25)),
    _flag("EgSpec.trend_in_stage_one", lambda v: replace(_EG_SPEC, trend_in_stage_one=v)),
    _int("EcmSpec.seasonal_gap", lambda v: EcmSpec(v), 12, (0, -1)),
    _int("EcmSpec.ect_lag", lambda v: EcmSpec(12, ect_lag=v), 2, (0,)),
    _int("EcmSpec.ardl_control_lags", lambda v: EcmSpec(12, ardl_control_lags=v), 2, (0,)),
    _flag("EcmSpec.include_trend", lambda v: EcmSpec(12, include_trend=v)),
    _flag("estimate_levels.include_trend", lambda v: estimate_levels(_SERIES, _OTHER, v)),
    _flag("DeterministicSpec.constant", lambda v: DeterministicSpec(constant=v, trend=False)),
    _flag("DeterministicSpec.trend", lambda v: DeterministicSpec(constant=True, trend=v)),
    _int("TimeSeries.start_year", lambda v: TimeSeries((v, 1), MONTHLY, [1.0]), 1990),
    _int("TimeSeries.start_month", lambda v: TimeSeries((2000, v), MONTHLY, [1.0]), 7),
    _int("TimeSeries.frequency", lambda v: TimeSeries((2000, 1), v, [1.0]), 4),
    _int("seasonal_difference.gap", lambda v: seasonal_difference(_SERIES, v), 12, (0, -1)),
    _int("iterated_difference.order", lambda v: iterated_difference(_SERIES, v), 2, (0, -1)),
    _int("adf_test.lags", lambda v: adf_test(_SERIES, v, _C), 2, (-1,)),
    _int("adf_regression.lags", lambda v: adf_regression(_SERIES.values, v, _C), 2, (-1,)),
    _int("_adf_sample.lags", lambda v: _adf_sample(40, v), 2, (-1,)),
    _int("critical_value.k", lambda v: critical_value(v, 100, 5, _C), 2, (0, 7)),
    _int("critical_value.n", lambda v: critical_value(2, v, 5, _C), 100, (19, -100)),
    _int("critical_value.level", lambda v: critical_value(2, 100, v, _C), 5, (2, 0)),
]


def _outcome(setting: Setting, value) -> bool:
    """Whether ``setting.run(value)`` ran; it may fail only with UsageError."""
    try:
        setting.run(value)
    except UsageError:
        return False
    return True


@pytest.mark.parametrize("setting", CONSTRUCTORS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constructor_setting_runs_or_raises_usage_error(setting, data):
    value = data.draw(setting.values, label=setting.name)
    assert _outcome(setting, value) == setting.is_valid(value)


def test_time_series_start_must_be_a_pair():
    for start in (None, 2000, (2000,), (2000, 1, 1), "2000-01"):
        with pytest.raises(UsageError, match=r"^start must be a \(year, month\) pair"):
            TimeSeries(start, MONTHLY, [1.0])


_TEST = mc.TestConfig(mc.EG_LEVELS)
_WALKS = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60)
# Objects of the wrong class, beside values that are no objects at all.
_NOT_OBJECTS = st.one_of(_NOT_NUMBERS, st.sampled_from([_C, _DGP_SPEC, _EG_SPEC, _TEST, EcmSpec(1)]))


def _object(name, run, *valid):
    return Setting(name, run, list(valid), _NOT_OBJECTS)


OBJECT_SETTINGS = [
    _object("TestConfig.det", lambda v: mc.TestConfig(mc.ADF, det=v), _C),
    _object("size.test", lambda v: mc.run_size_experiment(v, _WALKS, 100, 0), _TEST),
    _object("size.dgp", lambda v: mc.run_size_experiment(_TEST, v, 100, 0), _WALKS, _DGP_SPEC),
    _object(
        "ect_unit_root.ecm_spec",
        lambda v: mc.run_ect_unit_root_experiment(60, 100, 0, ecm_spec=v),
        None,
        EcmSpec(1),
    ),
    _object(
        "ect_recovery.ecm_spec",
        lambda v: mc.run_ect_recovery_experiment(60, 100, 0, ecm_spec=v),
        None,
        EcmSpec(1),
    ),
    _object("run_spec_grid.grid", lambda v: run_spec_grid(_SERIES, _OTHER, [v]), _EG_SPEC),
]


@pytest.mark.parametrize("setting", OBJECT_SETTINGS, ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_object_setting_runs_or_raises_usage_error(setting, data):
    value = data.draw(setting.values, label=setting.name)
    assert _outcome(setting, value) == setting.is_valid(value)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: mc.run_ect_unit_root_experiment(60, 100, 0, ecm_spec="x"), "ecm_spec must be of type EcmSpec, got 'x'"),
        (lambda: mc.run_ect_recovery_experiment(60, 100, 0, ecm_spec=""), "ecm_spec must be of type EcmSpec, got ''"),
        (lambda: mc.TestConfig(mc.ADF, det="constant"), "det must be of type DeterministicSpec, got 'constant'"),
        (lambda: run_spec_grid(_SERIES, _OTHER, grid=[_EG_SPEC, "x"]), "grid[1] must be of type EgSpec, got 'x'"),
        (lambda: run_spec_grid(_SERIES, _OTHER, grid=5), "grid must be a sequence of EgSpec, got 5"),
    ],
    ids=["ect_unit_root", "ect_recovery_empty_string", "det", "grid", "grid_not_a_sequence"],
)
def test_object_settings_name_their_class(run, message):
    # Each of these raised AttributeError or TypeError, or fell back to a default, before the instance rule.
    with pytest.raises(UsageError) as info:
        run()
    assert str(info.value) == message


def _size(**kw):
    kw = {"reps": 100, "base_seed": 0, **kw}
    return mc.run_size_experiment(mc.TestConfig(mc.EG_LEVELS), mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60), **kw)


def _band(name, run):
    valid = [(-0.5, -0.1), [-0.5, -0.1], (np.float64(-0.5), np.int64(0)), (-1, 0)]
    junk = st.one_of(_NOT_REALS, st.tuples(_NOT_REALS, _NOT_REALS), st.tuples(st.just(-0.5), _NOT_REALS))
    return Setting(name, run, valid, junk, ((0.1, -0.5), (-0.2, -0.2), (-0.5,), (-0.5, -0.3, -0.1)))


# Each runner with the settings it needs, then each setting it takes:
# (rule, valid value, out-of-range values). The size runner takes its DGP
# as a DgpSpec, so n and innovation_sd are DgpSpec's settings there.
_RUNNERS = {
    "size": (_size, {}),
    "false_positive": (mc.run_false_positive_experiment, {"n": 60, "reps": 100}),
    "spurious": (mc.run_spurious_regression_experiment, {"n": 60, "reps": 100, "base_seed": 0}),
    "ect_unit_root": (mc.run_ect_unit_root_experiment, {"n": 60, "reps": 100, "base_seed": 0}),
    "ect_recovery": (mc.run_ect_recovery_experiment, {"n": 60, "reps": 100, "base_seed": 0}),
}
_COMMON = {
    "reps": (_int, 100, (99, 0, -100)),
    "base_seed": (_int, 5, _SEED_OUT),
    "workers": (_int, 1, (0, 2, -1)),
}
_DGP = {"n": (_int, 60, (29, -60)), "innovation_sd": (_real, 2.0, (-2.0,))}
_OWN = {
    "size": {},
    "false_positive": {**_DGP, "level": (_int, 5, (2, 0, 100))},
    "spurious": {**_DGP, "threshold": (_real, 1.5), "include_trend": (_flag,)},
    "ect_unit_root": {**_DGP, "lags": (_int, 2, (-1,))},
    "ect_recovery": {
        **_DGP,
        "beta": (_real, 2.0),
        "adjust": (_real, 0.5, (0.0, 1.5)),
        "t_threshold": (_real, -2.5),
        "band": (_band,),
    },
}


def _with(run, defaults: dict, name: str, value):
    return run(**{**defaults, name: value})


def _runner_settings() -> list[Setting]:
    return [
        rule(f"{runner}.{name}", partial(_with, run, defaults, name), *args)
        for runner, (run, defaults) in _RUNNERS.items()
        for name, (rule, *args) in {**_COMMON, **_OWN[runner]}.items()
    ]


RUNNER_SETTINGS = _runner_settings()


@pytest.mark.parametrize("setting", RUNNER_SETTINGS, ids=repr)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_runner_setting_runs_or_raises_usage_error(setting, data):
    value = data.draw(setting.values, label=setting.name)
    # One CPU, so that workers=2 is out of range and no pool starts.
    with mock.patch("os.cpu_count", return_value=1):
        assert _outcome(setting, value) == setting.is_valid(value)
