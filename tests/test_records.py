"""Records are immutable named tuples; validated inputs check every point a
sweep or an optimization builds, however it is built."""

import math

import pytest

from cosmo_qfi import (
    EstimationResult,
    FrequencySet,
    MatchResult,
    ModelParams,
    OptimumResult,
    ProbeState,
    SweepRow,
    SweepSpec,
    excitation_weight,
    frequencies,
    optimize,
    probe,
    qfi_eps,
    sweep,
    sweeps,
)
from cosmo_qfi.sweeps import SWEEP_VARIABLES, _params_at
from cosmo_qfi.verify import CheckResult

FIXED = ModelParams(1.0, 1.0, 1.0)

# Field order of each record, as its positional constructor reads it.
FIELDS = {
    FrequencySet: ("omega_in", "omega_out", "zeta_pp", "zeta_pm", "zeta_mp", "zeta_mm",
                   "mu_out", "chi_abs"),
    ProbeState: ("p0", "p1", "X", "dX"),
    EstimationResult: ("qfi", "state", "bound"),
    SweepRow: ("value", "qfi", "bound", "entropy", "p1"),
    OptimumResult: ("coordinate", "estimation", "boundary_warning"),
    MatchResult: ("X", "fit_residual", "norm_drift", "steps"),
    CheckResult: ("name", "worst", "tolerance", "points"),
}


# The results built past the generated constructor, which would check the
# field count: each function at a point it returns.
RESULTS = {
    "frequencies": (frequencies, FrequencySet),
    "excitation_weight": (excitation_weight, ProbeState),
    "probe": (probe, ProbeState),
    "qfi_eps": (qfi_eps, EstimationResult),
}


# Validated inputs: a valid record and, for one field, a value it rejects.
VALIDATED = {
    ModelParams: (FIXED, "k_tilde", 0.0),
    SweepSpec: (SweepSpec("m_tilde", 0.1, 1.0, 3, FIXED), "points", 1),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_record_fields_keep_their_order(cls):
    assert cls._fields == FIELDS[cls]
    rec = cls(*range(len(cls._fields)))
    assert [getattr(rec, f) for f in cls._fields] == list(range(len(cls._fields)))
    assert cls.__doc__.strip()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_record_is_immutable(cls):
    rec = cls(*range(len(cls._fields)))
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, -1)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict either


# Each way of building a record, from the class, a valid record and the
# field values to build from.
BUILDERS = {
    "positional": lambda cls, good, values: cls(*values.values()),
    "keyword": lambda cls, good, values: cls(**values),
    "_make": lambda cls, good, values: cls._make(values.values()),
    "_replace": lambda cls, good, values: good._replace(**values),
}


@pytest.mark.parametrize("how", BUILDERS)
@pytest.mark.parametrize("cls", VALIDATED, ids=lambda c: c.__name__)
def test_validated_record_rejects_a_bad_value_however_built(cls, how):
    good, field, bad = VALIDATED[cls]
    build = BUILDERS[how]
    rebuilt = build(cls, good, good._asdict())
    assert rebuilt == good and type(rebuilt) is cls
    with pytest.raises(ValueError):
        build(cls, good, dict(good._asdict(), **{field: bad}))
    with pytest.raises(AttributeError):  # nor can a built record take it later
        setattr(good, field, bad)


def _assert_whole(rec, cls):
    assert type(rec) is cls
    assert len(rec) == len(type(rec)._fields)


@pytest.mark.parametrize("m_tilde", [1.0, 0.0])
@pytest.mark.parametrize("name", RESULTS)
def test_result_record_has_every_field(name, m_tilde):
    fn, cls = RESULTS[name]
    _assert_whole(fn(ModelParams(1.0, m_tilde, 1.0)), cls)


def test_sweep_rows_have_every_field():
    rows = sweep(SweepSpec("m_tilde", 0.0, 1.0, 3, FIXED))
    nan_rows = sweep(SweepSpec("m_tilde", 1.0, 1.5e308, 3, FIXED))  # mu_out overflows
    assert rows[0].qfi == 0.0 and rows[0].bound == math.inf  # the m = 0 row
    assert [math.isnan(r.qfi) for r in nan_rows] == [False, True, True]
    for row in rows + nan_rows:
        _assert_whole(row, SweepRow)


def test_check_result_passed():
    assert CheckResult("c", 1e-11, 1e-10, 3).passed is True
    assert CheckResult("c", 1e-10, 1e-10, 3).passed is True
    assert CheckResult("c", 2e-10, 1e-10, 3).passed is False


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_params_at_sets_only_the_swept_coordinate(variable):
    p = _params_at(ModelParams(0.5, 0.25, 2.0), variable, 3.0)
    expected = {"eps": 0.5, "m_tilde": 0.25, "k_tilde": 2.0, variable: 3.0}
    assert p == ModelParams(**expected)
    with pytest.raises(ValueError, match=variable):
        _params_at(FIXED, variable, -1.0)


def test_sweep_points_are_validated(monkeypatch):
    # An infinite hi is refused before any point is built or evaluated; a
    # finite range keeps every grid point inside the admitted domain.
    def evaluate(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweeps, "qfi_eps", evaluate)
    with pytest.raises(ValueError, match="^hi must be finite"):
        SweepSpec("m_tilde", 0.1, math.inf, 3, FIXED)
    with pytest.raises(ValueError, match="a finite hi"):
        optimize("eps", 0.5, math.inf, FIXED)
