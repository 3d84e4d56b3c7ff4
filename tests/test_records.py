"""The package's 22 records: constructors, equality, hashing, repr, fields and immutability.

A record is a ``typing.NamedTuple`` where it only holds values, and a
``numerics.Record`` class where it checks its fields, caches on itself,
mutates or has a length.  Either way it keeps its keyword constructor and
defaults, compares and hashes by its fields, prints as
``Name(field=value, ...)``, lists its fields in ``_fields`` in their old
order, and, where it was frozen, refuses assignment.  A ``Record``'s
``_replace`` goes back through ``__init__``, so the checks run again.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from sgdcodec.codec import BitStream
from sgdcodec.epoch_codec import (
    ACCOUNTING,
    BACKWARD,
    STRICT,
    AccountRow,
    CaseSelector,
    CeilingVerdict,
    DecodeResult,
    EpochCode,
    SideInfo,
)
from sgdcodec.harness import (
    CompressionReport,
    ExperimentResult,
    ExperimentSpec,
    HoeffdingCheck,
    HoeffdingResult,
    ReplicationResult,
    SuiteRow,
    write_report_csv,
)
from sgdcodec.model import Dataset, Element, GeneratorSpec, Model
from sgdcodec.numerics import DomainError, FixedVector, GridSpec, Record
from sgdcodec.sgd_engine import EpochTrace, RunConfig, TrainingRun

GRID = GridSpec(scale=8, clip=4)
VEC = FixedVector((1, -2), GRID)
ELEMENT = Element(eid=0, features=VEC, label=1)
GEN = GeneratorSpec(family="random-labels", n=4, dim=2, seed=1)
DATASET = Dataset(elements=(ELEMENT,), grid=GRID)
MODEL = Model(kind="logistic-linear", weights=VEC, dim=2)
CONFIG = RunConfig(generator=GEN, batch_size=2, step_raw=1, eps=Fraction(1, 4),
                   progress_coeff=Fraction(1), seed=1, max_epochs=2, grid=GRID)
SELECTOR = CaseSelector(window_start=1, window_end=2, degenerate=False, case=BACKWARD,
                        split_j=None, witness_gap=None)
RUN = TrainingRun(config=CONFIG, dataset=DATASET, traces=[], final_model=MODEL)
REPORT = CompressionReport(rows=[], ceilings=[], dataset_bits=3, model_bits=4)
CHECK = HoeffdingCheck(population_size=4, population_ones=2, sample_size=2,
                       delta=Fraction(1, 4), trials=10**4)

# The report.csv header, the column order AccountRow has always had.
REPORT_COLUMNS = (
    "epoch", "case", "split_j", "degenerate_window", "measured_bits", "stream_model_bits",
    "baseline_bits", "charged_bits", "savings_bits", "beta_hat", "progress_ok",
    "model_charge_bits", "model_charge_ok", "good", "split_gap", "split_bound_bits",
    "split_bound_ok", "backward_bound_bits", "backward_bound_ok", "epoch_bound_bits",
    "epoch_bound_ok", "batch_lag_ok", "divergence_sum", "divergence_floor", "divergence_ok",
    "divergence_precond_ok",
)

# record: (keyword arguments of a valid instance, in field order with the
# defaulted fields left out; its signature's defaults; one field changed to
# another valid value)
RECORDS = {
    GridSpec: ({}, {"scale": 16, "clip": 64}, {"clip": 3}),
    FixedVector: ({"raws": (1, -2), "grid": GRID}, {}, {"raws": (0, 0)}),
    Element: ({"eid": 0, "features": VEC, "label": 1}, {}, {"label": 0}),
    GeneratorSpec: (
        {"family": "random-labels", "n": 4, "dim": 2, "seed": 1},
        {"margin": Fraction(1, 2), "sigma": Fraction(1, 2), "center_dist": Fraction(2),
         "feature_scale": 2},
        {"seed": 2},
    ),
    Dataset: ({"elements": (ELEMENT,), "grid": GRID}, {"spec": None}, {"spec": GEN}),
    Model: ({"kind": "logistic-linear", "weights": VEC, "dim": 2}, {"width": 0},
            {"weights": FixedVector((0, 0), GRID)}),
    RunConfig: (
        {"generator": GEN, "batch_size": 2, "step_raw": 1, "eps": Fraction(1, 4),
         "progress_coeff": Fraction(1), "seed": 1, "max_epochs": 2},
        {"model_kind": "logistic-linear", "hidden_width": 0, "grid": GridSpec()},
        {"seed": 2},
    ),
    EpochTrace: (
        {"epoch": 1, "batch_size": 2, "order": (1, 0, 2, 3)},
        {"checkpoints": None, "masks": None, "terminated": False, "saturated": False},
        {"terminated": True},
    ),
    TrainingRun: ({"config": CONFIG, "dataset": DATASET, "traces": [], "final_model": MODEL},
                  {}, {"traces": [EpochTrace(1, 2, (0, 1))]}),
    CaseSelector: (SELECTOR._asdict(), {}, {"degenerate": True}),
    SideInfo: ({"mode": STRICT}, {"masks": (), "last": None}, {"last": VEC}),
    EpochCode: (
        {"epoch": 1, "n": 4, "batch_size": 2, "case": BACKWARD, "split_j": None, "side": None,
         "selector": SELECTOR, "stream": BitStream(), "segments": ()},
        {},
        {"segments": (("sizes", 2),)},
    ),
    DecodeResult: ({"order": (1, 0)}, {"checkpoints": ()}, {"checkpoints": (VEC,)}),
    AccountRow: (dict.fromkeys(REPORT_COLUMNS, 0), {}, {"good": True}),
    CeilingVerdict: ({"applicable": False, "note": "epoch incomplete"},
                     {"beta_hat": None, "ceiling": None, "ok": None, "margin": None},
                     {"note": "some checkpoint below 1-eps"}),
    CompressionReport: (REPORT._asdict(), {}, {"model_bits": 5}),
    ReplicationResult: ({"index": 0, "run": RUN, "codes": [], "report": REPORT}, {},
                        {"index": 1}),
    ExperimentResult: ({"spec": ExperimentSpec(CONFIG), "dataset": DATASET, "replications": []},
                       {}, {"replications": [ReplicationResult(0, RUN, [], REPORT)]}),
    HoeffdingResult: (
        {"check": CHECK, "threshold_count": 0, "empirical_freq": Fraction(1, 3),
         "exact_prob": Fraction(1, 6), "bound": 0.5, "sigma": 0.01, "ok_empirical": True,
         "ok_exact": True},
        {},
        {"ok_exact": False},
    ),
    ExperimentSpec: ({"config": CONFIG}, {"replications": 1, "mode": ACCOUNTING},
                     {"replications": 2}),
    HoeffdingCheck: ({name: getattr(CHECK, name) for name in HoeffdingCheck._fields[:-1]},
                     {"seed": 0}, {"seed": 5}),
    SuiteRow: ({"name": "s", "cases": 1, "skipped": 0, "worst": 0.0, "threshold": 0.0,
                "passed": True}, {}, {"worst": -1.0}),
}

FROZEN = (GridSpec, FixedVector, Element, GeneratorSpec, Dataset, Model, RunConfig,
          CaseSelector, SideInfo, DecodeResult, CeilingVerdict, ExperimentSpec,
          HoeffdingCheck, HoeffdingResult, SuiteRow)

# each checked record with one field set to a value its checks refuse
REFUSED = {
    GridSpec: {"scale": -1},
    Element: {"label": 2},
    GeneratorSpec: {"n": 0},
    Dataset: {"elements": (Element(1, VEC, 1),)},
    Model: {"dim": 3},
    RunConfig: {"seed": -1},
    ExperimentSpec: {"replications": 0},
    HoeffdingCheck: {"trials": 10},
    SuiteRow: {"cases": 0},
}

IDS = [cls.__name__ for cls in RECORDS]


def test_the_table_holds_all_22_records_and_their_forms():
    assert len(RECORDS) == 22 and len(FROZEN) == 15
    plain = [cls for cls in RECORDS if issubclass(cls, Record)]
    assert [cls.__name__ for cls in plain] == [
        "GridSpec", "FixedVector", "Element", "GeneratorSpec", "Dataset", "Model",
        "RunConfig", "EpochTrace", "ExperimentSpec", "HoeffdingCheck", "SuiteRow",
    ]
    assert all(issubclass(cls, tuple) for cls in RECORDS if cls not in plain)
    assert set(REFUSED) == {cls for cls in plain if cls not in (FixedVector, EpochTrace)}


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_keyword_constructor_and_defaults(cls):
    required, defaults, _ = RECORDS[cls]
    params = inspect.signature(cls).parameters
    assert list(params) == list(cls._fields) == [*required, *defaults]
    assert {name: p.default for name, p in params.items()
            if p.default is not p.empty} == defaults
    record = cls(**required)
    assert [getattr(record, name) for name in required] == list(required.values())
    if cls is EpochTrace:  # each trace starts with lists of its own
        assert record.checkpoints == record.masks == []
        assert cls(**required).checkpoints is not record.checkpoints
    else:
        assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(cls):
    required, _, change = RECORDS[cls]
    a, b = cls(**required), cls(**required)
    assert a == b and not a != b
    other = cls(**{**required, **change})
    assert a != other and not a == other
    if cls is EpochTrace:  # it fills as its epoch runs
        with pytest.raises(TypeError):
            hash(a)
    elif cls in FROZEN:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_names_each_field(cls):
    record = cls(**RECORDS[cls][0])
    cells = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({cells})"


def test_repr_of_a_grid_and_a_dataset():
    assert repr(GridSpec()) == "GridSpec(scale=16, clip=64)"
    assert repr(FixedVector((1,), GRID)) == "FixedVector(raws=(1,), grid=GridSpec(scale=8, clip=4))"
    assert "_sweep" not in repr(DATASET) and repr(DATASET).endswith(", spec=None)")
    assert Dataset._fields == ("elements", "grid", "spec")


def test_account_row_fields_are_the_report_columns(tmp_path):
    assert AccountRow._fields == REPORT_COLUMNS
    path = tmp_path / "report.csv"
    row = AccountRow(**dict(zip(REPORT_COLUMNS, range(len(REPORT_COLUMNS)))))
    write_report_csv([row], str(path))
    assert path.read_text().splitlines() == [
        ",".join(REPORT_COLUMNS), ",".join(map(str, range(len(REPORT_COLUMNS))))
    ]


@pytest.mark.parametrize("cls", FROZEN, ids=[cls.__name__ for cls in FROZEN])
def test_a_frozen_record_refuses_assignment(cls):
    required, _, change = RECORDS[cls]
    record = cls(**required)
    (name, value), = change.items()
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.unlisted = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == cls(**required)


def test_a_trace_takes_assignment():
    trace = EpochTrace(1, 2, (0, 1))
    trace.terminated = True
    trace.masks.append(3)
    assert trace == EpochTrace(1, 2, (0, 1), masks=[3], terminated=True)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_changes_one_field(cls):
    required, _, change = RECORDS[cls]
    record = cls(**required)
    replaced = record._replace(**change)
    assert type(replaced) is cls and replaced == cls(**{**required, **change})
    assert record == cls(**required)
    assert record._replace() == record and record._asdict() == {
        name: getattr(record, name) for name in cls._fields
    }


@pytest.mark.parametrize("cls", REFUSED, ids=[cls.__name__ for cls in REFUSED])
def test_replace_runs_the_checks_again(cls):
    record = cls(**RECORDS[cls][0])
    with pytest.raises(DomainError):
        cls(**{**RECORDS[cls][0], **REFUSED[cls]})
    with pytest.raises(DomainError):
        record._replace(**REFUSED[cls])


def test_replace_refuses_a_grid_and_a_config_out_of_range():
    with pytest.raises(DomainError, match="scale must be >= 0, got -1"):
        GridSpec()._replace(scale=-1)
    with pytest.raises(DomainError, match="clip \\* 2\\*\\*scale must be <= 2\\*\\*63, got "
                       "GridSpec\\(scale=60, clip=64\\)"):
        GridSpec()._replace(scale=60)
    with pytest.raises(DomainError, match="run seed"):
        CONFIG._replace(seed=-1)
    with pytest.raises(TypeError):
        CONFIG._replace(sead=2)
    fresh = DATASET._replace(spec=GEN)
    assert fresh._sweep == [] and fresh._sweep is not DATASET._sweep
