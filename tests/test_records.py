"""The package's value records: value equality and hashing, repr text, read-only fields, checked copies."""

import copy
import math
import pickle

import numpy as np
import pytest

from phasefisher.cli import SweepConfig
from phasefisher.exceptions import InvalidEta, NumericalOverflow, OracleTooLarge
from phasefisher.fock_core import FockTruncation, StateVector
from phasefisher.qfi_analytic import QFIResult, sigma_spectrum
from phasefisher.qfi_oracle import CheckResult, VerificationReport
from phasefisher.states import ProbeSpec

CHECK = CheckResult("row", True, 0.0, 1e-9, "1 point")
STATE = StateVector(np.array([1]), np.array([1.0 + 0j]), FockTruncation(1))

# each record with its fields
RECORDS = [
    (FockTruncation(3), "n_max"),
    (STATE, "support amplitudes truncation"),
    (STATE.density(), "support truncation parts"),
    (ProbeSpec("noon", 0.9, n=2), "family eta alpha n"),
    (QFIResult(1.0), "value"),
    (sigma_spectrum(1.0, 0.9), "p p_perp det_sigma gamma_plus gamma_minus"),
    (SweepConfig(0.9), "eta n_min n_max points spacing output_path"),
    (CHECK, "name passed max_err tolerance detail"),
    (VerificationReport((CHECK,)), "checks"),
]


def test_equal_values_make_equal_records_with_equal_hashes():
    # FockTruncation is a functools.cache key in verify_all
    assert FockTruncation(3) == FockTruncation(np.int64(3))
    assert hash(FockTruncation(3)) == hash(FockTruncation(np.int64(3)))
    assert FockTruncation(3) != FockTruncation(4)
    assert len({FockTruncation(3), FockTruncation(3), FockTruncation(4)}) == 2
    assert QFIResult(1.0) == QFIResult(1.0) and hash(QFIResult(1.0)) == hash(QFIResult(1.0))
    assert QFIResult(1.0) != QFIResult(2.0)


@pytest.mark.parametrize(
    ("record", "text"),
    [
        (QFIResult(1.0), "QFIResult(value=1.0)"),
        (FockTruncation(3), "FockTruncation(n_max=3)"),
        (ProbeSpec("noon", 0.9, n=2), "ProbeSpec(family='noon', eta=0.9, alpha=0.0, n=2)"),
        (CHECK, "CheckResult(name='row', passed=True, max_err=0.0, tolerance=1e-09, detail='1 point')"),
        (STATE.density(), "DensityOperator(support=array([1]), truncation=FockTruncation(n_max=1))"),
    ],
)
def test_repr_names_the_type_and_its_fields(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(("record", "fields"), RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    for name in (*fields.split(), "extra"):
        value = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize(("record", "fields"), RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_copies_and_unpickled_records_read_the_same(record, fields):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        assert all(repr(getattr(twin, f)) == repr(getattr(record, f)) for f in fields.split())


def test_replace_gives_a_record_of_the_same_type():
    assert FockTruncation(3)._replace(n_max=4) == FockTruncation(4)
    assert type(QFIResult(1.0)._replace(value=2.0)) is QFIResult


@pytest.mark.parametrize(
    ("record", "change", "error"),
    [
        (FockTruncation(3), {"n_max": -1}, ValueError),
        (FockTruncation(3), {"n_max": 2048}, OracleTooLarge),
        (FockTruncation(3), {"n_max": 3.0}, ValueError),
        (ProbeSpec("noon", 0.9, n=2), {"n": 2.5}, ValueError),
        (ProbeSpec("noon", 0.9, n=2), {"eta": 1.5}, InvalidEta),
        (QFIResult(1.0), {"value": math.nan}, NumericalOverflow),
        (SweepConfig(0.9), {"points": 1}, ValueError),
        (STATE, {"amplitudes": np.array([2.0 + 0j])}, ValueError),
    ],
)
def test_replace_checks_the_new_fields(record, change, error):
    with pytest.raises(error):
        record._replace(**change)
