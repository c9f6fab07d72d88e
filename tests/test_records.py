"""The library's eight records: their fields, repr, equality, hashing and immutability, and what importing them costs.

Seven are typing.NamedTuple classes, so each also compares equal to the plain tuple of its fields and offers
_asdict() and _replace().  Profile iterates over its ballots, so it is a small __slots__ class instead.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import omvote
from omvote import (
    CaseOutcomes,
    CcumCertificate,
    CcumInstance,
    DuplicateOutcomeError,
    InvalidParametersError,
    ManipulationReport,
    OutOfRangeIndexError,
    Profile,
    ProportionRow,
    RuleSpec,
    TheoremVerdict,
    WrongLengthError,
)

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("core", "rules", "ccum", "manipulability", "characterization", "experiments", "cli")


def _values():
    # (record class, its field names in order, one value per field, another valid value of its last field), each
    # value built afresh on every call
    return [
        (RuleSpec, ("name", "k", "weights", "omega", "eps"), ("vetofamily", None, None, Fraction(9), Fraction(1)),
         Fraction(2)),
        (Profile, ("ballots", "m"), (((0, 1, 2), (2, 1, 0)), 3), 4),
        (CcumInstance, ("rule", "fixed_ballots", "num_manipulators", "target", "tiebreak"),
         (omvote.kapproval(2), ((0, 1, 2, 3),), 2, 3, (0, 1, 2, 3)), (3, 2, 1, 0)),
        (CcumCertificate, ("achievable", "manipulator_ballots"), (True, ((3, 0, 1, 2),)), None),
        (TheoremVerdict, ("predicate", "holds", "implied_classification", "parameters"),
         ("kapproval_om", False, "NOM", {"n": 3, "m": 5, "k": 3}), {}),
        (ProportionRow, ("n", "m", "k", "samples", "seed", "wom_count", "bom_count", "sampled"),
         (3, 15, 14, 100, 0, 40, 12, True), False),
        (CaseOutcomes, ("best", "worst", "feasible"), (0, 2, frozenset({0, 1, 2})), frozenset({0, 2})),
        (ManipulationReport, ("classification", "bom_witness", "wom_witness", "truthful_cases"),
         ("WOM-only", None, (1, 0, 2), CaseOutcomes(0, 2, frozenset({0, 1, 2}))), CaseOutcomes(0, 1, frozenset({0, 1}))),
    ]


RECORDS = [entry[0].__name__ for entry in _values()]


def _record(name):
    return next(entry for entry in _values() if entry[0].__name__ == name)


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    cls, fields, values, other = _record(name)
    record = cls(*values)
    assert cls.__match_args__ == fields
    assert tuple(getattr(record, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    again = cls(*_record(name)[2])
    assert again == record and again is not record
    if name == "TheoremVerdict":
        with pytest.raises(TypeError):  # its parameters are a dict
            hash(record)
    else:
        assert hash(again) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
    assert cls(*values[:-1], other) != record

    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[-1])

    if cls is Profile:
        assert list(record) == list(values[0]) and record.n == 2 and record.m == 3
        assert record != values  # a Profile is no tuple
    else:
        assert record == values  # the API change: a record compares equal to the plain tuple of its fields
        assert record._asdict() == dict(zip(fields, values))
        assert record._replace(**{fields[0]: values[0]}) == record


@pytest.mark.parametrize("fields, error", [
    ((None, (), 2, 0, (0, 1, 2)), InvalidParametersError),
    ((omvote.borda(), (), 2, 0, (0, 1, 1)), DuplicateOutcomeError),
    ((omvote.borda(), (), 2, 0, (0, 1, 3)), OutOfRangeIndexError),
    ((omvote.borda(), ((0, 1),), 2, 0, (0, 1, 2)), WrongLengthError),
    ((omvote.borda(), None, 2, 0, (0, 1, 2)), InvalidParametersError),
    ((omvote.borda(), (), 1.5, 0, (0, 1, 2)), InvalidParametersError),
    ((omvote.borda(), (), 0, 0, (0, 1, 2)), InvalidParametersError),
    ((omvote.borda(), (), 2, 3, (0, 1, 2)), InvalidParametersError),
], ids=["rule", "tiebreak-duplicate", "tiebreak-range", "ballot-length", "ballots", "manipulators", "no-voters",
        "target"])
def test_ccum_instance_checks_at_construction(fields, error):
    with pytest.raises(error) as raised:
        CcumInstance(*fields)
    assert type(raised.value) is error
    valid = CcumInstance(omvote.borda(), ((0, 1, 2),), 2, 0, (0, 1, 2))
    with pytest.raises(error):  # _replace builds through the same checks
        valid._replace(**dict(zip(valid._fields, fields)))


def test_ccum_instance_normalizes_its_fields():
    inst = CcumInstance(omvote.borda(), [[0, 1, 2]], 2, 0, [2, 1, 0])
    assert inst.fixed_ballots == ((0, 1, 2),) and inst.tiebreak == (2, 1, 0) and inst.m == 3


def test_importing_omvote_loads_neither_dataclasses_nor_inspect():
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "omvote = importlib.import_module('omvote')\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('omvote.' + name)\n"
        f"assert omvote.__file__.startswith({str(SRC)!r}), omvote.__file__\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
