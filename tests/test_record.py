"""The record semantics every record class of the package relies on."""

import pickle
from fractions import Fraction

import pytest

from mirrorint.cli import CorpusEntry
from mirrorint.landau import Classification, FactorialRatioSpec, LandauProfile
from mirrorint.mirror import (
    MirrorMapBundle,
    NonintegralityWitness,
    ReferenceExponents,
    RootHypothesisVerdict,
)
from mirrorint.padic import PadicMembershipReport
from mirrorint.series import IntegralityReport, TruncatedSeries
from mirrorint.zhou import BatchSummary, ZhouInstance, ZhouVerdict

S6 = FactorialRatioSpec((6,), (3, 2, 1))
REPORT = IntegralityReport(False, 10, 3, Fraction(1, 2))
VERDICT = ZhouVerdict(ZhouInstance((2, 3, 6)), REPORT)

# (class, its fields in order as stored, one changed field that stays valid)
CASES = [
    (FactorialRatioSpec, {"e": (6,), "f": (3, 2, 1)}, {"f": (3, 3)}),
    (
        LandauProfile,
        {
            "breakpoints": (Fraction(0), Fraction(1, 2)),
            "values": (0, 1),
            "jumps": ((Fraction(1, 2), 1),),
        },
        {"values": (0, 2)},
    ),
    (
        Classification,
        {
            "landau_integral": True,
            "case_i": False,
            "negative_witnesses": (),
            "zero_witnesses": (Fraction(1, 5),),
        },
        {"case_i": True},
    ),
    (
        IntegralityReport,
        {
            "integral": False,
            "order_checked": 10,
            "first_bad_index": 3,
            "first_bad_coefficient": Fraction(1, 2),
        },
        {"first_bad_index": 4},
    ),
    (TruncatedSeries, {"coeffs": (1, 2, Fraction(1, 3))}, {"coeffs": (1, 2)}),
    (
        PadicMembershipReport,
        {
            "prime": 7,
            "required_valuation": 1,
            "value_description": "phi grid",
            "actual_valuation": 2,
            "member": True,
            "witness": None,
        },
        {"actual_valuation": 3},
    ),
    (MirrorMapBundle, {"spec": S6, "order": 5}, {"order": 6}),
    (
        RootHypothesisVerdict,
        {"spec": S6, "theta": 2, "hypothesis_holds": True, "failing_level": None},
        {"theta": 3},
    ),
    (
        ReferenceExponents,
        {
            "spec": S6,
            "theta_l": {1: 1, 2: 2},
            "q_one_over_theta": {1: Fraction(60), 2: Fraction(30)},
            "xi": None,
            "omega": None,
            "xi_exponent": None,
            "omega_exponent": None,
        },
        {"xi": Fraction(4)},
    ),
    (
        NonintegralityWitness,
        {"prime": 7, "target": "q", "index": 3, "valuation": -1},
        {"index": 4},
    ),
    (ZhouInstance, {"ks": (2, 3, 6)}, {"ks": (2, 4, 4)}),
    (ZhouVerdict, {"instance": ZhouInstance((2, 4, 4)), "report": REPORT}, {"report": None}),
    (BatchSummary, {"order": 10, "verdicts": (VERDICT,)}, {"order": 11}),
    (CorpusEntry, {"name": "6/3,2,1", "passed": True, "detail": "ok"}, {"passed": False}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# Dict fields make a record unhashable, as they would a frozen dataclass.
UNHASHABLE = {ReferenceExponents}


@pytest.mark.parametrize("cls,fields,change", CASES, ids=IDS)
class TestRecord:
    def test_equality_and_hash(self, cls, fields, change):
        record = cls(**fields)
        rebuilt = cls(*fields.values())
        assert record == rebuilt and not record != rebuilt
        assert record != cls(**{**fields, **change})
        assert record != tuple(fields.values())
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(rebuilt)

    def test_frozen(self, cls, fields, change):
        record = cls(**fields)
        name = next(iter(change))
        with pytest.raises(AttributeError):
            setattr(record, name, change[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name]

    def test_repr(self, cls, fields, change):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__qualname__}({shown})"

    def test_pickle_round_trip(self, cls, fields, change):
        record = cls(**fields)
        assert pickle.loads(pickle.dumps(record)) == record

    def test_bad_arguments(self, cls, fields, change):
        first, *rest = fields
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in rest})
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        with pytest.raises(TypeError):
            cls(fields[first], **fields)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)

    def test_post_init_patched_later_runs(self, cls, fields, change, monkeypatch):
        # Looked up at construction: a patched __post_init__ is never skipped.
        seen = []
        original = getattr(cls, "__post_init__", None)

        def post_init(record):
            seen.append(record)
            if original is not None:
                original(record)

        monkeypatch.setattr(cls, "__post_init__", post_init, raising=False)
        record = cls(**fields)
        assert seen == [record]


def test_defaults_fill_missing_fields():
    report = IntegralityReport(integral=True, order_checked=5)
    assert report.first_bad_index is None and report.first_bad_coefficient is None
    assert Classification(True, True) == Classification(True, True, (), ())


def test_cached_property_slots():
    # cached_property writes to the instance __dict__, past the frozen fields.
    bundle = MirrorMapBundle(S6, 5)
    assert bundle.F is bundle.F and "F" in vars(bundle)
    assert S6.jump_table is S6.jump_table
    spec = pickle.loads(pickle.dumps(S6))
    assert spec == S6 and "jump_table" not in vars(spec)
