"""The contract of the package's public record types: construction by position
and by keyword with defaults, the signature Python binds them with, the repr
text, equality and hash by value within one class, immutability, copies and
pickles, and the checks each type makes on construction."""

import copy
import inspect
import pickle
import re

import pytest

from ottoqft.algebra import MomentSet, TwoPointKernel, WeylMoments
from ottoqft.algebra import contraction_factor, p_after_second, weyl_moments
from ottoqft.config import Axis, SweepSpec
from ottoqft.cycle import CycleConfig, InteractionEvent, WorkReport
from ottoqft.cycle import cyclic_initial_population, extracted_work, stroke_ledger
from ottoqft.minkowski import MinkowskiParams
from ottoqft.oracle import FockParams
from ottoqft.record import Record
from ottoqft.verification import CheckResult

FIRST = InteractionEvent(0.0, 1.0)
SECOND = InteractionEvent(1.5, 3.0, 2.0)

# (type, field names in order, one value per field, its repr)
RECORDS = [
    (Axis, ("start", "stop", "count"), (0.5, 8.0, 16),
     "Axis(start=0.5, stop=8.0, count=16)"),
    (SweepSpec,
     ("mode", "omega1", "omega2", "tau1", "tau2", "lambda1", "lambda2", "tau2_axis",
      "lambda1_axis", "lambda2_axis", "initial_p", "output_path", "seed", "cases", "dim",
      "tolerance_overrides"),
     ("curve-tau2", 1.0, 3.0, 0.0, None, 100.0, 1.0, Axis(0.5, 8.0, 16), None, None, None,
      "out.csv", None, None, None, {"fock_p1": 1e-9}),
     "SweepSpec(mode='curve-tau2', omega1=1.0, omega2=3.0, tau1=0.0, tau2=None, "
     "lambda1=100.0, lambda2=1.0, tau2_axis=Axis(start=0.5, stop=8.0, count=16), "
     "lambda1_axis=None, lambda2_axis=None, initial_p=None, output_path='out.csv', "
     "seed=None, cases=None, dim=None, tolerance_overrides={'fock_p1': 1e-09})"),
    (MomentSet, ("nu1", "nu2", "e12", "mu12"), (0.5, 0.25, -0.125, 0.0625),
     "MomentSet(nu1=0.5, nu2=0.25, e12=-0.125, mu12=0.0625)"),
    (TwoPointKernel, ("w11", "w22", "w12"), (0.5, 0.25, 0.125 + 0.5j),
     "TwoPointKernel(w11=0.5, w22=0.25, w12=(0.125+0.5j))"),
    (WeylMoments, ("cccc", "cssc", "sccs", "ssss", "csc_s", "ssc_c"),
     (0.5, 0.25, 0.125, 0.125, 0.25j, -0.25j),
     "WeylMoments(cccc=0.5, cssc=0.25, sccs=0.125, ssss=0.125, csc_s=0.25j, "
     "ssc_c=(-0-0.25j))"),
    (InteractionEvent, ("tau", "gap", "coupling"), (1.5, 3.0, 2.0),
     "InteractionEvent(tau=1.5, gap=3.0, coupling=2.0)"),
    (CycleConfig, ("first", "second", "initial_p"), (FIRST, SECOND, 0.25),
     "CycleConfig(first=InteractionEvent(tau=0.0, gap=1.0, coupling=0.0), "
     "second=InteractionEvent(tau=1.5, gap=3.0, coupling=2.0), initial_p=0.25)"),
    (WorkReport,
     ("p", "p1", "p2", "w1", "w3", "q2", "q4", "w_ext", "q_total", "efficiency", "pwc",
      "degenerate", "closed"),
     (0.25, 0.5, 0.25, 0.0, 0.5, 0.25, -0.25, 0.5, 0.0, None, True, False, True),
     "WorkReport(p=0.25, p1=0.5, p2=0.25, w1=0.0, w3=0.5, q2=0.25, q4=-0.25, w_ext=0.5, "
     "q_total=0.0, efficiency=None, pwc=True, degenerate=False, closed=True)"),
    (MinkowskiParams, ("lambda1", "lambda2", "dtau"), (100.0, 1.0, 1.5),
     "MinkowskiParams(lambda1=100.0, lambda2=1.0, dtau=1.5)"),
    (FockParams, ("alpha1", "alpha2", "nbar", "dim"), (0.25, 0.5j, 0.5, 40),
     "FockParams(alpha1=0.25, alpha2=0.5j, nbar=0.5, dim=40)"),
    (CheckResult, ("name", "deviation", "threshold", "passed", "detail"),
     ("dawson_spot", 1e-16, 1e-12, True, "15 points"),
     "CheckResult(name='dawson_spot', deviation=1e-16, threshold=1e-12, passed=True, "
     "detail='15 points')"),
]
IDS = [record[0].__name__ for record in RECORDS]
# the defaulted fields of each type and their defaults; the other types have none
DEFAULTS = {
    InteractionEvent: {"coupling": 0.0},
    CycleConfig: {"initial_p": None},
    FockParams: {"nbar": 0.0, "dim": 60},
    SweepSpec: dict.fromkeys(SweepSpec._fields[1:]),
}


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    assert cls.__match_args__ == names
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == list(values)
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_repr_text(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, names, values, text):
    record, same = cls(*values), cls(*values)
    assert record == same and not record != same
    if cls is SweepSpec:  # it holds a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(tuple(values))
    # a new value of the last field, one that passes the type's checks
    changed = cls(*values[:-1], {SweepSpec: {"fock_p1": 1e-8}, CycleConfig: 0.75}.get(cls, 7))
    assert record != changed and not record == changed


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_unequal_to_another_class_with_the_same_values(cls, names, values, text):
    record = cls(*values)
    assert record != tuple(values)
    assert record != type("Other", (), dict(zip(names, values)))()


def test_records_of_two_types_with_equal_fields_differ():
    assert MinkowskiParams(1.0, 2.0, 3.0) != TwoPointKernel(1.0, 2.0, 3.0)
    assert TwoPointKernel(1.0, 2.0, 3.0) != MinkowskiParams(1.0, 2.0, 3.0)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    record = cls(*values)
    for name in (names[0], names[-1], "new_attribute"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
    for name in (names[0], names[-1]):
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(values)


@pytest.mark.parametrize("make, defaults", [
    (lambda: InteractionEvent(1.5, 3.0), DEFAULTS[InteractionEvent]),
    (lambda: CycleConfig(FIRST, SECOND), DEFAULTS[CycleConfig]),
    (lambda: CycleConfig(second=SECOND, first=FIRST), DEFAULTS[CycleConfig]),
    (lambda: FockParams(0.25, 0.5j), DEFAULTS[FockParams]),
    (lambda: FockParams(alpha2=0.5j, alpha1=0.25, dim=8), {"nbar": 0.0, "dim": 8}),
    (lambda: SweepSpec("verify"),
     {**dict.fromkeys(("omega1", "omega2", "tau1", "tau2", "lambda1", "lambda2", "tau2_axis",
                       "lambda1_axis", "lambda2_axis", "initial_p", "output_path", "seed",
                       "cases", "dim", "tolerance_overrides"))}),
])
def test_defaults(make, defaults):
    record = make()
    assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_signature_lists_the_fields_with_their_defaults(cls, names, values, text):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(parameter.name for parameter in parameters) == cls._fields == names
    assert all(parameter.kind is parameter.POSITIONAL_OR_KEYWORD for parameter in parameters)
    assert {parameter.name: parameter.default for parameter in parameters
            if parameter.default is not parameter.empty} == DEFAULTS.get(cls, {})


@pytest.mark.parametrize("defaults, field", [
    ({"a": 0.0}, "b"),
    ({"b": 0.0}, "c"),
    ({"a": 0.0, "c": 0.0}, "b"),
])
def test_a_field_without_a_default_after_one_with_a_default_is_a_type_error(defaults, field):
    # a generated __init__'s defaults bind to its last parameters: any other
    # order would give a default to the wrong field
    namespace = {"__annotations__": dict.fromkeys("abc", float), **defaults}
    with pytest.raises(TypeError, match=f"^Late: field '{field}' has no default "
                                        "but follows a field that has one$"):
        type("Late", (Record,), namespace)


@pytest.mark.parametrize("call, argument, init", [
    (lambda: MomentSet(0.5, 0.5, 0.0), "mu12", "MomentSet.__init__()"),
    (lambda: MomentSet(0.5, 0.5, 0.0, mu=0.0), "mu", "MomentSet.__init__()"),
    (lambda: MomentSet(0.5, 0.5, 0.0, 0.0, nu1=0.5), "nu1", "MomentSet.__init__()"),
    (lambda: InteractionEvent(gap=1.0), "tau", "InteractionEvent.__init__()"),
    (lambda: SweepSpec(), "mode", "SweepSpec.__init__()"),
    (lambda: CycleConfig(FIRST, initial_p=0.5), "second", "CycleConfig.__init__()"),
    (lambda: FockParams(0.25, 0.5j, nbr=0.5), "nbr", "FockParams.__init__()"),
])
def test_a_call_that_does_not_fit_the_fields_is_a_type_error(call, argument, init):
    with pytest.raises(TypeError, match=f"^{re.escape(init)} .*'{argument}'"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: MomentSet(0.5, 0.5, 0.0, 0.0, 0.0),
     "MomentSet.__init__() takes 5 positional arguments but 6 were given"),
    (lambda: InteractionEvent(0.0, 1.0, 0.0, 0.0),
     "InteractionEvent.__init__() takes from 3 to 4 positional arguments but 5 were given"),
])
def test_too_many_positional_arguments_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def _copies(record):
    """record after copy.copy, copy.deepcopy and a pickle round trip at each protocol."""
    return [copy.copy(record), copy.deepcopy(record),
            *(pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_copies_and_pickles_equal_the_original(cls, names, values, text):
    record = cls(*values)
    for twin in _copies(record):
        assert type(twin) is cls and twin == record and repr(twin) == text
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{names[0]}'$"):
            setattr(twin, names[0], 0)


def test_a_moment_set_holds_only_its_fields_after_the_scalar_calls_read_it():
    moments = MomentSet(0.5, 0.25, -0.125, 0.0625)
    contraction_factor(moments, 1.0)
    p_after_second(0.5, moments, 1.0)
    cyclic_initial_population(moments, 1.0)
    extracted_work(moments, 1.0, -2.0)
    stroke_ledger(CycleConfig(FIRST, SECOND), moments)
    weyl_moments(moments)
    assert vars(moments) == {"nu1": 0.5, "nu2": 0.25, "e12": -0.125, "mu12": 0.0625}


@pytest.mark.parametrize("make, message", [
    (lambda: MomentSet(float("inf"), 0.5, 0.0, 0.0), "nu1 must be finite, got inf"),
    (lambda: MomentSet(0.5, 0.5, float("nan"), 0.0), "e12 must be finite, got nan"),
    (lambda: MomentSet(0.5, 0.5, 0.0, -float("inf")), "mu12 must be finite, got -inf"),
    (lambda: MomentSet(1.5, 0.5, 0.0, 0.0), "nu1 must lie in (0, 1], got 1.5"),
    (lambda: MomentSet(0.5, 0.0, 0.0, 0.0), "nu2 must lie in (0, 1], got 0.0"),
    (lambda: InteractionEvent(0.0, 0.0), "gap must be > 0, got 0.0"),
    (lambda: InteractionEvent(0.0, float("nan")), "gap must be > 0, got nan"),
    (lambda: InteractionEvent(0.0, 1.0, -1.0), "coupling must be >= 0, got -1.0"),
    (lambda: InteractionEvent(0.0, 1.0, float("nan")), "coupling must be >= 0, got nan"),
    (lambda: CycleConfig(SECOND, FIRST),
     "second kick must be later than the first (tau2 = 0.0 <= tau1 = 1.5)"),
    (lambda: CycleConfig(FIRST, FIRST),
     "second kick must be later than the first (tau2 = 0.0 <= tau1 = 0.0)"),
    (lambda: CycleConfig(FIRST, SECOND, 1.5), "initial_p must lie in [0, 1], got 1.5"),
    (lambda: CycleConfig(FIRST, SECOND, float("nan")), "initial_p must lie in [0, 1], got nan"),
    (lambda: MinkowskiParams(-1.0, 1.0, 0.5), "lambda1 must be >= 0, got -1.0"),
    (lambda: MinkowskiParams(1.0, -2.0, 0.5), "lambda2 must be >= 0, got -2.0"),
    (lambda: MinkowskiParams(1.0, 1.0, -0.5), "dtau must be >= 0, got -0.5"),
    (lambda: MinkowskiParams(float("nan"), 1.0, 0.5), "lambda1 must be >= 0, got nan"),
    (lambda: MinkowskiParams(1.0, float("nan"), 0.5), "lambda2 must be >= 0, got nan"),
    (lambda: MinkowskiParams(1.0, 1.0, float("nan")), "dtau must be >= 0, got nan"),
    (lambda: FockParams(float("inf"), 0.5), "alpha1 must be finite, got inf"),
    (lambda: FockParams(0.5, complex(0.0, float("nan"))), "alpha2 must be finite, got nanj"),
    (lambda: FockParams(0.5, 0.5, float("inf")), "nbar must be finite, got inf"),
    (lambda: FockParams(0.5, 0.5, -1.0), "nbar must be >= 0, got -1.0"),
    (lambda: FockParams(0.5, 0.5, 0.0, 1), "dim must be >= 2, got 1"),
])
def test_construction_checks(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
