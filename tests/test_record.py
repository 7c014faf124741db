"""The record classes against the ``@dataclass(frozen=True)`` they replace.

Each record class is compared with a frozen dataclass twin built here from
the class's own annotations, defaults and ``__post_init__``: construction,
defaults, repr, equality, hashing, immutability and the argument errors must
agree.  Only this test imports ``dataclasses``; the package never does.
"""

import dataclasses
from fractions import Fraction

import pytest

from lgforge import (
    CharacterAction,
    ComparisonReport,
    CoverSpec,
    DiscClass,
    DivisorFunctional,
    PeriodSequence,
    SolverOptions,
    _record,
    build_cover_potential,
    cover,
    critical,
    lattice,
    laurent,
    mutation,
    parse,
    parse_poly,
    periods,
)
from lgforge.mutation import PeriodCompareRow
from lgforge.periods import WeakLGRow

MODULES = (cover, critical, lattice, laurent, mutation, periods)


def record_classes() -> dict:
    return {cls.__name__: cls for module in MODULES for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and cls.__init__.__module__ == _record.__name__}


def samples() -> dict:
    """Constructor arguments for every record class, some of them before the
    coercions of ``__post_init__`` (lists for tuples, ints for Fractions)."""
    f = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
    functional = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))
    result = build_cover_potential(CoverSpec(f, functional, 2, 0))
    disc = DiscClass(1, [1, 0], [0, 1], 1)
    maslov_row = cover.MaslovRow(disc, 1, True)
    point = critical.CriticalPoint((1 + 2j, 0.5 - 1j), 3 + 0j, -2 + 1j, True, 1e-13)
    expr = parse("(1+x)/(1+y)", ["x", "y"])
    return {
        "DivisorFunctional": ([1, 0], 2),
        "CoverSpec": (f, functional, 2, 0),
        "CoverResult": (result.upstairs_potential, result.action, result.quotient_potential,
                        result.basis),
        "TangencyNumber": (Fraction(7, 2), False),
        "DiscClass": (2, [Fraction(2), True], (0, -1), "3/2"),
        "RHLift": (Fraction(1, 2), False),
        "MaslovRow": (disc, 1, True),
        "MaslovReport": ((maslov_row,), True),
        "SolverOptions": (5, 7),
        "CriticalPoint": ((1 + 2j, 0.5 - 1j), 3 + 0j, -2 + 1j, True, 1e-13),
        "CriticalSearch": ((point,), False),
        "CriticalValueSet": (((3 + 0j, 2),), False),
        "CharacterAction": ((3, -1), 2),
        "Sublattice": (2, ((1, 0), (1, 2)), 2),
        "Substitution": ((parse("x", ["x", "y"]), parse("y", ["x", "y"])),),
        "PeriodCompareRow": (2, Fraction(2), Fraction(2), True),
        "PeriodSequence": ("p", [1, 0, Fraction(2)], "computed"),
        "WeakLGRow": (2, Fraction(2), Fraction(3), False),
        "ComparisonReport": ((WeakLGRow(2, Fraction(2), Fraction(2), True),), True),
        "RationalExpr": (expr.num, expr.den),
    }


SAMPLES = samples()
RECORDS = record_classes()


def twin(cls):
    """A frozen dataclass with the fields, defaults and ``__post_init__`` of ``cls``."""
    spec = []
    for name, annotation in cls.__dict__["__annotations__"].items():
        if name in cls.__dict__:
            spec.append((name, annotation, dataclasses.field(default=cls.__dict__[name])))
        else:
            spec.append((name, annotation))
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def fields(cls) -> tuple:
    return tuple(cls.__dict__["__annotations__"])


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 20
    assert sorted(RECORDS) == sorted(SAMPLES)


@pytest.fixture(params=sorted(SAMPLES))
def case(request):
    cls = RECORDS[request.param]
    return cls, twin(cls), SAMPLES[request.param]


def test_repr_eq_and_hash_match_the_dataclass(case):
    cls, ref, args = case
    got, want = cls(*args), ref(*args)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert [getattr(got, name) for name in fields(cls)] == \
        [getattr(want, name) for name in fields(cls)]
    assert got == cls(*args) and not got != cls(*args)
    assert got != want  # another class, as two dataclasses with equal fields are
    assert got.__eq__(object()) is NotImplemented


def test_positional_and_keyword_construction_agree(case):
    cls, _, args = case
    kwargs = dict(zip(fields(cls), args))
    half = len(args) // 2
    assert cls(**kwargs) == cls(*args)
    assert cls(*args[:half], **dict(list(kwargs.items())[half:])) == cls(*args)
    assert list(vars(cls(**kwargs))) == list(fields(cls))


def test_bad_arguments_raise_type_error_like_the_dataclass(case):
    cls, ref, args = case
    names = fields(cls)
    required = [name for name in names if name not in cls.__dict__]
    bad_calls = [
        (args + (None,), {}),  # one positional too many
        (args, {"no_such_field": 1}),
        (args, {names[0]: args[0]}),  # a field given twice
    ]
    if required:
        kwargs = dict(zip(names, args))
        del kwargs[required[-1]]
        bad_calls.append(((), kwargs))
    for call_args, call_kwargs in bad_calls:
        for make in (cls, ref):
            with pytest.raises(TypeError):
                make(*call_args, **call_kwargs)


def test_fields_can_be_neither_assigned_nor_deleted(case):
    cls, _, args = case
    record = cls(*args)
    name = fields(cls)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, args[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == cls(*args)


def test_defaults_come_from_the_class_body():
    assert SolverOptions() == SolverOptions(200, 0) == SolverOptions(seed=0)
    assert repr(SolverOptions(starts=9)) == repr(twin(SolverOptions)(starts=9)) == \
        "SolverOptions(starts=9, seed=0)"


def test_post_init_coerces_and_validates():
    disc = DiscClass(2, [Fraction(2), True], (0, -1), "3/2")
    assert disc.divisor_hits == (2, 1) and all(type(h) is int for h in disc.divisor_hits)
    assert disc.area == Fraction(3, 2)
    assert CharacterAction((3, -1), 2).weights == (1, 1)
    with pytest.raises(ValueError, match="c_0 must be 1"):
        PeriodSequence("p", (2, 1), "computed")
    f = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
    functional = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))
    descendant = CoverSpec(f, functional, 2, 4).descendant
    assert descendant == 4 and type(descendant) is Fraction
    with pytest.raises(ValueError, match="at least 2"):
        CoverSpec(f, functional, 1, 0)


def test_record_types_with_equal_fields_are_not_equal():
    rows = ((WeakLGRow(2, Fraction(2), Fraction(2), True),), True)
    assert ComparisonReport(*rows) != cover.MaslovReport(*rows)
    assert WeakLGRow(2, 1, 1, True) != PeriodCompareRow(2, 1, 1, True)

