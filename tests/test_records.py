"""The frozen record base behind the result types: a dataclass's behaviour without dataclasses."""

from __future__ import annotations

import dataclasses

import pytest

import betalab as bl
from betalab.cli import CommandInvocation
from betalab.errors import DomainError
from betalab.verify import CheckRecord, IdentitySpec, SuiteReport

_CHECK = ("BU1", (0.5,), 2.0, 2.0, 0.0, 0.0, 1e-9, True, False, None, {"terms_used": 3})

# One instance's fields per record type, all given.
SAMPLES = {
    bl.SeriesControl: (1000, 1e-8, False),
    bl.SeriesResult: (0.5, 0.5, 1e-16, 3, bl.EXACT_TERMINATION, 2),
    bl.QuadratureResult: (1.0, 1e-15, 4, 97),
    bl.LimitResult: (-0.5772156649015329, 1e-12, 10),
    CommandInvocation: ("limit", {"name": "gamma-pole"}),
    IdentitySpec: ("BU1", "B(u, 1) = 1/u", "beta", ((0.5,),), 1e-9, "absolute", abs, float),
    CheckRecord: _CHECK,
    SuiteReport: ((CheckRecord(*_CHECK),), {"total": 1}, "0.6.0", ()),
}
# Records holding a dict, as unhashable as their dataclass twins.
UNHASHABLE = (CommandInvocation, CheckRecord, SuiteReport)
RECORDS = pytest.mark.parametrize("cls, args", SAMPLES.items(), ids=[c.__name__ for c in SAMPLES])


def _twin(cls):
    """The frozen dataclass with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


@RECORDS
def test_records_refuse_assignment_and_deletion(cls, args):
    rec = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == cls(*args)


@RECORDS
def test_records_compare_hash_and_print_as_dataclasses_do(cls, args):
    twin = _twin(cls)
    rec = cls(*args)
    assert repr(rec) == repr(twin(*rec._values()))  # as stored: verify's mappings are read-only
    changed = (args[0] + args[0],) + args[1:]
    assert (rec == cls(*args), rec == cls(*changed)) == (True, False)
    assert rec != args and not isinstance(rec, tuple)  # the scaled-beta route returns a tuple
    if cls in UNHASHABLE:
        for obj in (rec, twin(*args)):
            with pytest.raises(TypeError):
                hash(obj)
    else:
        assert hash(rec) == hash(twin(*args))


def test_records_of_different_types_differ():
    assert bl.QuadratureResult(1.0, 0.0, 1, 1) != bl.LimitResult(1.0, 0.0, 1)


def test_record_repr_and_fields_are_pinned():
    assert repr(bl.SeriesControl()) == (
        "SeriesControl(max_terms=1000000, tol=1e-10, tail_correction=True)"
    )
    assert bl.SeriesResult._fields == (
        "value", "raw_partial_sum", "tail_estimate", "terms_used", "termination", "reductions"
    )


@RECORDS
def test_records_take_positional_keyword_and_default_arguments(cls, args):
    rec = cls(*args)
    assert [getattr(rec, name) for name in cls._fields] == list(args)
    assert cls(**dict(zip(cls._fields, args))) == rec
    assert cls(*args[:1], **dict(zip(cls._fields[1:], args[1:]))) == rec


def test_defaults_cover_the_trailing_fields():
    assert (bl.SeriesControl.max_terms, bl.SeriesControl.tol) == (1_000_000, 1e-10)
    assert bl.SeriesControl(5) == bl.SeriesControl(5, 1e-10, True)
    assert bl.SeriesResult(1.0, 1.0, 0.0, 1, bl.MAX_TERMS).reductions == 0


@RECORDS
def test_records_reject_unknown_repeated_missing_and_extra_fields(cls, args):
    with pytest.raises(TypeError, match="no field 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="twice"):
        cls(*args, **{cls._fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, None)
    required = [name for name in cls._fields if name not in vars(cls)]
    if required:  # every SeriesControl field has a default
        with pytest.raises(TypeError, match="missing"):
            cls(*args[: len(required) - 1])


@RECORDS
def test_replace_builds_a_new_record_through_the_constructor(cls, args):
    rec = cls(*args)
    copy = rec._replace()
    assert copy == rec and copy is not rec
    changed = rec._replace(**{cls._fields[0]: args[0] + args[0]})
    assert changed == cls(args[0] + args[0], *args[1:]) and rec == cls(*args)
    with pytest.raises(TypeError, match="no field 'bogus'"):
        rec._replace(bogus=1)


@pytest.mark.parametrize(
    "cls, change", [(bl.SeriesControl, {"max_terms": 0}), (IdentitySpec, {"tolerance": -1.0})]
)
def test_replace_runs_post_init_again(cls, change):
    with pytest.raises(DomainError):
        cls(*SAMPLES[cls])._replace(**change)


@pytest.mark.parametrize("args", [(0,), (10, -1.0), (True,)])
def test_series_control_checks_every_construction(args):
    with pytest.raises(DomainError):
        bl.SeriesControl(*args)
