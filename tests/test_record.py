"""``Record`` against the frozen dataclass it replaces (``helpers.DataTwin``)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from m2mlat.errors import ConfigInvalid
from m2mlat.record import Record, replace

from helpers import DataIdentityTwin, DataTwin

FIELDS = ("n", "label", "parts")


class RecordTwin(Record):
    n: int
    label: str = "x"
    parts: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ConfigInvalid(f"n must be >= 0, got {self.n}")


class SameFields(Record):
    """``RecordTwin``'s fields in another class, which it never equals."""

    n: int
    label: str = "x"
    parts: tuple = ()


class IdentityTwin(Record, eq=False):
    n: int
    label: str = "x"


def fields(least_n: int):
    return st.fixed_dictionaries({
        "n": st.integers(least_n, 2**70),
        "label": st.text(max_size=4),
        "parts": st.lists(st.integers(), max_size=3).map(tuple),
    })


values = fields(-2)  # a negative n fails the twins' check
valid = fields(0)


@st.composite
def calls(draw) -> tuple[list, dict]:
    """Arguments for a twin: the first ``k`` fields by position, then any
    of the rest by keyword, in any order; a field left out takes its
    default, and one with none (``n``) raises."""
    v = draw(values)
    k = draw(st.integers(0, len(FIELDS)))
    named = draw(st.permutations(FIELDS[k:]))
    named = named[:draw(st.integers(0, len(named)))]
    return [v[f] for f in FIELDS[:k]], {f: v[f] for f in named}


def outcome(cls, args, kwargs):
    """The instance, or the type of what the call raises (with the message
    of a ConfigInvalid, the twins' own)."""
    try:
        return cls(*args, **kwargs)
    except ConfigInvalid as err:
        return ConfigInvalid, str(err)
    except TypeError:
        return TypeError


def same_record(rec, data) -> None:
    assert isinstance(rec, RecordTwin) and isinstance(data, DataTwin)
    # vars() lists the fields in order, whatever order they were given in
    assert list(vars(rec).items()) == list(vars(data).items())
    assert repr(rec) == "RecordTwin" + repr(data).removeprefix("DataTwin")
    assert hash(rec) == hash(data)


@settings(max_examples=200, deadline=None)
@given(calls())
def test_a_record_is_built_as_its_dataclass_twin(call):
    rec, data = outcome(RecordTwin, *call), outcome(DataTwin, *call)
    if isinstance(data, DataTwin):
        same_record(rec, data)
    else:
        assert rec == data


@settings(max_examples=200, deadline=None)
@given(valid, valid)
def test_equality_and_hash_follow_the_fields(a, b):
    ra, rb, da, db = RecordTwin(**a), RecordTwin(**b), DataTwin(**a), DataTwin(**b)
    assert (ra == rb) is (da == db) is (a == b)
    assert (ra != rb) is (da != db)
    if ra == rb:
        assert hash(ra) == hash(rb)
    # another class with the same fields, and the dataclass itself, differ
    assert ra != SameFields(**a) and ra != da


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # n missing
    ((1, "a", (), 4), {}),  # one too many
    ((1,), {"n": 1}),  # n twice
    ((1,), {"bogus": 2}),  # no such field
])
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (RecordTwin, DataTwin):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_fields_can_be_neither_set_nor_deleted():
    for twin in (RecordTwin(1), DataTwin(1)):
        for name in ("n", "label", "other"):
            with pytest.raises(AttributeError):
                setattr(twin, name, 2)
            with pytest.raises(AttributeError):
                delattr(twin, name)
        assert vars(twin) == {"n": 1, "label": "x", "parts": ()}


@settings(max_examples=100, deadline=None)
@given(valid, values)
def test_replace_checks_the_copy_again(a, b):
    ra, da = RecordTwin(**a), DataTwin(**a)
    for changes in ({"n": b["n"]}, {"label": b["label"], "parts": b["parts"]}, b):
        rec = outcome(replace, [ra], changes)
        data = outcome(dataclasses.replace, [da], changes)
        if isinstance(data, DataTwin):
            same_record(rec, data)
        else:
            assert rec == data  # a negative n raises in __post_init__
    for cls, fn, twin in ((RecordTwin, replace, ra), (DataTwin, dataclasses.replace, da)):
        with pytest.raises(TypeError):
            fn(twin, bogus=1)


def test_eq_false_keeps_identity_equality():
    for cls in (IdentityTwin, DataIdentityTwin):
        a, b = cls(1), cls(1)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
    assert repr(IdentityTwin(1)) == "IdentityTwin(n=1, label='x')"
    with pytest.raises(AttributeError):
        IdentityTwin(1).n = 2
