"""Value types build the objects dataclass's own constructor would build.

:func:`repro.runtime.codec.value_type` replaces a frozen slotted dataclass's
``__init__`` with one that sets each slot through its descriptor.  Every
registered message class and ``Command``, ``LogicalTimestamp``, ``Ballot``
and ``CommandSample`` are built that way, and each is held here to a *twin*: the plain
``@dataclass(frozen=True, slots=True)`` of the same name, fields and
defaults.  Both are given the same arguments (positional, keyword, mixed,
defaults left out, and the wrong ones) and must agree on the fields they
store, ``repr``, ``hash``, ``==``, ``dataclasses.replace``, the signature,
pickling and frozenness.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.metrics.collector import CommandSample
from repro.runtime.codec import value_type
from repro.runtime.fields import BALLOT, COMMAND, TIMESTAMP
from tests.test_runtime_codec import all_wire_types, message_strategy, strategy_for

VALUE_TYPES = {Command: COMMAND, LogicalTimestamp: TIMESTAMP, Ballot: BALLOT}
_TIMES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
#: Value types no codec describes, each with a strategy of its own.
UNREGISTERED = {
    CommandSample: st.builds(CommandSample, st.integers(0, 8), st.integers(0, 8),
                             _TIMES, _TIMES, st.text(max_size=12)),
}
CLASSES = [*all_wire_types(), *VALUE_TYPES, *UNREGISTERED]


def instances_of(cls) -> st.SearchStrategy:
    if cls in UNREGISTERED:
        return UNREGISTERED[cls]
    codec = VALUE_TYPES.get(cls)
    return message_strategy(cls) if codec is None else strategy_for(codec)


def twin_of(cls) -> type:
    """The dataclass-built class ``cls`` would be without :func:`value_type`."""
    specs = []
    for spec in dataclasses.fields(cls):
        if spec.default is dataclasses.MISSING:
            specs.append((spec.name, spec.type))
        else:
            specs.append((spec.name, spec.type, dataclasses.field(default=spec.default)))
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True, slots=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def values_of(obj) -> list:
    return [getattr(obj, spec.name) for spec in dataclasses.fields(obj)]


def outcome(build):
    """What a constructor call gives: the stored fields, repr and hash, or the error type."""
    try:
        obj = build()
    except TypeError:
        return TypeError
    return values_of(obj), repr(obj), hash(obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_the_constructor_is_the_generated_one(cls):
    assert cls.__init__.__code__.co_filename.startswith(f"<value type {cls.__qualname__}")
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__slots__ == tuple(spec.name for spec in dataclasses.fields(cls))
    assert cls.__dataclass_params__.frozen


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_signature_and_match_args_are_the_dataclass_ones(cls):
    twin = twin_of(cls)
    ours = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    theirs = [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()]
    assert ours == theirs
    assert cls.__match_args__ == twin.__match_args__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_construction_agrees_with_the_dataclass_twin(cls, data):
    twin = twin_of(cls)
    specs = dataclasses.fields(cls)
    values = values_of(data.draw(instances_of(cls)))
    names = [spec.name for spec in specs]
    keywords = dict(zip(names, values))
    split = data.draw(st.integers(0, len(values)))
    required = [spec.name for spec in specs if spec.default is dataclasses.MISSING]
    calls = [
        ("positional", values, {}),
        ("keyword", [], keywords),
        ("mixed", values[:split], dict(zip(names[split:], values[split:]))),
        ("defaults", values[:len(required)], {}),
        ("one too many", [*values, None], {}),
        ("unknown keyword", values, {"no_such_field": 1}),
        ("given twice", values, {names[0]: values[0]}),
    ]
    if required:
        calls.append(("one too few", values[:len(required) - 1], {}))
    for label, args, kwargs in calls:
        ours = outcome(lambda: cls(*args, **kwargs))
        theirs = outcome(lambda: twin(*args, **kwargs))
        assert ours == theirs, (label, ours, theirs)

    obj, copy = cls(*values), cls(**keywords)
    assert obj == copy and hash(obj) == hash(copy) and values_of(obj) == values
    assert pickle.loads(pickle.dumps(obj)) == obj
    other = values_of(data.draw(instances_of(cls)))
    changed = data.draw(st.sampled_from(names))
    replaced = dataclasses.replace(obj, **{changed: other[names.index(changed)]})
    assert values_of(replaced) == values_of(
        dataclasses.replace(twin(*values), **{changed: other[names.index(changed)]}))
    assert (replaced == obj) == (values_of(replaced) == values)
    for mutate in (lambda: setattr(obj, changed, None), lambda: delattr(obj, changed)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            mutate()
    assert values_of(obj) == values

def test_a_field_the_constructor_cannot_take_is_refused():
    with pytest.raises(TypeError, match="plain positional-or-keyword"):
        @value_type
        class Listed:
            items: list = dataclasses.field(default_factory=list)
    with pytest.raises(TypeError, match="__post_init__"):
        @value_type
        class Checked:
            value: int

            def __post_init__(self) -> None:
                pass
