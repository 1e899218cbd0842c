"""Tests for task payload serialization."""

from __future__ import annotations

import pytest

from repro.parsl.errors import SerializationError
from repro.parsl.serialization import (
    deserialize,
    pack_apply_message,
    serialize,
    unpack_apply_message,
)


def module_level_function(a, b=2):
    return a + b


def test_round_trip_simple_values():
    for value in [1, "text", [1, 2, 3], {"a": (1, 2)}, None, 3.5]:
        assert deserialize(serialize(value)) == value


def test_pack_unpack_apply_message_with_module_function():
    blob = pack_apply_message(module_level_function, (3,), {"b": 4})
    func, args, kwargs = unpack_apply_message(blob)
    assert func(*args, **kwargs) == 7


def test_pack_unpack_closures():
    offset = 10

    def closure(x):
        return x + offset

    func, args, kwargs = unpack_apply_message(pack_apply_message(closure, (5,), {}))
    assert func(*args, **kwargs) == 15


def test_pack_unpack_lambda():
    func, args, kwargs = unpack_apply_message(pack_apply_message(lambda x: x * 3, (4,), {}))
    assert func(*args, **kwargs) == 12


def test_deserialize_garbage_raises():
    with pytest.raises(SerializationError):
        deserialize(b"this is not a pickle")


def test_serialize_unserializable_raises():
    import threading

    with pytest.raises(SerializationError):
        serialize(threading.Lock())


# ------------------------------------------------------ errors cross processes

#: Constructor arguments for every error class whose constructor does not take
#: just a message; every other class gets ``("a message",)``.
ERROR_ARGS = {
    "NoDataFlowKernelError": (),
    "BashExitFailure": ("echo_app", 3, "false"),
    "BashAppNoReturn": ("echo_app", 42),
    "MissingOutputs": ("echo_app", ["out.txt", "err.txt"]),
    "DependencyError": ([ValueError("upstream")], 7),
    "JoinError": ([KeyError("inner")], 8),
    "ExecutorError": ("htex", "worker lost"),
    "ScalingFailed": ("htex", "no nodes"),
    "SerializationError": ("task payload bytes", EOFError("truncated")),
    "ValidationException": ("tool.cwl is invalid", ["no inputs", "no outputs"]),
    "JobFailure": ("tool.cwl", 2, "cat missing"),
    "JobTimeout": ("tool.cwl", 1.5),
    "InjectedFault": ("tool.cwl", 11, 1),
}


def _error_classes():
    import inspect

    import repro.cwl.errors
    import repro.parsl.errors

    for module in (repro.parsl.errors, repro.cwl.errors):
        for name, value in sorted(vars(module).items()):
            if (inspect.isclass(value) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                yield pytest.param(value, id=name)


def _comparable(value):
    """Attributes as values: exceptions compare by identity, so by class + args."""
    if isinstance(value, BaseException):
        return type(value), value.args
    if isinstance(value, list):
        return [_comparable(item) for item in value]
    return value


@pytest.mark.parametrize("cls", _error_classes())
def test_every_error_survives_a_pickle_round_trip(cls):
    """The class, the message and the attributes come back; ``__init__`` is
    not re-run on the message (HTEX returns a task's exception pickled)."""
    import pickle

    error = cls(*ERROR_ARGS.get(cls.__name__, ("a message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert ({name: _comparable(value) for name, value in vars(copy).items()}
            == {name: _comparable(value) for name, value in vars(error).items()})
    assert deserialize(serialize(error)).args == error.args
