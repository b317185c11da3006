import inspect
import pickle
import string

import pytest

from nhvi import errors
from nhvi.errors import NhviError, ParameterError, SchemaError

# NhviError and every subclass errors.py defines
ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, NhviError)
]


def _instance(cls):
    """An instance built the way its raise sites build it."""
    if cls is SchemaError:
        return SchemaError("must be a number", "solver.tol")
    if cls is ParameterError:
        return ParameterError("h", "must be positive")
    if cls.template:
        fields = [name for _, name, _, _ in string.Formatter().parse(cls.template) if name]
        return cls(**{name: 0.25 for name in fields})
    return cls("no finite value", k=3, t=0.5)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # a sweep worker's error crosses the process pool this way
    exc = _instance(cls)
    exc.prev = ("node", 2)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert copy.context == exc.context
    assert all(getattr(copy, key) == value for key, value in exc.context.items())
    assert (copy.state, copy.prev) == (None, ("node", 2))
