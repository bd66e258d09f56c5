"""The package's exception types survive pickling, as a worker's error
crosses a pipe to the process that reports it."""

import inspect
import pickle

import pytest

from dimer_nm import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.DimerNMError)]


def test_every_class_is_collected():
    assert {errors.DimerNMError, errors.SingularSystemError} < set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    kwargs = {"cond": 2.5e12} if cls is errors.SingularSystemError else {}
    exc = cls("a failure", **kwargs)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)

