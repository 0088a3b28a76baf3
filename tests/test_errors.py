"""Package errors survive the process boundary a worker pool puts them
through."""

import pickle

import pytest

from jumpmc import errors


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


@pytest.mark.parametrize("cls", _subclasses(errors.JumpMCError), ids=lambda c: c.__name__)
@pytest.mark.parametrize("realization", [None, 1062])
def test_every_error_pickles_with_its_attributes(cls, realization):
    extra = {"step": 3} if issubclass(cls, errors.PathDivergenceError) else {}
    error = cls("drift blew up (realization 1062)", realization=realization, **extra)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert back.args == error.args
    assert str(back) == str(error)
    assert back.realization == realization
    assert vars(back) == vars(error)
    if extra:
        assert back.step == 3

