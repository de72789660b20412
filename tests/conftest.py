import pytest

from uod import chainkit


@pytest.fixture(autouse=True)
def fresh_scalar_kt_memo():
    # scalar_kt memoises its homology tables per process; each test starts from
    # an empty memo, so a test that spies on a build sees it happen
    chainkit._SCALAR_KT.clear()
    yield
