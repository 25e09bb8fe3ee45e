import pytest

from kacpal.character_basis import check_model


@pytest.fixture(autouse=True)
def _fresh_model_checks():
    # check_model remembers each (n, m) it passed; a test that breaks the
    # model must not read a pass remembered by an earlier test, nor leave one
    check_model.cache_clear()
    yield
    check_model.cache_clear()
