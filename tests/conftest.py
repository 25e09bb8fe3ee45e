import sys

import pytest

ORACLES = ("cyclotomic_oracle", "group_basis_oracle", "hopf_group_basis_oracle")


def _clear_caches(oracles):
    for name, module in list(sys.modules.items()):
        if name.startswith("kacpal.") or name in oracles:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches(request):
    """Every lru_cache of the package cleared before and after each test, and
    those of the test oracles too around a test that takes monkeypatch.  The
    package remembers each lemma it passed and each table it built, and the
    oracles the group-basis images built from the package's formulas: a test
    that breaks a definition must neither read a result remembered from the
    true one nor leave its own."""
    oracles = ORACLES if "monkeypatch" in request.fixturenames else ()
    _clear_caches(oracles)
    yield
    _clear_caches(oracles)
