import sharpv


def test_all_entries_resolve_without_duplicates():
    missing = [name for name in sharpv.__all__ if not hasattr(sharpv, name)]
    assert missing == []
    assert len(set(sharpv.__all__)) == len(sharpv.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from sharpv import *", namespace)
    assert set(sharpv.__all__) <= set(namespace)
