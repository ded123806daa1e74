import sharpv
import sharpv.pipeline


def test_all_entries_resolve_without_duplicates():
    missing = [name for name in sharpv.__all__ if not hasattr(sharpv, name)]
    assert missing == []
    assert len(set(sharpv.__all__)) == len(sharpv.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from sharpv import *", namespace)
    assert set(sharpv.__all__) <= set(namespace)


def test_traced_pipeline_names_are_callables():
    # perfbench patches these by name in sharpv.pipeline to time pruning
    # and stage 2; a renamed one would silently record zero calls
    names = ("prune_video", "degradation_profile", "discard_decision",
             "apply_discard", "reencode_positions")
    for name in names:
        assert callable(getattr(sharpv.pipeline, name, None)), name
