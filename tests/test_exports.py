import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import sharpv
import sharpv.pipeline
from sharpv.cache import KVCacheLayer
from sharpv.decoder import LayerWeights, PrefillResult
from sharpv.pipeline import PromptEmbeddings
from sharpv.pruner import PrunedVideo, VideoTokens


def test_all_entries_resolve_without_duplicates():
    missing = [name for name in sharpv.__all__ if not hasattr(sharpv, name)]
    assert missing == []
    assert len(set(sharpv.__all__)) == len(sharpv.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from sharpv import *", namespace)
    assert set(sharpv.__all__) <= set(namespace)


def test_import_leaves_the_scaling_measurements_unloaded():
    # only the acceptance gate's scaling check takes medians; the package
    # import must not pay for statistics
    src = str(Path(sharpv.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import sharpv; "
            "print(sorted({'statistics'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_readme_layout_names_every_module():
    root = Path(__file__).resolve().parents[1]
    layout = (root / "README.md").read_text().split("## Layout")[1].split("src/sharpv/\n")[1]
    listed = re.findall(r"^  (\w+\.py) ", layout.split("\n```")[0], flags=re.M)
    modules = sorted(p.name for p in (root / "src" / "sharpv").glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules


def test_traced_pipeline_names_are_callables():
    # perfbench patches these by name in sharpv.pipeline to time pruning
    # and stage 2; a renamed one would silently record zero calls
    names = ("prune_video", "degradation_profile", "discard_decision",
             "apply_discard", "reencode_positions")
    for name in names:
        assert callable(getattr(sharpv.pipeline, name, None)), name


def test_array_holders_compare_and_hash_by_identity():
    # A generated __eq__ would compare the arrays and raise ValueError,
    # and a generated __hash__ would hash them and raise TypeError.
    z = np.zeros((2, 3))
    makers = [
        lambda: VideoTokens(1, 2, 3, z),
        lambda: PrunedVideo(z, np.arange(2), 1.0, np.ones(1), np.full(1, 2)),
        lambda: KVCacheLayer(z[:, :, None], z[:, :, None], np.arange(2), np.zeros(2, np.uint8)),
        lambda: PromptEmbeddings(z, z),
        lambda: PrefillResult([], np.zeros(4), np.zeros(3)),
        lambda: LayerWeights(np.zeros((3, 9)), np.zeros((3, 3)), z.T, z),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
