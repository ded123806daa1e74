import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kv_memory.py"
spec = importlib.util.spec_from_file_location("kv_memory", TOOL)
kv_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kv_memory)


def test_smoke_workload_reports_each_phase_and_layer(capsys):
    from sharpv import cache, pipeline

    patched = cache._grown, pipeline._greedy
    assert kv_memory.main(["smoke"]) == 0
    assert (cache._grown, pipeline._greedy) == patched  # restored
    out = capsys.readouterr().out
    assert out.startswith("smoke, seed 0\n")
    for phase in kv_memory.PHASES:
        assert f"  {phase} " in out

    result = kv_memory.measure("smoke", 0)
    assert set(result["peaks"]) == set(kv_memory.PHASES)
    assert all(peak > 0 for peak in result["peaks"].values())
    # smoke's 4 steps fit layer 0's spare rows; the evicted layers 1-7
    # (4 system and 8 instruction rows each) are copied once, to 15 rows
    assert result["copies"] == 7
    assert result["bytes_copied"] == 7 * 12 * (2 * 64 * 8 + 8 + 1)
    entries = [e for e, _ in result["layers"]]
    assert entries[1:] == [15] * 7 and entries[0] > 15
    assert all(entries == capacity for entries, capacity in result["layers"])
