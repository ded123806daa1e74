import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ttft_ms_mean", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "visual_tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.25},
]


def run(ttft, tokens, init_s, import_s=0.1):
    return {"metrics": {"ttft_ms_mean": ttft, "visual_tokens_per_s": tokens},
            "setup_import_s": import_s,
            "setup_repeats_s": [{"init_decoder": init_s, "total": 2 * init_s}] * 2}


def test_summary_counts_wins_in_each_metrics_direction():
    # parent ttft 10, 12, 14, 16, 18; the change is 1 ms faster in four
    # pairs and tied in one, and moves fewer tokens in all five
    pairs = [{"seed": i + 1,
              "parent": run(10 + 2 * i, 100.0, 0.01, import_s=0.1 + 0.01 * i),
              "change": run(10 + 2 * i - (i > 0), 90.0, 0.02, import_s=0.2 - 0.01 * i)}
             for i in range(5)]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["pairs"] == 5

    ttft = summary["metrics"]["ttft_ms_mean"]
    assert ttft["parent"] == {"median": 14, "q1": 11, "q3": 17}
    assert ttft["change"]["median"] == 13
    assert (ttft["pairs_won"], ttft["ties"]) == (4, 1)
    assert ttft["worse_by"] == pytest.approx(-1 / 14)
    assert not ttft["beats_parent_iqr"]  # 1 ms against a 6 ms spread
    assert ttft["pair_ratios"][0] == 1.0

    tokens = summary["metrics"]["visual_tokens_per_s"]
    assert (tokens["pairs_won"], tokens["ties"]) == (0, 0)
    assert tokens["worse_by"] == pytest.approx(0.1)  # positive is worse
    assert ttft["within_bound"] and tokens["within_bound"]  # bounds 0.25
    assert not tokens["beats_parent_iqr"]

    # the cold import is reported beside the steps, not folded into them
    assert summary["setup_import_medians_s"] == {
        "parent": pytest.approx(0.12), "change": pytest.approx(0.18)}
    assert summary["setup_step_medians_s"] == {
        "parent": {"init_decoder": 0.01, "total": 0.02},
        "change": {"init_decoder": 0.02, "total": 0.04},
    }


def test_a_clear_gain_beats_the_parents_spread():
    pairs = [{"parent": run(100 + i, 1.0, 0.01), "change": run(50 + i, 2.0, 0.01)}
             for i in range(4)]
    metrics = bench_pairs.summarize(pairs, END_TO_END)["metrics"]
    assert metrics["ttft_ms_mean"]["pairs_won"] == 4
    assert metrics["ttft_ms_mean"]["beats_parent_iqr"]
    assert metrics["visual_tokens_per_s"]["beats_parent_iqr"]
    assert metrics["visual_tokens_per_s"]["worse_by"] == pytest.approx(-1.0)


def test_a_loss_beyond_the_bound_is_flagged():
    pairs = [{"parent": run(100, 1.0, 0.01), "change": run(130, 1.0, 0.01)}] * 2
    assert not bench_pairs.summarize(pairs, END_TO_END)["metrics"]["ttft_ms_mean"]["within_bound"]
