"""The pair summary that tools/bench_set.py prints for two checkouts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_set.py"
_SPEC = importlib.util.spec_from_file_location("bench_set", _PATH)
bench_set = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_set)


def test_pair_summary_medians_ratio_iqr_and_wins():
    # first sorted: 10 11 12 13 14, so median 12 and quartiles 11 and 13;
    # second sorted: 7 8 9 11 13.5; the tie (11, 11) counts for neither side
    pairs = [(10.0, 8.0), (12.0, 9.0), (11.0, 11.0), (14.0, 7.0), (13.0, 13.5)]
    assert bench_set.pair_summary(pairs) == {
        "first": 12.0, "second": 9.0, "ratio": 0.75, "first_iqr": 2.0, "wins": 3, "pairs": 5}


def test_pair_summary_of_one_pair():
    assert bench_set.pair_summary([(2.0, 3.0)]) == {
        "first": 2.0, "second": 3.0, "ratio": 1.5, "first_iqr": 0.0, "wins": 0, "pairs": 1}


def test_pair_summary_median_matches_the_written_files():
    # the printed medians are those that workload_entry writes into BENCH_*.json
    pairs = [(float(i), float(i) / 2) for i in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)]
    s = bench_set.pair_summary(pairs)
    entry = bench_set.workload_entry(
        [{"seed": i, "correct": True, "failed": 0, "attempted": 1,
          "metrics": {"pass_s": {"value": a, "unit": "s"}}} for i, (a, _) in enumerate(pairs)],
        {"seed": 1, "correct": True, "metrics": {}})
    assert s["first"] == entry["metrics"]["pass_s"]["median"]
    assert s["first_iqr"] == entry["metrics"]["pass_s"]["iqr"]
    assert s["wins"] == 10 and s["ratio"] == 0.5
