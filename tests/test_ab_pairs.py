"""tools/ab_pairs.py: the summary of fixed pairs, with no benchmark run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_summary_of_fixed_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]
    pairs = [({"t": a, "r": a}, {"t": b, "r": b})
             for a, b in zip(parent, change)]
    rows = ab_pairs.summarize(pairs, {"t": "lower", "r": "higher"})
    # medians 3 and 3, inclusive quartiles 2 and 4; a tie (2.0) is no win
    assert rows == [("t", 3.0, 3.0, 2.0, 3), ("r", 3.0, 3.0, 2.0, 1)]
    assert set(ab_pairs.directions(ab_pairs.benchmark())) == {
        "wall_s", "setup_s", "orbit_steps_per_s", "peak_rss_mb",
        "minor_faults"}
