"""tools/ab_pairs.py: the summary of fixed pairs and the figures of one
stand-in run, with no benchmark run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

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


def test_faults_are_per_attempted_operation(tmp_path, monkeypatch):
    # a stand-in benchmark that attempted 4 operations, while the children
    # took 400 minor faults in all
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'attempted': 4, 'failed': 0,"
        " 'metrics': {'wall_s': {'value': 0.5}}}))\n")
    readings = iter([100, 500])
    monkeypatch.setattr(
        ab_pairs.resource, "getrusage",
        lambda who: SimpleNamespace(ru_minflt=next(readings)))
    figures, attempted, failed = ab_pairs.run_once(tmp_path, "flow", 1.0)
    assert figures == {"wall_s": 0.5, "minor_faults": 100.0}
    assert (attempted, failed) == (4, 0)
