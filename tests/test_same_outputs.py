"""tools/same_outputs.py: it finds no difference between a tree and
itself, and exactly the one file a planted change moves."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

ARGVS = [
    ["classify", "--roof", "@example1"],
    ["l2", "--roof", "@example2", "--N", "1,100"],
]


def test_a_tree_matches_itself():
    assert same_outputs.compare(ROOT, ROOT, ARGVS) == [
        "2 argvs, 4 files, 0 differ"
    ]


def test_a_planted_change_moves_one_file(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    roof = tmp_path / "src" / "mixlab" / "data" / "example2.json"
    doc = json.loads(roof.read_text())
    for c in doc["coeffs"]:
        if c["k"] != 0:
            c["re"], c["im"] = 2 * c["re"], 2 * c["im"]
    roof.write_text(json.dumps(doc))
    lines = same_outputs.compare(ROOT, tmp_path, ARGVS)
    assert lines[-1] == "2 argvs, 4 files, 1 differ"
    (diff,) = lines[:-1]
    assert diff.endswith("l2 --roof @example2 --N 1,100: l2.csv: differs")
