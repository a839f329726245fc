"""``tools/output_identity.py``: the byte-identity check of primary outputs.

A tree run against itself matches byte for byte; a JSON document that
differs is reported by the keys on one side only and the largest numeric
difference over the keys both sides share, a CSV file by the header
columns on one side only and the rows whose shared columns differ.  No
golden hashes are kept: they would tie the suite to one BLAS build.
"""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # the tool imports its sibling bench_pairs

import output_identity  # noqa: E402

SRC = TOOLS.parent / "src"


def test_tree_against_itself_is_identical(tmp_path):
    matrix = [entry for entry in output_identity.MATRIX
              if entry[0] in ("train-quantum-recover", "spectrum-weights")]
    report = output_identity.compare_trees(SRC, SRC, tmp_path, matrix)
    assert report == ["IDENTICAL: all 4 primary outputs of 2 commands are byte-identical"]
    # run.log is a sidecar, written on each side and left out of the count
    assert (tmp_path / "parent" / "out" / "train-quantum-recover" / "run.log").exists()


def test_json_difference_names_keys_and_largest_number():
    parent = {"config": {"seed": 0, "old": True}, "seed": 0, "trace": [1.0, 2.0, 3.0],
              "name": "a"}
    change = {"config": {"seed": 0}, "trace": [1.0, 2.5, 3.25], "name": "b", "new": None}
    diff = output_identity.json_difference(json.dumps(parent), json.dumps(change))
    assert diff == {"only_parent": ["config.old", "seed"], "only_change": ["new"],
                    "largest_numeric": 0.5, "other": ["name"]}


def test_differing_outputs_are_reported(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, doc, rows in ((parent, {"x": 1.0, "gone": 1}, "a\n1\n2\n"),
                            (change, {"x": 1.5}, "a\n1\n3\n4\n")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "result.json").write_text(json.dumps(doc))
        (root / "run" / "trace.csv").write_text(rows)
        (root / "run" / "run.log").write_text(str(root))
    (parent / "run" / "extra.csv").write_text("")
    # a dropped column, every shared cell unchanged
    (parent / "run" / "dropped.csv").write_text("step,loss,held_out\n0,0.5,\n1,0.25,\n")
    (change / "run" / "dropped.csv").write_text("step,loss\n0,0.5\n1,0.25\n")
    count, lines = output_identity.compare_outputs(parent, change)
    assert count == 4
    assert lines == [
        "run/dropped.csv: differs; columns only in parent: held_out; only in change: none; "
        "shared columns agree row for row",
        "run/extra.csv: only in parent",
        "run/result.json: differs; only in parent: gone; only in change: none; "
        "largest numeric difference 0.5; other values differing: none",
        "run/trace.csv: differs; columns only in parent: none; only in change: none; "
        "shared columns differ in 2 rows",
    ]
