"""``tools/bench_pairs.py``: the pair counts a claimed gain is judged by.

``_summary`` counts, per end-to-end metric, the pairs in which the change
reads strictly better than its parent; the nine-in-ten gain rule reads
that count.  ``_parse`` refuses plans too small to show nine in ten.
``_run`` keeps each run's detail line, whose per-operation walls show a
cost that moves between set-up and the first operation.  ``_spawn``
starts each run so that its peak RSS is its own.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def wins(better, parent, change):
    summary = bench_pairs._summary(runs("m", parent), runs("m", change), {"m": better})
    return summary["m"]["change_wins"]


def test_lower_is_better_counts_smaller_change_values():
    assert wins("lower", [1.0, 1.0, 1.0, 1.0], [0.9, 1.1, 0.5, 2.0]) == 2


def test_higher_is_better_counts_larger_change_values():
    assert wins("higher", [0.9, 0.9, 0.9, 0.9], [1.0, 0.8, 0.95, 0.5]) == 2


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(better):
    values = [0.25, 1.0, 3.0]
    assert wins(better, values, list(values)) == 0
    # a tie in one pair leaves the others' verdicts as they are
    assert wins(better, [1.0, 1.0], [1.0, 0.5 if better == "lower" else 2.0]) == 1


def test_pairs_are_matched_in_order():
    # the change is better in the median yet wins no pair
    assert wins("lower", [1.0, 2.0, 3.0], [1.5, 2.5, 3.5]) == 0
    assert wins("lower", [3.0, 2.0, 1.0], [1.5, 2.5, 3.5]) == 1


def test_summary_statistics():
    summary = bench_pairs._summary(runs("m", [4.0, 1.0, 3.0, 2.0, 5.0]),
                                   runs("m", [1.0] * 5), {"m": "lower"})
    assert summary["m"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                      "min": 1.0, "max": 5.0}
    assert summary["m"]["change_wins"] == 4


def test_parse_builds_the_plan():
    args = bench_pairs._parse(["--label", "x", "--pairs", "fit-q4=10",
                               "--pairs", "plateau-haar=12", "--seed", "3"])
    assert args.plan == {"fit-q4": 10, "plateau-haar": 12}


@pytest.mark.parametrize("item", ["fit-q4=9", "fit-q4=0", "fit-q4=ten", "fit-q4"])
def test_parse_refuses_fewer_than_ten_pairs(item, capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs._parse(["--label", "x", "--pairs", item, "--seed", "3"])
    assert excinfo.value.code == 2
    assert "N >= 10" in capsys.readouterr().err


def test_run_keeps_the_detail_line(monkeypatch, tmp_path):
    machine = {"nproc": 2}
    detail = {"workload": "fit-q4", "ops": 2, "setup_samples_s": [0.2, 0.21],
              "op_walls_s": [0.08, 0.07]}
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"op_s": {"value": 0.075, "unit": "s"}}}
    stdout = "\n".join(["warming up", json.dumps({"machine": machine, "detail": detail}),
                        json.dumps(result)]) + "\n"
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs["cwd"]))
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run, record = bench_pairs._run(tmp_path, "fit-q4", 3, 25.0)
    assert run == dict(result, detail=detail)
    assert record == machine
    assert [(command[1:], cwd) for command, cwd in calls] == [(
        ["perfbench/run.py", "--workload", "fit-q4", "--seed", "3", "--seconds", "25.0",
         "--trace", "0"], tmp_path)]


def test_spawned_run_reads_its_own_peak_rss(tmp_path):
    """Linux carries a launcher's peak RSS into a child started straight
    from it; a child of ``_spawn`` reads its own, while this process holds
    128 MiB."""
    held = np.ones(128 * 2**20 // 8)
    proc = bench_pairs._spawn(
        ["-c", "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    child_kib = int(proc.stdout)
    assert held.sum() == held.size  # still resident while the child ran
    assert child_kib * 1024 < held.nbytes / 2
