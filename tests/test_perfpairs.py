"""The summary of ``tools/perfpairs.py`` on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "perfpairs.py"
spec = importlib.util.spec_from_file_location("perfpairs", PATH)
perfpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perfpairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "units_per_s", "better": "higher", "bound": 0.25}]


def runs(walls, units):
    return [{"metrics": {"wall_s": w, "units_per_s": u}} for w, u in zip(walls, units)]


def test_the_summary_gives_quartiles_the_median_change_and_the_wins():
    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0])
    change = runs([0.5, 2.5, 2.0, 4.0, 4.5], [11.0, 9.0, 10.0, 12.0, 13.0])
    summary = perfpairs.summarise(parent, change, END_TO_END)
    wall, units = summary["wall_s"], summary["units_per_s"]
    assert wall["parent"] == (2.0, 3.0, 4.0)
    assert wall["change"] == (2.0, 2.5, 4.0)
    assert wall["change_pct"] == pytest.approx(-100 / 6)
    assert wall["won"] == 3  # pairs 0, 2 and 4; the tie in pair 3 is no win
    assert (wall["pairs"], wall["bound_pct"]) == (5, 25.0)
    assert units["change"] == (10.0, 11.0, 12.0)
    assert units["change_pct"] == pytest.approx(10.0)
    assert units["won"] == 3  # higher is better: pairs 0, 3 and 4


def test_one_pair_is_its_own_quartiles_and_the_report_has_a_line_per_metric():
    summary = perfpairs.summarise(runs([2.0], [5.0]), runs([1.0], [4.0]), END_TO_END)
    assert summary["wall_s"]["parent"] == (2.0, 2.0, 2.0)
    assert (summary["wall_s"]["won"], summary["units_per_s"]["won"]) == (1, 0)
    lines = perfpairs.report_lines("w seed 1", summary)
    assert lines[0] == "w seed 1" and len(lines) == 2 + len(END_TO_END)
    assert lines[2].split() == ["wall_s", "2", "[2,", "2]", "1", "[1,", "1]", "-50.0%", "1/1",
                                "25%", "gain"]
    assert lines[3].split()[-5:] == ["-20.0%", "0/1", "25%", "within", "bound"]  # 5 -> 4 units/s


@pytest.mark.parametrize("parent, change, lower, want", [
    # 9 of 10 pairs won, a tie in the tenth, and the median 2.0 lower against an IQR of 0.5
    ([10.0] * 5 + [10.5] * 5, [8.0] * 9 + [10.5], True, "gain"),
    # the same runs with higher better: the change's median is 20% worse against a 25% bound
    ([10.0] * 5 + [10.5] * 5, [8.0] * 9 + [10.5], False, "within bound"),
    ([10.0] * 10, [7.0] * 10, False, "worse"),  # 30% fewer units against a 25% bound
    ([10.0] * 10, [13.0] * 10, True, "worse"),  # 30% longer
    # 8 of 10 won falls short of a gain; the medians are 10% apart and the spread is small
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, True, "within bound"),
    # 10 of 10 won, but the medians are no further apart than the parent's IQR
    ([8.0, 9.0, 10.0, 11.0, 12.0], [7.9, 8.9, 9.9, 10.9, 11.9], True, "within bound"),
    # the change's IQR is 40% of its median: unresolved unless every change run wins
    ([10.0] * 4, [6.0, 8.0, 12.0, 14.0], True, "unresolved"),
    ([20.0] * 4, [6.0, 8.0, 12.0, 14.0], True, "gain"),
    # every change run wins, but the medians 20 and 10 are no further apart than the
    # parent's IQR of 11.375
    ([14.5, 15.0, 25.0, 30.0], [6.0, 8.0, 12.0, 14.0], True, "within bound"),
])
def test_each_metric_gets_one_verdict(parent, change, lower, want):
    assert perfpairs.verdict(parent, change, lower, 0.25) == want


def test_a_pair_with_a_failed_run_is_left_out_of_the_summary():
    change = runs([1.0, 9.0, 3.0], [1.0, 1.0, 1.0])
    change[1] = {"returncode": 1, "stderr": "error: no result"}
    summary = perfpairs.summarise(runs([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]), change, END_TO_END)
    assert (summary["wall_s"]["pairs"], summary["wall_s"]["won"]) == (2, 1)
    assert summary["wall_s"]["change"] == (1.5, 2.0, 2.5)
    assert perfpairs.summarise(runs([1.0], [1.0]), change[1:2], END_TO_END) == {}


FAKE_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {fail_seed}:
    print("error: w produced no result", file=sys.stderr)
    sys.exit(1)
print(json.dumps({{"meta": {{"digest": "d{{}}".format(seed)}}}}))
print(json.dumps({{"metrics": {{"wall_s": {{"value": {wall}}}, "units_per_s": {{"value": 1.0}}}},
                  "correct": True, "failed": 0}}))
"""


def fake_checkout(root, wall, fail_seed):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(wall=wall, fail_seed=fail_seed))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}))
    return root


def test_a_run_that_exits_non_zero_is_recorded_and_the_sweep_goes_on(tmp_path, capsys,
                                                                    monkeypatch):
    fake_checkout(tmp_path / "parent", wall=2.0, fail_seed=-1)
    fake_checkout(tmp_path / "change", wall=1.0, fail_seed=2)
    out = tmp_path / "runs.json"
    monkeypatch.chdir(tmp_path)  # checkouts given as relative paths
    status = perfpairs.main(["parent", "change", "--pairs", "2", "--seeds", "2", "1",
                             "--json", str(out)])
    assert status == 1
    record = json.loads(out.read_text())
    failed = record["w seed 2"]
    assert [run["returncode"] for run in failed["change"]] == [1, 1]
    assert "produced no result" in failed["change"][0]["stderr"]
    assert [run["metrics"]["wall_s"] for run in failed["parent"]] == [2.0, 2.0]
    assert failed["summary"] == {}
    kept = record["w seed 1"]["summary"]["wall_s"]
    assert (kept["pairs"], kept["won"], kept["change_pct"]) == (2, 2, -50.0)
    printed = capsys.readouterr().out
    assert "w seed 2: 2 pairs, 2 runs failed" in printed
    assert "w seed 1: 2 pairs, 0 runs failed, all correct" in printed


def test_each_side_has_its_digests_and_the_title_says_whether_they_agree(tmp_path, capsys):
    assert perfpairs.digest_sets(
        [{"digest": "b"}, {"returncode": 1, "stderr": ""}, {"digest": "a"}, {"digest": "b"}],
        [{"digest": "c"}, {"digest": None}],
    ) == {"parent": ["a", "b"], "change": ["None", "c"]}
    fake_checkout(tmp_path / "parent", wall=2.0, fail_seed=-1)
    change = fake_checkout(tmp_path / "change", wall=1.0, fail_seed=-1) / "perfbench" / "run.py"
    for seeds, digest in ((["1"], '"d{}"'), (["1", "2"], '"e1" if seed == 2 else "d{}"')):
        change.write_text(FAKE_RUN.format(wall=1.0, fail_seed=-1).replace('"d{}"', digest))
        out = tmp_path / "runs.json"
        assert perfpairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "2",
                               "--seeds", *seeds, "--json", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["w seed 1"]["digests"] == {"parent": ["d1"], "change": ["d1"]}
    assert record["w seed 2"]["digests"] == {"parent": ["d2"], "change": ["e1"]}
    printed = capsys.readouterr().out.splitlines()
    assert "all correct, digests equal: parent ['d1'], change ['d1']" in printed[0]
    assert printed[-4].endswith("all correct, DIGESTS DIFFER: parent ['d2'], change ['e1']")
