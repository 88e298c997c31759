"""``tools/bench_ab.py`` runs each tree's own ``perfbench/run.py`` in pairs,
alternating which label goes first, and summarizes the end-to-end metrics.
These tests stub the run: a stub function for the pairing and the
aggregation, and stub trees whose ``perfbench/run.py`` prints a result or
fails for the parsing of one run."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TREES = {"parent": Path("parent"), "change": Path("change")}


def _result(op_p50_s, ops_per_s=10.0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
            "metrics": {"op_p50_s": op_p50_s, "ops_per_s": ops_per_s, "setup_s": 0.05, "peak_rss_mb": 20.0}}


def test_labels_alternate_and_share_each_pairs_seed(ab):
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return _result(0.08)

    result = ab.compare(TREES, "certify-cold", 4, 2.5, 7, run=run)
    assert [(tree, seed) for tree, _, seed, _ in calls] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
        ("parent", 9), ("change", 9), ("change", 10), ("parent", 10),
    ]
    assert {(workload, seconds) for _, workload, _, seconds in calls} == {("certify-cold", 2.5)}
    assert [pair["first"] for pair in result["pairs"]] == ["parent", "change", "parent", "change"]
    assert [pair["seed"] for pair in result["pairs"]] == [7, 8, 9, 10]
    run_keys = ("workload", "pairs", "seconds", "seed")
    assert [result["run"][key] for key in run_keys] == ["certify-cold", 4, 2.5, 7]
    assert result["run"]["wall_s"] >= 0
    assert result["correct"] is True


def test_metrics_are_aggregated_by_their_direction(ab):
    # op_p50_s is better lower, ops_per_s higher: the change wins op_p50_s
    # in pairs 0, 1 and 3 and ops_per_s in pairs 0 and 2
    parent = [(0.10, 10.0), (0.12, 9.0), (0.08, 11.0), (0.11, 10.5)]
    change = [(0.09, 11.0), (0.10, 8.0), (0.09, 12.0), (0.10, 10.5)]
    results = {(label, 1 + i): _result(*values) for label, series in (("parent", parent), ("change", change))
               for i, values in enumerate(series)}
    summary = ab.compare(TREES, "delta-b80", 4, 1.0, 1,
                         run=lambda tree, workload, seed, seconds: results[tree.name, seed])["metrics"]
    assert set(summary) == {"op_p50_s", "ops_per_s", "setup_s", "peak_rss_mb"}
    op = summary["op_p50_s"]
    assert op["better"] == "lower"
    assert op["parent_median"] == pytest.approx(0.105) and op["change_median"] == pytest.approx(0.095)
    assert op["ratio"] == pytest.approx(0.095 / 0.105)
    assert (op["parent_q1"], op["parent_q3"]) == pytest.approx((0.085, 0.1175))
    assert (op["change_wins"], op["compared"]) == (3, 4)
    rate = summary["ops_per_s"]
    assert rate["better"] == "higher"
    assert (rate["change_wins"], rate["compared"]) == (2, 4)
    # an equal value is no win either way
    assert (summary["setup_s"]["change_wins"], summary["setup_s"]["ratio"]) == (0, 1.0)


def test_a_failed_run_is_recorded_and_left_out_of_the_comparison(ab):
    def run(tree, workload, seed, seconds):
        if (tree.name, seed) == ("change", 2):
            return {"error": "exit 1: boom"}
        return _result(0.1 if tree.name == "parent" else 0.09, correct=(tree.name, seed) != ("parent", 3))

    result = ab.compare(TREES, "verify-cold", 3, 1.0, 1, run=run)
    assert result["pairs"][1]["change"] == {"error": "exit 1: boom"}
    assert result["correct"] is False
    op = result["metrics"]["op_p50_s"]
    assert (op["change_wins"], op["compared"]) == (2, 2)


def _stub_tree(root: Path, body: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(body))
    return root


def test_a_run_reads_the_last_line_of_its_trees_benchmark(ab, tmp_path):
    tree = _stub_tree(tmp_path, """
        import json, sys
        print("certify-cold seed", sys.argv[sys.argv.index("--seed") + 1])
        print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "op_p50_s": {"value": float(sys.argv[sys.argv.index("--seconds") + 1]), "unit": "s"}}}))
    """)
    assert ab.run_tree(tree, "certify-cold", 5, 0.25) == {
        "correct": True, "attempted": 3, "failed": 0, "metrics": {"op_p50_s": 0.25}}


@pytest.mark.parametrize("body, error", [
    ("import sys; print('no sources', file=sys.stderr); sys.exit(2)", "exit 2: no sources"),
    ("print('certify-cold: 3 operations')", "malformed output: JSONDecodeError("),
    ("", "malformed output: IndexError("),
])
def test_a_failed_run_gives_its_reason(ab, tmp_path, body, error):
    result = ab.run_tree(_stub_tree(tmp_path, body), "certify-cold", 1, 0.1)
    assert list(result) == ["error"] and result["error"].startswith(error)


def test_write_keeps_the_rows_and_other_workloads(ab, tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"script": "tools/bench_layers.py", "rows": [{"layer": "x"}]}))
    ab.write(out, "certify-cold", {"correct": True})
    ab.write(out, "delta-b80", {"correct": False})
    ab.write(out, "certify-cold", {"correct": False})
    assert json.loads(out.read_text()) == {
        "script": "tools/bench_layers.py", "rows": [{"layer": "x"}],
        "ab": {"certify-cold": {"correct": False}, "delta-b80": {"correct": False}},
    }
