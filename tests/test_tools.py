import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher", "bound": 0.25}]


def result(attempted, failed, **values):  # one bench/run.py result object
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def test_bench_pairs_parses_seed_ranges_and_lists():
    bench_pairs = load_tool("bench_pairs")
    assert bench_pairs.parse_seeds("501-504") == [501, 502, 503, 504]
    assert bench_pairs.parse_seeds("7,3,9") == [7, 3, 9]


def test_bench_pairs_table_counts_wins_by_direction():
    # wins are counted pair by pair in each metric's better direction, ties
    # for neither side; each side's quartiles are its own
    bench_pairs = load_tool("bench_pairs")
    base = [result(20, 0, run_s=s, rate=r) for s, r in ((3.0, 10.0), (2.0, 20.0), (4.0, 30.0))]
    change = [result(22, 1, run_s=s, rate=r) for s, r in ((2.0, 10.0), (2.0, 25.0), (3.0, 40.0))]
    lines = bench_pairs.table(METRICS, base, change)
    assert lines[1].split() == ["run_s", "3", "2", "-33.3%", "2.5", "3.5", "2", "2.5", "2/3"]
    assert lines[2].split() == ["rate", "20", "25", "+25.0%", "15", "25", "17.5", "32.5", "2/3"]
    assert lines[3] == "base: attempted 60, failed 0, correct 3/3 runs"
    assert lines[4] == "change: attempted 66, failed 3, correct 0/3 runs"


def test_bench_pairs_states_the_claim_rule_per_metric():
    # a claim needs wins on at least nine tenths of the pairs, ties for
    # neither side, and a median gain wider than the base's quartile spread
    bench_pairs = load_tool("bench_pairs")
    base = [result(20, 0, run_s=s, rate=r) for s, r in ((3.0, 10.0), (2.0, 20.0), (4.0, 30.0))]
    change = [result(22, 1, run_s=s, rate=r) for s, r in ((2.0, 10.0), (2.0, 25.0), (3.0, 40.0))]
    assert bench_pairs.table(METRICS, base, change)[5:7] == [
        "claim run_s: not met (wins 2/3, need 3; median gain 1 vs base quartile spread 1)",
        "claim rate: not met (wins 2/3, need 3; median gain 5 vs base quartile spread 10)",
    ]
    faster = [result(20, 0, run_s=s - 1.5, rate=r + 20.0)
              for s, r in ((3.0, 10.0), (2.0, 20.0), (4.0, 30.0))]
    assert bench_pairs.table(METRICS, base, faster)[5:7] == [
        "claim run_s: met (wins 3/3, need 3; median gain 1.5 vs base quartile spread 1)",
        "claim rate: met (wins 3/3, need 3; median gain 20 vs base quartile spread 10)",
    ]
    # 9 wins of 10 are enough; 8 are not, however wide the gain
    base10 = [result(1, 0, run_s=10.0, rate=1.0) for _ in range(10)]
    nine = [result(1, 0, run_s=5.0 if i else 10.0, rate=1.0) for i in range(10)]
    eight = [result(1, 0, run_s=5.0 if i > 1 else 10.0, rate=1.0) for i in range(10)]
    assert bench_pairs.table(METRICS, base10, nine)[5].startswith("claim run_s: met (wins 9/10")
    assert bench_pairs.table(METRICS, base10, eight)[5].startswith("claim run_s: not met")


SPREAD = [6.0, 8.0, 10.0, 12.0, 14.0] * 2  # quartiles 8 and 12: 40% of the median


@pytest.mark.parametrize("better, base, change, verdict", [
    ("lower", [10.0] * 10, [11.0] * 10, "ok"),
    ("lower", [10.0] * 10, [13.0] * 10, "worse"),
    ("higher", [10.0] * 10, [7.0] * 10, "worse"),
    ("lower", SPREAD, SPREAD, "unresolved"),
    ("lower", SPREAD, [5.0] * 10, "ok"),  # every change run beats every base run
    ("higher", SPREAD, [15.0] * 10, "ok"),
], ids=["within_bound", "slower", "lower_rate", "wide_base_spread", "all_faster",
        "all_higher"])
def test_bench_pairs_states_the_bound_verdict_per_metric(better, base, change, verdict):
    # worse: the median moved the wrong way by more than the bound; unresolved:
    # the base's quartile spread is wider than the bound, unless the change
    # beats every base run
    bench_pairs = load_tool("bench_pairs")
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    lines = bench_pairs.table(metrics, [result(1, 0, m=v) for v in base],
                              [result(1, 0, m=v) for v in change])
    assert lines[-2].startswith("claim m: ") and lines[-1].startswith(f"bound m: {verdict} (")
    if verdict == "unresolved":
        assert lines[-1] == ("bound m: unresolved (median move +0.0%, base quartile spread "
                             "40.0% of its median, bound 25%)")


def test_bench_pairs_needs_two_seeds(capsys):
    bench_pairs = load_tool("bench_pairs")
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", ".", "--change", ".", "--workload", "paper-cell",
                          "--seeds", "5"])
    assert "at least two seeds" in capsys.readouterr().err


def test_compare_outputs_names_each_differing_file(tmp_path, capsys):
    # the same tree twice gives equal outputs; one changed byte in an
    # output file, the sweep's among them, is named, with exit 1
    compare_outputs = load_tool("compare_outputs")
    base, change = tmp_path / "base", tmp_path / "change"
    for out in (base, change):
        out.mkdir()
        compare_outputs.run_pipeline(TOOLS.parent, out, ["stage1_epochs=1", "stage2_epochs=1"])
    assert compare_outputs.compare(base, change) == 0
    assert capsys.readouterr().out.splitlines() == ["45 files, 0 differ"]

    changed = ["sweep/runs/f0.05_s0/ours_cam/report.json", "sweep/trend.csv",
               "train/cam/checkpoint.json.store"]
    for name in changed:
        raw = bytearray((change / name).read_bytes())
        raw[-1] ^= 1
        (change / name).write_bytes(bytes(raw))
    assert compare_outputs.compare(base, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"differs: {name}" for name in changed), "45 files, 3 differ"]
