"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench

It runs every workload briefly (about 3 minutes on two cores), so it is
kept out of the repository's test suite.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spec  # noqa: E402

WORKLOADS, END_TO_END, PER_LAYER = spec.load_benchmark()


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_layer_metrics_self_time():
    import tracing

    spans = [
        ["cli.x", 0.0, 10.0, -1, 0],
        ["basin.fast_basin_raster", 1.0, 9.0, 0, 0],
        ["ifs.kdtree_query", 2.0, 3.0, 1, 0],
        ["ifs.transform", 4.0, 4.5, 1, 0],
        ["ifs.kdtree_query", 5.0, 5.25, 0, 0],
    ]
    m = tracing.layer_metrics(spans, 0, {"basin.words_visited": 4, "basin.tree_words": 8})
    assert m["basin.raster_s"] == 8.0
    assert m["basin.mark_s"] == 6.5
    assert m["ifs.kdtree_query_s"] == 1.25
    assert m["basin.prune_test_s"] == 1.0
    assert m["basin.prune_ratio"] == 0.5


def test_overrun_and_wrong_output_count_as_failures(tmp_path, monkeypatch):
    import tracing
    import worker
    import workloads

    def spin():
        while True:
            pass

    def wrong(outcome):
        raise workloads.CheckFailed("wrong output")

    ok = workloads.Outcome(0, "done")
    wl = workloads.Workload(
        "t",
        (
            workloads.Op("hang", spin, (), lambda o: None),
            workloads.Op("wrong", lambda: ok, (), wrong),
            workloads.Op("right", lambda: ok, (), lambda o: None),
        ),
        lambda: None,
        None,
    )
    monkeypatch.setattr(worker, "COMMAND_LIMIT_S", 0.2)
    runner = worker.Runner(wl, tracing.Tracer())
    runner.run_pass(traced=False)
    assert runner.attempted == 3
    errors = {f["op"]: (f["kind"], f["error"]) for f in runner.failures}
    assert errors.keys() == {"hang", "wrong"}
    assert errors["hang"][0] == "raised" and "CommandTimeout" in errors["hang"][1]
    assert errors["wrong"] == ("wrong", "check failed: CheckFailed: wrong output")


def _snapshot(tracing):
    owners = tracing._fbe_modules() + [c for c, *_ in tracing.METHODS]
    owners.append(tracing.scipy.spatial)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_installed_and_restored():
    import fbe.cli
    import fbe.ifs
    import tracing

    before = _snapshot(tracing)
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        assert fbe.cli.attractor is not before[(id(fbe.cli), "attractor")]
        assert fbe.cli.main(["attractor", "--ifs", "cantor", "--cell", "0.01"]) == 0
        with pytest.raises(fbe.ifs.DomainError):
            fbe.ifs.hausdorff_distance([], [[0.0]])
    finally:
        tracer.uninstall()
    assert tracer.counts[0]["ifs.attractor_iters"] > 0
    assert tracer.counts[0]["ifs.kdtree_builds"] > 0
    assert {s[0] for s in tracer.spans} >= {"ifs.attractor", "ifs.grid_dedup", "ifs.hausdorff"}
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer._current == -1
    after = _snapshot(tracing)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.leftover_wrappers() == []


def test_end_to_end_metrics_printed_for_every_workload():
    lines, result = _run("--workload", "all", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in WORKLOADS:
        for m, unit in END_TO_END.items():
            assert result["metrics"][f"{w}.{m}"]["unit"] == unit
            assert result["metrics"][f"{w}.{m}"]["value"] > 0
    text = "\n".join(lines)
    for label, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
                        ("error_rate", "ratio"), ("success_rate", "ratio")):  # fmt: skip
        assert len(re.findall(rf"^{label}\s+\S+ {unit}\b", text, re.M)) == len(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_layers_and_repeats_counts(workload):
    lines, result = _run("--workload", workload, "--seed", "5", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == PER_LAYER
    rec = json.loads((ROOT / ".benchwork" / f"record-{workload}-seed5-trace1.json").read_text())
    assert rec["leftover_wrappers"] == []
    layers = list(rec["layers"].values())
    assert len(layers) >= 2
    for m, unit in PER_LAYER.items():
        if unit in spec.DETERMINISTIC_UNITS and m in layers[0]:
            assert all(lay[m] == layers[0][m] for lay in layers), m
    for op in spec.COMMANDS[workload]:
        assert result["metrics"][f"cli.{op}_s"]["value"] > 0
    assert "cli.trace_overhead_s" in result["metrics"]
