"""End-to-end and per-layer benchmark of the `fbe` CLI.

    python3 perfbench/run.py --workload {cloud,query,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh child processes, one after another: set-up
alone in SETUP_SAMPLES - 1 of them, then set-up and the measured passes
in one more, so `peak_rss_mb` belongs to a single workload. One process
issues one command at a time, in a closed loop with no extra threads.
With `--trace 0` the passes are untraced and give the end-to-end metrics;
with `--trace 1` half the time goes to untraced passes and the rest to
at least two traced passes, which give the per-layer metrics.

The report, with sample counts, goes to standard output; its last line is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. A run record (machine, versions, every sample, failures and
the sha256 of every artifact) and the spans of a traced run are written
under `.benchwork/` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

WORKLOADS, END_TO_END, PER_LAYER = spec.load_benchmark()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".benchwork"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child(name, seed, seconds, trace, workdir: Path, deadline: float, setup_only=False):
    result = workdir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds)]
    cmd += [str(trace), str(workdir), str(result)] + (["--setup-only"] if setup_only else [])
    timeout = max(5.0, deadline - time.monotonic())
    # the child prints nothing of its own; keep our stdout for the report
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "none (n < 11)"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.4f}"


def _layer_values(res: dict, workload: str) -> tuple[dict, bool]:
    """Per-layer metrics and whether the deterministic ones repeated exactly."""
    untraced = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    layers = [res["layers"][str(p["pass"])] for p in traced]
    out = {}
    for metric, unit in PER_LAYER.items():
        if metric in layers[0]:
            values = [lay[metric] for lay in layers]
            out[metric] = values[0] if unit in spec.DETERMINISTIC_UNITS else _median(values)
    for op in spec.COMMANDS[workload]:
        out[f"cli.{op}_s"] = _median([p["op_s"][op] for p in untraced])
    for check in spec.VERIFY_CHECKS:
        out[f"verify.{check}_s"] = _median(
            [p["verify_s"][check] for p in untraced if check in p["verify_s"]]
        )
    out["cli.cpu_s"] = _median([p["cpu_s"] for p in untraced])
    out["cli.trace_overhead_s"] = _median([p["wall_s"] for p in traced]) - _median(
        [p["wall_s"] for p in untraced]
    )
    for metric in PER_LAYER:
        out.setdefault(metric, 0.0)  # commands of other workloads
    repeat = all(
        lay[m] == layers[0][m]
        for lay in layers
        for m, unit in PER_LAYER.items()
        if unit in spec.DETERMINISTIC_UNITS and m in lay
    )
    return out, repeat


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    tag = f"{name}-seed{seed}-trace{trace}"
    wdir = WORK / tag
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    try:
        setups = [
            _child(name, seed, seconds, trace, wdir / f"setup{k}", deadline, True)["setup_s"]
            for k in range(SETUP_SAMPLES - 1)
        ]
        res = _child(name, seed, seconds, trace, wdir / "run", deadline)
        if trace:
            shutil.move(wdir / "run" / "spans.json", WORK / f"spans-{tag}.json")
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    setups.append(res["setup_s"])
    walls = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    failed = len(res["failures"])
    rec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": res["attempted"],
        "failed": failed,
        "failures": res["failures"],
        "samples": {
            "wall_s": walls,
            "setup_s": setups,
            "traced_wall_s": [p["wall_s"] for p in res["passes"] if p["traced"]],
        },
        "end_to_end": {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - failed / res["attempted"],
        },
        "passes": res["passes"],
        "layers": res["layers"],
        "artifacts": res["artifacts"],
        "leftover_wrappers": res["leftover_wrappers"],
    }
    # A command that raised or overran produced no output to judge; it
    # counts in `failed`. A wrong output or a nonzero exit makes the run
    # incorrect.
    wrong = any(f["kind"] == "wrong" for f in res["failures"])
    rec["correct"] = not wrong and not res["leftover_wrappers"]
    if trace:
        rec["per_layer"], rec["counts_repeat"] = _layer_values(res, name)
        rec["correct"] = rec["correct"] and rec["counts_repeat"]
    (WORK / f"record-{tag}.json").write_text(json.dumps(rec, indent=1))
    return rec


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(rec: dict) -> None:
    e2e, s = rec["end_to_end"], rec["samples"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  "
          f"trace={rec['trace']}  commit={rec['environment']['git_commit']}")  # fmt: skip
    print(f"wall_s       {e2e['wall_s']:.4f} s    median of n={len(s['wall_s'])} "
          f"untraced passes; highest percentile with >=10 beyond: {_tail(s['wall_s'])}")  # fmt: skip
    print(f"setup_s      {e2e['setup_s']:.4f} s    median of n={len(s['setup_s'])} set-ups")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB  ru_maxrss of the workload process")
    print(f"error_rate   {rec['failed'] / rec['attempted']:.4g} ratio  "
          f"{rec['failed']} failed of {rec['attempted']} attempted")  # fmt: skip
    print(f"success_rate {e2e['success_rate']:.4g} ratio")
    for f in rec["failures"]:
        print(f"FAILED pass {f['pass']} {f['op']} ({f['kind']}): {f['error']}")
    if rec["trace"]:
        n = len(s["traced_wall_s"])
        print(f"per layer (times: median of n={n} traced passes, self time unless noted "
              f"in perfbench/README.md; counts: exact, repeat={rec['counts_repeat']})")  # fmt: skip
        for metric, unit in PER_LAYER.items():
            print(f"  {metric:40s} {_fmt(rec['per_layer'][metric])} {unit}")
    if rec["leftover_wrappers"]:
        print("wrappers left installed: " + ", ".join(rec["leftover_wrappers"]))


def _metric(value, unit):
    if unit in ("count", "bytes"):
        value = int(value)
    return {"value": value, "unit": unit}


def summary(recs: list[dict], trace: int) -> dict:
    metrics = {}
    for rec in recs:
        prefix = "" if len(recs) == 1 else rec["workload"] + "."
        if trace:
            for m, unit in PER_LAYER.items():
                metrics[prefix + m] = _metric(rec["per_layer"][m], unit)
        else:
            for m, unit in END_TO_END.items():
                metrics[prefix + m] = _metric(rec["end_to_end"][m], unit)
    return {
        "correct": all(r["correct"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=58)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fbe" / "__init__.py").is_file():
        print(f"perfbench: no fbe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    start = time.monotonic()
    recs = []
    for name in names:
        deadline = start + DEADLINE_S * (1 + len(recs))
        rec = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        report(rec)
        recs.append(rec)
    print(json.dumps(summary(recs, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
