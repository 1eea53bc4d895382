"""The command ids of each workload and the checks of `fbe verify`.

`BENCHMARK.json` at the repository root declares the workloads and the
metrics with their units; `load_benchmark` reads it. This module imports
nothing from `fbe`, so `run.py` can use it without paying
for the import it measures.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Command ids per workload, in run order; `workloads.py` defines them.
COMMANDS = {
    "cloud": (
        "attractor-sierpinski",
        "attractor-interval",
        "attractor-projective_line",
        "attractor-quadratic_graph",
        "attractor-koch",
        "chaos-sierpinski",
    ),
    "query": (
        "fastbasin-sierpinski",
        "fastbasin-sierpinski-cont",
        "fastbasin-koch",
        "fastbasin-interval",
        "verify-sierpinski",
        "verify-mobius_arc",
        "manifold-branch-sierpinski",
        "manifold-leaves-sierpinski",
    ),
}

VERIFY_CHECKS = (
    "attractor-invariance",
    "coding-fixed-points",
    "semiconjugacy",
    "continuation-nesting",
    "union-equivalence",
    "raster-membership-agreement",
    "manifold-triangle",
    "same-sheet-isometry",
    "projection-contraction",
    "leaf-shape-count",
)

# Per-layer units whose values must repeat exactly from one traced pass to
# the next.
DETERMINISTIC_UNITS = ("count", "ratio", "bytes")


def load_benchmark() -> tuple[list[str], dict[str, str], dict[str, str]]:
    """Workload names, and metric name -> unit for the end-to-end and the
    per-layer metrics, as `BENCHMARK.json` declares them."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    return (
        [w["name"] for w in bench["workloads"]],
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )
