"""Spans and counters around the public functions of `fbe`, installed from
outside the package.

`Tracer.install()` rebinds each wrapped name in every `fbe` module that
bound it (a function imported with `from .ifs import attractor` is
rebound in the importing module as well), patches a few methods on their
classes, and replaces `cKDTree` where `fbe` looks it up.
`Tracer.uninstall()` puts every original back. Spans stay in memory as
`[name, start, end, parent, pass_id]` lists; `layer_metrics()` turns one
pass of them into the per-layer metrics that `BENCHMARK.json` names.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import scipy.spatial

import fbe.addresses
import fbe.basin
import fbe.ifs
import fbe.io
import fbe.manifold
import fbe.maps
import fbe.verify

_MARK = "__perfbench_wrapper__"

ADDRESS_OPS = (
    "validate",
    "sigma",
    "shift",
    "negate",
    "metric",
    "word_metric",
    "positive_tail_index",
    "parse_address",
    "format_address",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Counter hooks run after the wrapped call returns, outside its span:
# hook(add, args, kwargs, result, parent_span_name).


def _count_attractor(add, args, kwargs, res, parent):
    add("ifs.attractor_iters", res.meta["depth"])
    add("ifs.points_out", res.points.shape[0])


def _count_chaos(add, args, kwargs, res, parent):
    add("ifs.points_out", res.points.shape[0])


def _count_dedup(add, args, kwargs, res, parent):
    add("ifs.dedup_rows_in", len(_arg(args, kwargs, 0, "pts")))
    add("ifs.dedup_rows_out", res.shape[0])


def _count_transform(add, args, kwargs, res, parent):
    add("ifs.transform_calls", 1)
    add("ifs.transform_points", len(_arg(args, kwargs, 2, "pts")))
    # Each inverse image the word-tree raster computes is one child word.
    if parent == "basin.fast_basin_raster":
        add("basin.words_visited", 1)


def _count_raster(add, args, kwargs, res, parent):
    add("basin.hit_cells", res.hit_count)


def _count_word_tree(add, args, kwargs, res, parent):
    _count_raster(add, args, kwargs, res, parent)
    n = _arg(args, kwargs, 0, "ifs").n_maps
    depth = kwargs.get("depth", args[5] if len(args) > 5 else 3)
    add("basin.words_visited", 1)  # the empty word
    add("basin.tree_words", sum(n**k for k in range(depth + 1)))


def _count_apply(add, args, kwargs, res, parent):
    add("maps.apply_calls", 1)
    add("maps.apply_points", res.shape[0])


def _calls(metric):
    def hook(add, args, kwargs, res, parent):
        add(metric, 1)

    return hook


def _bytes(metric, pos, name):
    def hook(add, args, kwargs, res, parent):
        add(metric, os.path.getsize(_arg(args, kwargs, pos, name)))

    return hook


# (module, attribute, span name or None, counter hook or None)
FUNCTIONS = [
    (fbe.ifs, "attractor", "ifs.attractor", _count_attractor),
    (fbe.ifs, "chaos_game", "ifs.chaos_game", _count_chaos),
    (fbe.ifs, "grid_dedup", "ifs.grid_dedup", _count_dedup),
    (fbe.ifs, "hausdorff_distance", "ifs.hausdorff", _calls("ifs.hausdorff_calls")),
    (fbe.ifs, "coding_map", "ifs.coding_map", _calls("ifs.coding_map_calls")),
    (fbe.basin, "fast_basin_raster", "basin.fast_basin_raster", _count_word_tree),
    (
        fbe.basin,
        "raster_from_continuations",
        "basin.raster_from_continuations",
        _count_raster,
    ),
    (fbe.basin, "membership", "basin.membership", _calls("basin.membership_calls")),
    (fbe.basin, "finite_continuation", "basin.finite_continuation", None),
    (fbe.manifold, "distance", "manifold.distance", _calls("manifold.distance_calls")),
    (
        fbe.manifold,
        "leaf_projection",
        "manifold.leaf_projection",
        _calls("manifold.leaf_projection_calls"),
    ),
    (fbe.manifold, "branch_points", "manifold.branch_points", None),
    (fbe.io, "cache_attractor", "io.cloud_write", _bytes("io.cloud_write_bytes", 2, "path")),
    (fbe.io, "load_cached", "io.cloud_read", _bytes("io.cloud_read_bytes", 0, "path")),
    (fbe.io, "write_pgm", "io.raster_write", _bytes("io.raster_write_bytes", 1, "path")),
    (fbe.io, "write_csv", "io.raster_write", _bytes("io.raster_write_bytes", 1, "path")),
    (fbe.verify, "run_verify", "verify.run_verify", None),
] + [
    (
        fbe.addresses,
        op,
        "addresses.op",
        _calls(f"addresses.{op}_calls") if op in ("validate", "sigma") else None,
    )
    for op in ADDRESS_OPS
]

# (class, method, span name or None, counter hook or None)
METHODS = [
    (fbe.ifs.IfsSystem, "transform", "ifs.transform", _count_transform),
    (fbe.ifs.AttractorCloud, "nearest_dist", "ifs.kdtree_query", None),
    (fbe.ifs.AttractorCloud, "dist_point", "ifs.kdtree_query", None),
    (fbe.maps.AffineMap, "__call__", None, _count_apply),
    (fbe.maps.MoebiusMap, "__call__", None, _count_apply),
]

# KD-tree builds are counted where the name is looked up: verify imports
# cKDTree from scipy.spatial inside a function.
KDTREES = [
    (fbe.ifs, "ifs.kdtree_builds"),
    (fbe.manifold, "manifold.kdtree_builds"),
    (scipy.spatial, "verify.kdtree_builds"),
]


def _fbe_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "fbe" or name.startswith("fbe."))
    ]


class Tracer:
    """Records spans and counters for one process; one pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.pass_id = -1
        self._current = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._current, self.pass_id])
        self._current = idx
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = perf_counter()
        self._current = rec[3]

    def _parent_name(self) -> str | None:
        return self.spans[self._current][0] if self._current >= 0 else None

    def add(self, metric: str, value: float) -> None:
        self.counts[self.pass_id][metric] += value

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._parent_name()
            if span is None:
                res = fn(*args, **kwargs)
            else:
                idx = tracer.open(span)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if hook is not None:
                hook(tracer.add, args, kwargs, res, parent)
            return res

        setattr(wrapper, _MARK, True)
        return wrapper

    def _kdtree(self, real, metric):
        tracer = self

        def counted(*args, **kwargs):
            tracer.add(metric, 1)
            return real(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _fbe_modules()
        for home, attr, span, hook in FUNCTIONS:
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, span, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, name, wrapper)
        for cls, attr, span, hook in METHODS:
            self._rebind(cls, attr, self._wrap(cls.__dict__[attr], span, hook))
        for mod, metric in KDTREES:
            self._rebind(mod, "cKDTree", self._kdtree(mod.cKDTree, metric))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper; empty once every tracer is uninstalled."""
    owners = _fbe_modules() + [cls for cls, *_ in METHODS] + [scipy.spatial]
    return [
        f"{getattr(o, '__name__', o)}.{name}"
        for o in owners
        for name, value in list(vars(o).items())
        if getattr(value, _MARK, False)
    ]


# -- metrics -------------------------------------------------------------------

# Span names whose summed self time is one metric.
_SELF_TIME = {
    "ifs.attractor_s": ("ifs.attractor",),
    "ifs.grid_dedup_s": ("ifs.grid_dedup",),
    "ifs.hausdorff_s": ("ifs.hausdorff",),
    "ifs.chaos_s": ("ifs.chaos_game",),
    "ifs.transform_s": ("ifs.transform",),
    "ifs.kdtree_query_s": ("ifs.kdtree_query",),
    "ifs.coding_map_s": ("ifs.coding_map",),
    "basin.mark_s": ("basin.fast_basin_raster", "basin.raster_from_continuations"),
    "basin.membership_s": ("basin.membership",),
    "basin.finite_continuation_s": ("basin.finite_continuation",),
    "manifold.distance_s": ("manifold.distance",),
    "manifold.leaf_projection_s": ("manifold.leaf_projection",),
    "manifold.branch_points_s": ("manifold.branch_points",),
    "addresses.op_s": ("addresses.op",),
    "io.cloud_write_s": ("io.cloud_write",),
    "io.cloud_read_s": ("io.cloud_read",),
    "io.raster_write_s": ("io.raster_write",),
}

# Span names whose summed whole duration (children included) is one metric.
_TOTAL_TIME = {
    "basin.raster_s": "basin.fast_basin_raster",
    "basin.continuation_raster_s": "basin.raster_from_continuations",
}

_COUNTS = (
    "ifs.attractor_iters",
    "ifs.points_out",
    "ifs.dedup_rows_in",
    "ifs.hausdorff_calls",
    "ifs.transform_calls",
    "ifs.transform_points",
    "ifs.kdtree_builds",
    "ifs.coding_map_calls",
    "basin.words_visited",
    "basin.hit_cells",
    "basin.membership_calls",
    "manifold.distance_calls",
    "manifold.leaf_projection_calls",
    "manifold.kdtree_builds",
    "addresses.validate_calls",
    "addresses.sigma_calls",
    "maps.apply_calls",
    "maps.apply_points",
    "io.cloud_write_bytes",
    "io.cloud_read_bytes",
    "io.raster_write_bytes",
    "verify.kdtree_builds",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[list], pass_id: int, counts: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the pass is single-threaded.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    prune = 0.0
    for i, s in enumerate(spans):
        if s[4] != pass_id:
            continue
        dur = s[2] - s[1]
        own = dur - child[i]
        self_by_name[s[0]] += own
        total_by_name[s[0]] += dur
        # nearest-distance queries issued by the word-tree raster itself
        # are its prune test
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if s[0] == "ifs.kdtree_query" and parent == "basin.fast_basin_raster":
            prune += own
    out = {k: sum(self_by_name[n] for n in names) for k, names in _SELF_TIME.items()}
    out.update({k: total_by_name[n] for k, n in _TOTAL_TIME.items()})
    out["basin.prune_test_s"] = prune
    out.update({k: float(counts.get(k, 0)) for k in _COUNTS})
    out["ifs.dedup_keep_ratio"] = _ratio(
        counts.get("ifs.dedup_rows_out", 0), counts.get("ifs.dedup_rows_in", 0)
    )
    out["basin.prune_ratio"] = _ratio(
        counts.get("basin.words_visited", 0), counts.get("basin.tree_words", 0)
    )
    return out
