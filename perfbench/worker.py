"""One workload in one fresh process: set up, run passes, check outputs.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT [--setup-only]

Untraced passes run while the next one is expected to end within half the
budget (all of it with TRACE 0); with TRACE 1, at least two traced passes
follow. Each command is timed on its own and stopped after
COMMAND_LIMIT_S, which counts as a failure. Outputs are checked after the
pass, outside the timing, in a forked child so that the checks' memory
stays out of this process's `ru_maxrss`; a check that passed is not
repeated for byte-identical outputs. The result is written as JSON to
RESULT; with TRACE 1 the spans go, once, to WORKDIR/spans.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
COMMAND_LIMIT_S = 30.0


class CommandTimeout(BaseException):
    """A command ran past COMMAND_LIMIT_S. A BaseException, so that no
    `except Exception` inside `fbe` swallows it."""


def _on_alarm(signum, frame):
    raise CommandTimeout(f"stopped after {COMMAND_LIMIT_S:g} s")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _continue(elapsed: float, walls: list[float], budget: float, minimum: int) -> bool:
    """Start another pass until `minimum` have run, and then while one more
    pass of median length is expected to end within the budget."""
    return len(walls) < minimum or elapsed + statistics.median(walls) <= budget


def _in_child(fn) -> str | None:
    """Run `fn` in a forked child; its error message, or None if it returned.

    The only threads here are OpenBLAS's pool, which OpenBLAS stops in its
    own fork handler, so the child starts in a consistent state.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report and leave without running any cleanup
        os.close(r)
        try:
            fn()
            msg = ""
        except BaseException as e:  # noqa: BLE001 - every error is a failed check
            msg = f"{type(e).__name__}: {e}"
        with os.fdopen(w, "w") as fh:
            fh.write(msg)
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        msg = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return f"check process ended with status {status}"
    return msg or None


class Runner:
    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.passes: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.hashes: dict[str, dict[str, str]] = {}
        self._checked: dict[tuple, str | None] = {}  # (op, hashes) -> error
        signal.signal(signal.SIGALRM, _on_alarm)

    def run_pass(self, traced: bool) -> dict:
        pass_id = len(self.passes)
        if traced:
            self.tracer.pass_id = pass_id
            self.tracer.install()
        outcomes, op_s = {}, {}
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            for op in self.wl.ops:
                s = time.perf_counter()
                span = self.tracer.open(f"cli.{op.id}") if traced else None
                signal.setitimer(signal.ITIMER_REAL, COMMAND_LIMIT_S)
                try:
                    outcomes[op.id] = op.run()
                except (Exception, SystemExit, CommandTimeout):
                    outcomes[op.id] = traceback.format_exc(limit=-3)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    if traced:
                        self.tracer.close(span)
                op_s[op.id] = time.perf_counter() - s
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        finally:
            if traced:
                self.tracer.uninstall()
        rec = {"pass": pass_id, "traced": traced, "wall_s": wall, "cpu_s": cpu, "op_s": op_s}
        rec["verify_s"] = _verify_check_times(outcomes)
        self._check(pass_id, outcomes)
        self.passes.append(rec)
        return rec

    def _check(self, pass_id: int, outcomes: dict) -> None:
        for op in self.wl.ops:
            self.attempted += 1
            out = outcomes[op.id]
            detail = None
            if isinstance(out, str):
                kind, error, detail = "raised", out.strip().splitlines()[-1], out
            elif out.rc != 0:
                kind, error = "wrong", f"exit code {out.rc}"
            else:
                files = {p.name: _sha256(p.read_bytes()) for p in op.files if p.exists()}
                files["stdout"] = _sha256(out.text.encode())
                self.hashes.setdefault(op.id, files)
                key = (op.id, tuple(sorted(files.items())))
                if key not in self._checked:
                    msg = _in_child(lambda: op.check(out))
                    self._checked[key] = None if msg is None else f"check failed: {msg}"
                kind, error = "wrong", self._checked[key]
            if error is not None:
                self.failures.append(
                    {"pass": pass_id, "op": op.id, "kind": kind, "error": error, "detail": detail}
                )


def _verify_check_times(outcomes: dict) -> dict[str, float]:
    """Per-check runtimes as the verify reports measured them, summed over systems."""
    out: dict[str, float] = {}
    for o in outcomes.values():
        report = getattr(o, "report", None)
        for c in getattr(report, "checks", ()):
            out[c.name] = out.get(c.name, 0.0) + c.runtime
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, result = argv[:6]
    setup_only = "--setup-only" in argv[6:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir, result = Path(workdir), Path(result)

    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import fbe

    import workloads

    if Path(fbe.__file__).resolve().parent != (SRC / "fbe").resolve():
        raise RuntimeError(f"imported fbe from {fbe.__file__}, not from {SRC}")
    wl = workloads.build(workload, seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.activate(wl)
    wl.setup()
    setup_s = time.perf_counter() - t0
    if setup_only:
        result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing

    runner = Runner(wl, tracing.Tracer())
    start = time.perf_counter()
    untraced: list[float] = []
    budget = seconds / 2 if trace else seconds
    while _continue(time.perf_counter() - start, untraced, budget, 1):
        untraced.append(runner.run_pass(traced=False)["wall_s"])
    traced: list[float] = []
    while trace and _continue(time.perf_counter() - start, traced, seconds, 2):
        traced.append(runner.run_pass(traced=True)["wall_s"])

    t = runner.tracer
    layers = {
        p["pass"]: tracing.layer_metrics(t.spans, p["pass"], t.counts[p["pass"]])
        for p in runner.passes
        if p["traced"]
    }
    if trace:
        (workdir / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "pass"], "spans": t.spans})
        )
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": runner.passes,
        "layers": layers,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "artifacts": runner.hashes,
        "leftover_wrappers": tracing.leftover_wrappers(),
    }
    result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
