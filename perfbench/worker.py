"""One workload process: set up, warm up, then time operations in a closed loop.

Started by ``run.py`` with the thread pools already pinned in its
environment; run it directly only for debugging.  It prints ``READY`` once
set-up is done (the parent times set-up up to that line) and writes its
measurements to the ``--result`` file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import qicsim.cli  # noqa: E402,F401  (loads every layer before tracing patches them)
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE_SEED = 0
REFERENCE_FILE = os.path.join(HERE, "reference_seed0.json")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(math.ceil(p / 100.0 * len(s)) - 1, 0)]


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, use_reference: bool = True):
        self.workload = workload
        self.workdir = workdir
        self.ops = wl.build_ops(workload, seed, workdir)
        self.first_sha: dict[str, str] = {}
        self.reference = {}
        if use_reference and seed == REFERENCE_SEED and os.path.exists(REFERENCE_FILE):
            with open(REFERENCE_FILE) as fh:
                self.reference = json.load(fh).get(workload, {})
        self.attempted = self.failed = 0
        self.identical = self.compared = 0
        self.repeats = self.repeats_identical = 0
        self.errors: list[str] = []
        self.summaries: dict[str, dict] = {}

    def execute(self, op, tracer: Tracer | None = None) -> float:
        """Run, time and check one operation; returns its seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            data = tracer.span("op", wl.run_op, op) if tracer else wl.run_op(op)
        except Exception as exc:  # any raise counts as a failed operation
            elapsed = time.perf_counter() - t0
            self._fail(f"{op.name}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            self._check(op, data)
        except wl.OpFailed as exc:
            self._fail(str(exc))
        return elapsed

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def _check(self, op, data: bytes) -> None:
        sha = wl.sha256(data)
        if op.name in self.first_sha:
            # a repeat must reproduce the first pass byte for byte
            self.repeats += 1
            if sha != self.first_sha[op.name]:
                raise wl.OpFailed(f"{op.name}: output differs from its first run")
            self.repeats_identical += 1
        else:
            self.first_sha[op.name] = sha
            self.summaries[op.name] = wl.check_output(op, data)
        ref = self.reference.get(op.name)
        if ref is None:
            return
        self.compared += 1
        if sha == ref["sha256"]:
            self.identical += 1
        elif not wl.matches_reference(self.summaries[op.name], ref["summary"]):
            raise wl.OpFailed(f"{op.name}: output differs from the recorded reference")

    def run_passes(self, seconds: float, tracer: Tracer | None = None,
                   min_ops: int = 1, max_passes: int | None = None):
        """Whole passes over the batch, at least ``min_ops`` operations and
        the number of passes whose duration comes closest to ``seconds``.
        Returns per-op times and the operation seconds of each pass (checks
        excluded)."""
        times: dict[str, list[float]] = {op.name: [] for op in self.ops}
        pass_seconds = []
        start = time.perf_counter()
        n = 0
        while True:
            op_seconds = 0.0
            for op in self.ops:
                before = dict(tracer.counts) if tracer else None
                times[op.name].append(self.execute(op, tracer))
                op_seconds += times[op.name][-1]
                n += 1
                if tracer:
                    self.self_test(op, before, tracer.counts)
            pass_seconds.append(op_seconds)
            if max_passes and len(pass_seconds) >= max_passes:
                break
            elapsed = time.perf_counter() - start
            if n >= min_ops and elapsed + 0.5 * elapsed / len(pass_seconds) >= seconds:
                break
        return times, pass_seconds

    def self_test(self, op, before: dict, after: dict) -> None:
        """Exact per-operation counts the trace must reproduce."""
        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        want = {}
        if self.workload == "capacity":
            want = {"field_kernel.pairing_detail.calls": 9,
                    "channel.distribution_from_moments.calls": 2,
                    "channel.distribution_from_moments.terms": 2 * 128}
        elif op.argv and op.argv[0] == "evolve":
            want = {"field_kernel.ModeProfileEvaluator.evaluate.radii":
                    op.meta["points"] * op.meta["generators"]}
        for key, value in want.items():
            if delta(key) != value:
                self._fail(f"{op.name}: trace self-test {key} = {delta(key)}, expected {value}")

    def thread_check(self) -> tuple[float, float] | None:
        """Run the first evolve snapshot at one thread; it must be
        byte-identical to the multi-threaded output.  Returns
        (seconds at 1 thread, seconds at nproc threads)."""
        if not self.workload.startswith("evolve"):
            return None
        op = self.ops[0]
        with open(op.argv[2]) as fh:
            cfg = json.load(fh)
        single = wl.Op(name=op.name + "_threads1", kind="cli", meta=op.meta,
                       out=op.out[:-4] + "_threads1.csv")
        cfg.update(threads=1, out=single.out)
        single.argv = ["evolve", "--config", wl.write_config(self.workdir, single.name, cfg)]
        t_multi = self.execute(op)
        t_single = self.execute(single)
        with open(op.out, "rb") as a, open(single.out, "rb") as b:
            if a.read() != b.read():
                self._fail(f"{op.name}: output differs between --threads 1 and {wl.EVOLVE_THREADS}")
        return t_single, t_multi


def end_to_end(runner: Runner, times: dict) -> dict:
    all_times = [t for ts in times.values() for t in ts]
    p = wl.TAIL_PERCENTILE[runner.workload]
    # ru_maxrss is in KiB on Linux
    return {
        "wall_s": sum(statistics.median(ts) for ts in times.values()),
        "op_p50_s": statistics.median(all_times),
        "op_tail_s": percentile(all_times, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer: Tracer, passes: int, overhead: float,
                  threads: tuple | None, csv_bytes: int) -> dict:
    incl, self_s = tracer.totals()
    c = tracer.counts
    names = {sid: name for name, _, _, sid, _ in tracer.spans}
    osc = "quadrature.oscillatory_integral"
    seg_children = {}
    for name, _, _, sid, parent in tracer.spans:
        if name == "quadrature.segment_integrals" and names.get(parent) == osc:
            seg_children[parent] = seg_children.get(parent, 0) + 1
    osc_calls = c.get(osc + ".calls", 0)
    ev = "field_kernel.ModeProfileEvaluator.evaluate"
    ev_wall = tracer.union_wall(ev)
    csv_s = incl.get("cli.write_grid_csv", 0.0)

    def per(x):
        return x / passes

    m = {
        osc + ".calls": per(osc_calls),
        osc + ".self_s": per(self_s.get(osc, 0.0)),
        "quadrature.integrand_points": per(c.get("quadrature.integrand_points", 0)),
        "quadrature.refinements": per(sum(seg_children.values()) - len(seg_children)),
        "quadrature.first_pass_ratio":
            sum(1 for v in seg_children.values() if v == 1) / osc_calls if osc_calls else 0.0,
    }
    for name in ("quadrature.wynn_epsilon", "quadrature.tail_model", "smearing.ft_oracle"):
        m[name + ".calls"] = per(c.get(name + ".calls", 0))
        m[name + ".self_s"] = per(self_s.get(name, 0.0))
    m.update({
        "quadrature.segment_integrals.self_s": per(self_s.get("quadrature.segment_integrals", 0.0)),
        "quadrature.damped_tail_integral.s": per(incl.get("quadrature.damped_tail_integral", 0.0)),
        "quadrature.damped_tail_integral.self_s": per(self_s.get("quadrature.damped_tail_integral", 0.0)),
        "quadrature.damped_tail_integral.integrand_points":
            per(c.get("quadrature.damped_tail_integral.integrand_points", 0)),
        "smearing.radial_ft.points": per(c.get("smearing.radial_ft.points", 0)),
        "smearing.radial_ft.self_s": per(self_s.get("smearing.radial_ft", 0.0)),
        "field_kernel.integrand.self_s": per(self_s.get("field_kernel.integrand", 0.0)),
        "field_kernel.pairing_detail.calls": per(c.get("field_kernel.pairing_detail.calls", 0)),
        ev + ".self_s": per(self_s.get(ev, 0.0)),
        ev + ".radii": per(c.get(ev + ".radii", 0)),
        "field_kernel.ModeProfileEvaluator.init_s":
            per(incl.get("field_kernel.ModeProfileEvaluator.init", 0.0)),
        "field_kernel.kernel_evals": per(c.get("field_kernel.kernel_evals", 0)),
        "field_kernel.kernel_evals_per_s":
            c.get("field_kernel.kernel_evals", 0) / ev_wall if ev_wall else 0.0,
        "qic.thread_speedup": threads[0] / threads[1] if threads else 0.0,
        "qic.build_qic.self_s": per(self_s.get("qic.build_qic", 0.0)),
        "field_kernel.pairing_matrix.s": per(incl.get("field_kernel.pairing_matrix", 0.0)),
        "qic.weighting_grid.self_s": per(self_s.get("qic.weighting_grid", 0.0)),
        "qic.weighting_grid.points": per(c.get("qic.weighting_grid.points", 0)),
        "channel.scenario_moments.s": per(incl.get("channel.scenario_moments", 0.0)),
        "channel.distribution_from_moments.self_s":
            per(self_s.get("channel.distribution_from_moments", 0.0)),
        "channel.distribution_from_moments.terms":
            per(c.get("channel.distribution_from_moments.terms", 0)),
        "channel.capacity.self_s": per(self_s.get("channel.capacity", 0.0)),
        "channel.mutual_information.calls": per(c.get("channel.mutual_information.calls", 0)),
        "cli.write_grid_csv.s": per(csv_s),
        "cli.csv_bytes": per(csv_bytes),
        "cli.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "cli.cmd_capacity.self_s": per(self_s.get("cli.cmd_capacity", 0.0)),
        "cli.cmd_evolve.self_s": per(self_s.get("cli.cmd_evolve", 0.0)),
        "trace_overhead_ratio": overhead,
        "unattributed_s": per(self_s.get("op", 0.0)),
    })
    return m


def versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", default=None, help="omit to stop after set-up")
    ap.add_argument("--ignore-reference", action="store_true")
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed, args.workdir, not args.ignore_reference)
    # set-up ends with one untraced, unchecked warm-up operation
    try:
        wl.run_op(runner.ops[0])
    except Exception:
        pass  # the checked operation below counts the failure
    print("READY", flush=True)
    if args.result is None:
        return 0
    # one traced and checked operation, so that every run checks the
    # tracer's wiring and the exact-count self-test; the tracer and its
    # spans are dropped before anything is timed
    tracer = Tracer()
    tracer.install()
    before = dict(tracer.counts)
    try:
        runner.execute(runner.ops[0], tracer)
    finally:
        tracer.uninstall()
    runner.self_test(runner.ops[0], before, tracer.counts)
    del tracer
    runner.first_sha.clear()

    result = {"errors": runner.errors}
    if args.trace == 0:
        times, _ = runner.run_passes(args.seconds, min_ops=wl.MIN_OPS[args.workload])
        threads = runner.thread_check()
        result["metrics"] = end_to_end(runner, times)
        result["timed_ops"] = sum(len(ts) for ts in times.values())
        result["tail_percentile"] = wl.TAIL_PERCENTILE[args.workload]
    else:
        # untraced and traced passes alternate; the overhead compares the
        # fastest of each, which discounts the cold first pass
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced += runner.run_passes(0.0, max_passes=1)[1]
            tracer.install()
            try:
                traced += runner.run_passes(0.0, tracer, max_passes=1)[1]
            finally:
                tracer.uninstall()
        csv_bytes = sum(os.path.getsize(op.out) for op in runner.ops
                        if op.out and op.out.endswith(".csv")) * len(traced)
        threads = runner.thread_check()
        overhead = min(traced) / min(untraced)
        result["metrics"] = layer_metrics(tracer, len(traced), overhead, threads, csv_bytes)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        identical=runner.identical,
        compared=runner.compared,
        repeats=runner.repeats,
        repeats_identical=runner.repeats_identical,
        summaries=runner.summaries,
        first_sha=runner.first_sha,
        versions=versions(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
