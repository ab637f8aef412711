"""qicsim benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up is timed from a fresh interpreter to
ready-to-time (import, input generation, one warm-up operation); it is
repeated in ``SETUPS`` fresh processes, half of them before the measuring
process and half after it, so that they sample the host across the whole
run, and the median is reported.  The measuring process, whose set-up is
one of those, times operations in a closed loop, one client, in whole
passes over the workload's batch, as many as come closest to ``--seconds``
(and enough for the tail percentile).  With
``--trace 1`` it instead reports per-layer metrics from a traced run.  The
last line of standard output is the JSON result; the lines before it are the
human-readable summary, the verdict and information about the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SETUPS = 9
RUN_DEADLINE_S = 170.0


def pinned_env() -> dict:
    """Environment of the workload process.

    The evolve workloads run ``--threads nproc`` and each of those threads
    calls into BLAS, so the BLAS and OpenMP pools get one thread each;
    every workload is pinned alike so that their timings are comparable.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def machine_info(root: str, nproc: int) -> dict:
    info = {"nproc": nproc, "python": sys.version.split()[0]}
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, idx, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, idx, "size")) as fh:
                    caches[f"L{level}{kind[0].lower()}"] = fh.read().strip()
            except OSError:
                continue
    info["caches"] = caches
    src = os.path.join(root, "src", "qicsim")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    info["src_qicsim_lines"] = lines
    info["git_sha"] = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if sha.returncode == 0:
                info["git_sha"] = sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def run_worker(args, workdir: str, env: dict, result: str | None, deadline: float) -> float:
    """Start one workload process and wait for it; returns its set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if result:
        cmd += ["--result", result]
    if args.record_reference:
        cmd.append("--ignore-reference")
    err_path = os.path.join(workdir, "worker.stderr")
    t0 = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    try:
        line = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload process exceeded the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "READY" or proc.returncode != 0:
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"workload process failed (exit {proc.returncode}):\n{tail}")
    return setup


def main() -> int:
    root = os.getcwd()
    # workload names, metric names and units all come from BENCHMARK.json
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: run from the repository root ({exc})", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="with --seed 0: store the outputs as the workload's reference")
    args = ap.parse_args()
    if args.record_reference and args.seed != 0:
        ap.error("references are recorded for seed 0 only")

    if not os.path.isfile(os.path.join(root, "src", "qicsim", "cli.py")):
        print("error: run from the repository root (src/qicsim not found)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = pinned_env()
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    try:
        setups = [run_worker(args, workdir, env, None, deadline) for _ in range(SETUPS // 2)]
        setups.append(run_worker(args, workdir, env, result_path, deadline))
        setups += [run_worker(args, workdir, env, None, deadline)
                   for _ in range(SETUPS - len(setups))]
        with open(result_path) as fh:
            res = json.load(fh)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.record_reference:
        record_reference(args.workload, res)

    attempted, failed = res["attempted"], res["failed"]
    info = machine_info(root, nproc)
    info.update(blas_threads=int(env["OPENBLAS_NUM_THREADS"]), evolve_threads=nproc,
                **res["versions"])
    values = res["metrics"]
    if args.trace == 0:
        values["setup_s"] = statistics.median(setups)
        print(f"workload {args.workload} seed {args.seed}: {res['timed_ops']} timed ops, "
              f"op_tail_s is p{res['tail_percentile']}, "
              f"setups {[round(s, 3) for s in setups]}")
    declared = bench["end_to_end" if args.trace == 0 else "per_layer"]
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    except KeyError as exc:
        print(f"error: workload reported no metric {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':50s} {failed / attempted:.6g} ({failed}/{attempted} ops failed)")
    for msg in res["errors"]:
        print(f"  FAILED {msg}")
    if res["compared"]:
        share = (f"{res['identical']}/{res['compared']} outputs byte-identical "
                 f"to the seed-{args.seed} reference")
    elif res["repeats"]:
        share = (f"no reference for seed {args.seed}; {res['repeats_identical']}/"
                 f"{res['repeats']} repeated outputs byte-identical to their first run")
    else:
        share = f"no reference for seed {args.seed} and no repeated outputs"
    verdict = "correct" if failed == 0 else "INCORRECT"
    print(f"verdict: {verdict} ({share})")
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference(workload: str, res: dict) -> None:
    path = os.path.join(HERE, "reference_seed0.json")
    ref = {}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
    ref[workload] = {name: {"sha256": sha, "summary": res["summaries"][name]}
                     for name, sha in sorted(res["first_sha"].items())}
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
