#!/usr/bin/env python3
"""The repo benchmark: four workloads, one command.

    python3 bench/run.py --seed 0                     # everything, by name
    python3 bench/run.py --workload cg_large --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --sets 5                     # the NOISE.md table

With ``--workload`` one workload runs in this process and the last line
of stdout is one JSON object — ``correct``, ``attempted``, ``failed``,
``metrics`` — carrying the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` declares.
Without it every workload runs in a fresh subprocess, untraced then
traced.  The exit code is non-zero when any check fails.  README.md
explains the metrics, the workloads and the noise protocol.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS thread in this process and in every child
# (shards, subprocesses).  Two OpenBLAS threads on two cores made the
# protected cg_large median wander 11 % between identical runs; one
# thread, 2.3 %.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

WORKLOAD_MODULES = {
    "cg_large": "inproc",
    "cg_small": "inproc",
    "serve_mix": "serve_mix",
    "dist_2shard": "dist_2shard",
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv, contract):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]],
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids, for bench/test_bench_smoke.py")
    parser.add_argument("--sets", type=int, default=0,
                        help="run every workload N times and print the spread "
                             "of each end-to-end metric against its bound")
    parser.add_argument("--out", help="also write the result JSON here")
    parser.add_argument("--trace-out", help="write the traced run's spans here")
    parser.add_argument("--expect-iters", type=int,
                        help="override the recorded iteration count the checks "
                             "expect (a wrong value must fail the run)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------
def child_pids() -> list[int]:
    """Pids of this process's direct children, running or zombie."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop and reap every process this one started, on every way out.

    ``repro.solve(distributed=2)`` spawns its shards with the ``spawn``
    context, which also starts a ``multiprocessing.resource_tracker``
    helper that only exits once this process has — it outlives the run
    and, where pid 1 does not reap, stays behind as a zombie.  Closing
    its pipe and waiting for it here means nothing survives the run.
    """
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # shards of a failed op
        child.terminate()
        child.join(5)
    try:
        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: fall through to the generic sweep
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + 5
        while (pids := child_pids()) and time.monotonic() < deadline:
            for pid in pids:
                try:
                    if os.waitpid(pid, os.WNOHANG) == (0, 0):
                        os.kill(pid, sig)
                except (ChildProcessError, ProcessLookupError):
                    pass
            time.sleep(0.02)


def run_workload(args, contract) -> int:
    try:
        return measure_workload(args, contract)
    finally:
        stop_children()


def measure_workload(args, contract) -> int:
    import importlib

    from harness import SPECS, Checker

    specs = SPECS[args.scale]
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    checker = Checker()
    measured = module.run(specs[args.workload], specs["cg_small"], args, checker)

    declared = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        value = measured.get(entry["name"])
        if value is None:
            # Not defined on this workload (README.md lists where each is).
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload} ({mode}, seed {args.seed}, scale {args.scale}, "
          f"{args.seconds:g} s)")
    for name, cell in metrics.items():
        absent = "" if name in measured else "   (n/a on this workload)"
        print(f"  {name:32s} {cell['value']:>14.6g} {cell['unit']}{absent}")
    for name, value in measured.items():
        if name.startswith("_"):
            print(f"  [{name[1:]} = {value:.6g}]")
    for note in checker.notes:
        print(f"  note: {note}")
    print(f"  ops_attempted {checker.attempted}   ops_failed {checker.failed}")
    for failure in checker.failures:
        print(f"  FAILED: {failure}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    print(line, flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------
def run_child(workload: str, args, trace: int, seed: int) -> tuple[dict | None, str]:
    """One workload in a fresh interpreter; ``(result, its printed report)``."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--scale", args.scale]
    if args.expect_iters is not None:
        command += ["--expect-iters", str(args.expect_iters)]
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{workload}.json"]
    # Its own process group, so a child that hangs is killed shards and all.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=900)
    except BaseException as exc:  # timeout, Ctrl-C: never leave it running
        os.killpg(child.pid, signal.SIGKILL)
        stdout, stderr = child.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        stderr += "\ntimed out after 900 s"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, stdout + stderr
    return result, "\n".join(lines[:-1])


def run_all(args, contract) -> int:
    workloads = [w["name"] for w in contract["workloads"]]
    results, ok = {}, True
    for workload in workloads:
        for trace in (0, 1):
            result, report = run_child(workload, args, trace, args.seed)
            print(report, flush=True)
            if result is None:
                print(f"  FAILED: {workload} printed no result")
                ok = False
                continue
            ok = ok and result["correct"]
            entry = results.setdefault(
                workload, {"metrics": {}, "attempted": 0, "failed": 0})
            entry["metrics"].update(result["metrics"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
    summary = {"correct": ok, "seed": args.seed, "workloads": results}
    line = json.dumps(summary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    print(line)
    return 0 if ok else 1


def run_sets(args, contract) -> int:
    """``--sets N``: the untraced benchmark N times, spread against bound.

    A run whose reference kernel (``ref_op_s``, printed by the child) is
    more than 15 % off the median of its workload's N is re-run, at most
    twice, and the re-run is recorded; no run is ever dropped because of
    the value of a measured metric.
    """
    workloads = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = {workload: {} for workload in workloads}  # seed -> run
    ok = True

    def attempt(workload: str, seed: int, reruns: int) -> None:
        nonlocal ok
        result, report = run_child(workload, args, 0, seed)
        if result is None or not result["correct"]:
            print(report)
            ok = False
        else:
            runs[workload][seed] = {"result": result, "ref": ref_op(report),
                                    "reruns": reruns}

    for seed in range(args.seed, args.seed + args.sets):
        for workload in workloads:
            attempt(workload, seed, 0)
    for workload in workloads:
        for _ in range(2):
            refs = [run["ref"] for run in runs[workload].values() if run["ref"]]
            if not refs:
                break
            middle = statistics.median(refs)
            for seed, run in list(runs[workload].items()):
                if run["ref"] and abs(run["ref"] / middle - 1) > 0.15:
                    attempt(workload, seed, run["reruns"] + 1)

    print(f"{args.sets} sets, seeds {args.seed}..{args.seed + args.sets - 1}, "
          f"{args.seconds:g} s per run\n")
    print("| workload | metric | per-run values | median | (max-min)/median | bound | |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"]
                      for run in runs[workload].values()]
            if not values:
                continue
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle
            print(f"| {workload} | {name} | "
                  f"{' '.join(f'{v:.5g}' for v in values)} | {middle:.5g} | "
                  f"{100 * spread:.1f} % | {100 * bound:.0f} % | "
                  f"{'OVER BOUND' if spread > bound else ''} |")
        reruns = {seed: run["reruns"] for seed, run in runs[workload].items()
                  if run["reruns"]}
        if reruns:
            print(f"| {workload} | re-run after a noisy reference kernel | "
                  f"seed: times {reruns} | | | | |")
    return 0 if ok else 1


def ref_op(report: str) -> float | None:
    """The ``[ref_op_s = ...]`` line of a child's report, if it printed one."""
    for line in report.splitlines():
        if line.strip().startswith("[ref_op_s ="):
            return float(line.split("=")[1].strip(" ]"))
    return None


def main(argv=None) -> int:
    contract = load_contract()
    args = parse_args(argv, contract)
    if args.workload:
        return run_workload(args, contract)
    if args.sets:
        return run_sets(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
