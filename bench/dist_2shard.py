"""``dist_2shard``: ``repro.solve(A, b, distributed=2)``, spawn to solution.

Every op starts two shard processes, partitions and (when protected)
encodes the matrix, runs the lockstep CG — three pipe round-trips per
iteration — and tears the shards down again.  Pipes, spawn and reduction
dominate; the kernels are under a tenth of the time, so this is the one
workload no single-process optimisation should move.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

import repro
from harness import (
    WINDOW,
    Checker,
    RefOp,
    Rounds,
    Spec,
    median,
    peak_rss_mb,
    relative_gap,
    sample,
    timed,
)

SHARDS = 2


def reap_orphans(checker: Checker) -> None:
    """Terminate shard processes a failed op left behind."""
    for child in multiprocessing.active_children():
        checker.note(f"terminated orphaned process {child.name}")
        child.terminate()
        child.join(5)


class DistOp:
    """One distributed solve as a timed, checked op."""

    def __init__(self, system, checker: Checker, name: str, protection,
                 expect_iters: int, x_ref: np.ndarray):
        self.system = system
        self.checker = checker
        self.name = name
        self.protection = protection
        self.expect_iters = expect_iters
        self.x_ref = x_ref
        self.shard_counters = None
        self.last = None

    def __call__(self, i: int):
        system = self.system
        b = system.pool[0][0]
        try:
            dt, result = timed(repro.solve, system.A, b, eps=system.spec.eps,
                               protection=self.protection, distributed=SHARDS)
        except Exception as exc:
            self.checker.op(False, f"{self.name}: raised {exc!r}")
            reap_orphans(self.checker)
            return None
        problems = []
        if not result.converged:
            problems.append("did not converge")
        if abs(result.iterations - self.expect_iters) > 1:
            problems.append(f"{result.iterations} iterations, recorded "
                            f"{self.expect_iters}")
        residual = system.residual(result.x, b)
        if residual > 1e-6:
            problems.append(f"true residual {residual:.2e} > 1e-6")
        gap = relative_gap(result.x, self.x_ref)
        if gap > 1e-9:
            problems.append(f"x is {gap:.2e} from the in-process x (> 1e-9)")
        if self.protection is not None:
            counters = [
                {key: shard.get(key) for key in
                 ("full_checks", "vector_checks", "fused_products")}
                for shard in result.info["shards"]
            ]
            # Every shard owes at least one due (fused) product per window
            # of iterations, and every run of this system the same counts.
            owed = -(-result.iterations // WINDOW)
            if any((c["fused_products"] or 0) + (c["full_checks"] or 0) < owed
                   for c in counters):
                problems.append(f"shard check counters {counters}, owed >= {owed}")
            if self.shard_counters is None:
                self.shard_counters = counters
            elif counters != self.shard_counters:
                problems.append(f"shard check counters {counters} differ from "
                                f"the first run's {self.shard_counters}")
        ok = self.checker.op(not problems, f"{self.name}: {'; '.join(problems)}")
        self.last = result
        return dt if ok else None


def measure_spawn(system, checker: Checker, config, reps: int) -> float:
    """Median of spawn-partition-encode-teardown: a ``max_iters=0`` solve."""
    b = system.pool[0][0]
    times = []
    for _ in range(reps):
        try:
            dt, result = timed(repro.solve, system.A, b, eps=system.spec.eps,
                               protection=config, distributed=SHARDS, max_iters=0)
        except Exception as exc:
            checker.op(False, f"max_iters=0 distributed solve raised {exc!r}")
            reap_orphans(checker)
            continue
        if checker.op(result.iterations == 0, "max_iters=0 solve iterated"):
            times.append(dt)
    return median(times)


def run(spec: Spec, small: Spec, args, checker: Checker) -> dict:
    """One run of ``dist_2shard``; returns metric -> value."""
    from inproc import System

    system = System(spec, args.seed)
    b, x_plain, iters = system.pool[0]
    expect = args.expect_iters if args.expect_iters is not None else iters
    x_inproc = repro.solve(system.pmat, b, eps=spec.eps,
                           protection=system.deferred).x
    ops = {
        "protected": DistOp(system, checker, "protected", system.deferred,
                            expect, x_inproc),
        "plain": DistOp(system, checker, "plain", None, expect, x_plain),
    }
    rounds = Rounds(ops, ref=RefOp())
    try:
        if args.trace:
            return run_traced(system, rounds, small, args, checker)
        return run_untraced(system, rounds, args, checker)
    finally:
        reap_orphans(checker)  # a failed op must not leave shards behind


def run_untraced(system, rounds: Rounds, args, checker: Checker) -> dict:
    smoke = args.scale == "smoke"
    metrics = {"setup_s": measure_spawn(system, checker, system.deferred,
                                        reps=3 if smoke else 7)}
    rounds.run(time.perf_counter() + 0.8 * args.seconds, min_rounds=2)
    metrics["protected_op_s"] = rounds.value("protected")
    metrics["plain_op_s"] = rounds.value("plain")
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    metrics["_rounds"] = rounds.rounds
    metrics["_ref_op_s"] = median(rounds.ref.samples)
    return metrics


def run_traced(system, rounds: Rounds, small: Spec, args, checker: Checker) -> dict:
    from inproc import traced_section
    from repro.dist.partition import partition_matrix

    seconds = args.seconds
    spawn = measure_spawn(system, checker, system.deferred, reps=3)
    rounds.run(time.perf_counter() + 0.45 * seconds, min_rounds=1)

    plan = partition_matrix(system.A, SHARDS)
    partition = sample(lambda: partition_matrix(system.A, SHARDS), min_reps=3,
                       budget_s=0.03 * seconds)
    metrics, rounds_in, tracer = traced_section(system, checker, small, args,
                                                rounds_share=0.15)
    metrics["harness.rounds"] = rounds.rounds  # of distributed solves

    protected, inproc = rounds.value("protected"), rounds_in.value("protected")
    last = rounds.configs["protected"].last
    # Computed: spmv, update and pbound are one lockstep round each.
    lockstep = 3 * (last.iterations if last is not None else system.iters)
    metrics["protect.overhead_x"] = rounds.paired_ratio("protected", "plain")
    metrics["dist.spawn_s"] = spawn
    metrics["dist.partition_ms"] = 1e3 * median(partition)
    metrics["dist.rounds"] = lockstep
    metrics["dist.round_ms"] = 1e3 * (protected - spawn) / lockstep
    metrics["dist.inproc_op_s"] = inproc
    metrics["dist.speedup_x"] = inproc / protected if protected else 0.0
    # Computed: each iteration ships every halo entry once, as a float64.
    metrics["dist.halo_bytes_per_iter"] = 8 * sum(block.n_halo for block in plan.blocks)
    metrics["dist.shard_full_checks"] = sum(
        shard.get("full_checks", 0) for shard in last.info["shards"]) if last else 0
    if args.trace_out:
        tracer.dump(args.trace_out)
    return metrics
