"""In-process solves of one system: the whole of ``cg_large`` / ``cg_small``,
and the per-layer reference section of ``serve_mix`` / ``dist_2shard``.

Three configurations of ``repro.solve`` run interleaved on the same
right-hand sides — plain, protected (``deferred(16)`` on a pre-wrapped
matrix) and, in traced runs, eager (``paper_default()``) plus the
protected solve again with the layer boundaries wrapped in spans.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from harness import (
    WINDOW,
    Checker,
    RefOp,
    Residual,
    Rounds,
    Spec,
    build_system,
    draw_rhs,
    expected_counters,
    median,
    p95,
    peak_rss_mb,
    relative_gap,
    sample,
    timed,
)
from probes import guarantee_probe, layer_probes
from repro import ProtectionConfig
from tracing import Tracer

#: Counters copied from the protected solve's ``result.info``.
INFO_COUNTS = ("full_checks", "vector_checks", "fused_products",
               "dirty_flushes", "sweeps_skipped", "corrected")


class System:
    """One seeded operator with its right-hand-side pool and references."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.A = build_system(spec.grid, spec.dt, seed)
        self.iters, self.pool = draw_rhs(self.A, seed, spec.eps, spec.iters,
                                         spec.n_rhs, spec.rhs_draws)
        self.residual = Residual(self.A)
        self.deferred = ProtectionConfig.deferred(WINDOW)
        self.pmat = self.deferred.wrap_matrix(self.A)


class SolveOp:
    """One configuration of ``repro.solve`` as a timed, checked op.

    The first solve of each right-hand side is validated in full — true
    residual, distance to the plain solution — and kept; every later
    solve of it must reproduce that x bit for bit, which needs no
    scratch memory between timed ops.
    """

    def __init__(self, system: System, checker: Checker, name: str, matrix,
                 protection, *, expect_iters: int | None, iter_slack: int,
                 counters: bool = False, tracer: Tracer | None = None):
        self.system = system
        self.checker = checker
        self.name = name
        self.matrix = matrix
        self.protection = protection
        self.expect_iters = expect_iters
        self.iter_slack = iter_slack
        self.counters = counters
        self.tracer = tracer
        self.refs: dict[int, np.ndarray] = {}
        self.last = None
        self.counters_matched = 0

    def __call__(self, i: int):
        spec, pool = self.system.spec, self.system.pool
        slot = i % len(pool)
        b, x_plain, iters = pool[slot]
        kwargs = {"eps": spec.eps, "protection": self.protection}
        try:
            if self.tracer is not None:
                dt, result = timed(self.tracer.traced_solve, repro.solve,
                                   self.matrix, b, **kwargs)
            else:
                dt, result = timed(repro.solve, self.matrix, b, **kwargs)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.checker.op(False, f"{self.name}: raised {exc!r}")
            return None
        problems = self._check(result, slot, b, x_plain, iters)
        ok = self.checker.op(not problems, f"{self.name}: {'; '.join(problems)}")
        self.last = result
        return dt if ok else None

    def _check(self, result, slot, b, x_plain, iters) -> list[str]:
        problems = []
        if not result.converged:
            problems.append("did not converge")
        if self.expect_iters is not None:
            iters = self.expect_iters  # --expect-iters overrides the record
        if abs(result.iterations - iters) > self.iter_slack:
            problems.append(f"{result.iterations} iterations, recorded {iters}")
        if self.counters:
            want = expected_counters(result.iterations)
            got = {key: result.info.get(key) for key in want}
            if got != want:
                problems.append(f"check counters {got}, owed {want}")
            else:
                self.counters_matched += 1
        ref = self.refs.get(slot)
        if ref is not None:
            if not np.array_equal(result.x, ref):
                problems.append("x differs from the validated first solve")
        else:
            residual = self.system.residual(result.x, b)
            gap = relative_gap(result.x, x_plain)
            if residual > 1e-6:
                problems.append(f"true residual {residual:.2e} > 1e-6")
            if gap > 1e-9:
                problems.append(f"x is {gap:.2e} from the plain x (> 1e-9)")
            if not problems:
                self.refs[slot] = result.x
        return problems


def measure_setup(system: System, *, min_reps: int, budget_s: float) -> float:
    """``setup_s``: median wall time of fresh ``wrap_matrix`` encodes."""
    A, config = system.A, system.deferred
    return median(sample(lambda: config.wrap_matrix(A), min_reps=min_reps,
                         budget_s=budget_s))


def run_inproc(system: System, checker: Checker, *, seconds: float, traced: bool,
               expect_iters: int | None, eager: bool,
               ops_per_round: int | None = None):
    """Interleaved rounds on ``system``; returns ``(rounds, ops, tracer)``.

    Untraced runs interleave plain and protected only.  Traced runs add
    the traced protected solve every round and (``eager``) the
    check-every-access solve on every other round.
    """
    inexact = sum(1 for *_, iters in system.pool if iters != system.iters)
    if inexact:
        checker.note(f"{inexact} of {len(system.pool)} right-hand sides are one "
                     f"iteration off the recorded {system.iters}")
    ops = {
        "plain": SolveOp(system, checker, "plain", system.A, None,
                         expect_iters=expect_iters, iter_slack=0),
        "protected": SolveOp(system, checker, "protected", system.pmat,
                             system.deferred, expect_iters=expect_iters,
                             iter_slack=1, counters=True),
    }
    tracer = None
    every, ops_in_round = {}, {}
    per_round = ops_per_round or system.spec.ops_per_round
    if traced:
        tracer = Tracer()
        for gone in tracer.missing:
            checker.note(f"trace: missing {gone}; its span is not recorded")
        ops["traced"] = SolveOp(system, checker, "traced protected", system.pmat,
                                system.deferred, expect_iters=expect_iters,
                                iter_slack=1, counters=True, tracer=tracer)
        if eager:
            ops["eager"] = SolveOp(system, checker, "eager", system.A,
                                   ProtectionConfig.paper_default(),
                                   expect_iters=expect_iters, iter_slack=1)
            # An eager solve costs ~6 protected ones: a fifth of the ops,
            # on every other round.
            every["eager"] = 2
            ops_in_round["eager"] = max(1, per_round // 5)
    rounds = Rounds(ops, ops_per_round=per_round, ops_in_round=ops_in_round,
                    every=every, ref=RefOp())
    deadline = time.perf_counter() + seconds
    rounds.warm_up()
    rounds.run(deadline, min_rounds=2)
    checker.note(f"check counters as owed on {ops['protected'].counters_matched} "
                 "protected ops")
    return rounds, ops, tracer


def inproc_layer_metrics(system: System, rounds: Rounds, ops: dict,
                         tracer: Tracer) -> dict:
    """The per-layer metrics every workload's traced run derives from its
    in-process rounds: counts, ratios, the ledger, tracing overhead."""
    metrics = {}
    info = ops["protected"].last.info if ops["protected"].last is not None else {}
    for key in INFO_COUNTS:
        metrics[f"protect.{key}"] = info.get(key, 0)
    metrics["solvers.iterations"] = system.iters
    metrics["solvers.us_per_iter_plain"] = (
        1e6 * rounds.value("plain") / max(system.iters, 1))
    metrics.update(tracer.ledger())
    metrics["harness.trace_overhead_x"] = rounds.paired_ratio("traced", "protected")
    metrics["harness.ref_op_s"] = median(rounds.ref.samples)
    metrics["harness.rounds"] = rounds.rounds
    return metrics


def extra_probes(system: System, checker: Checker, small: Spec, seed: int,
                 budget_s: float) -> dict:
    """``recover.resilient_op_s`` on this system and ``solvers.block8_op_ms``
    on the ``cg_small`` system (whatever the workload).  The checked
    first solve of each doubles as its warm-up."""
    spec = system.spec
    b, x_plain, _ = system.pool[0]
    metrics = {}

    def resilient_solve():
        return repro.solve(system.A, b, eps=spec.eps,
                           protection=ProtectionConfig.resilient(WINDOW))

    result = resilient_solve()
    checker.op(result.converged and relative_gap(result.x, x_plain) <= 1e-9,
               "resilient solve: not converged or > 1e-9 from the plain x")
    metrics["recover.resilient_op_s"] = median(sample(
        resilient_solve, min_reps=3, budget_s=budget_s / 2, warm=False))

    block_system = system if small == spec else System(small, seed)
    columns = [block_system.pool[k % len(block_system.pool)] for k in range(8)]
    B = np.stack([column[0] for column in columns], axis=1)

    def block_solve():
        return repro.solve(block_system.pmat, B, eps=small.eps,
                           protection=block_system.deferred)

    block = block_solve()
    checker.op(bool(np.all(block.converged)) and all(
        relative_gap(block.x[:, k], column[1]) <= 1e-9
        for k, column in enumerate(columns)),
        "blocked 8-RHS solve: not converged or > 1e-9 from the plain x")
    metrics["solvers.block8_op_ms"] = 1e3 * median(sample(
        block_solve, min_reps=3, budget_s=budget_s / 2, warm=False))
    return metrics


def traced_section(system: System, checker: Checker, small: Spec, args, *,
                   rounds_share: float, eager: bool = False,
                   ops_per_round: int | None = None):
    """What every workload's traced run measures in-process on its system:
    the layer probes, the two extra probes, and interleaved plain /
    protected / traced (/ eager) rounds for ``rounds_share`` of the run.
    Returns ``(metrics, rounds, tracer)``."""
    spec, seconds = system.spec, args.seconds
    metrics = layer_probes(checker, system.A, spec.grid, spec.dt,
                           budget_s=0.15 * seconds)
    metrics.update(extra_probes(system, checker, small, args.seed,
                                budget_s=0.10 * seconds))
    rounds, ops, tracer = run_inproc(
        system, checker, seconds=rounds_share * seconds, traced=True,
        expect_iters=args.expect_iters, eager=eager, ops_per_round=ops_per_round)
    metrics.update(inproc_layer_metrics(system, rounds, ops, tracer))
    return metrics, rounds, tracer


# ---------------------------------------------------------------------------
# the cg_large / cg_small workloads
# ---------------------------------------------------------------------------
def run(spec: Spec, small: Spec, args, checker: Checker) -> dict:
    """One run of ``cg_large`` or ``cg_small``; returns metric -> value."""
    system = System(spec, args.seed)
    seconds = args.seconds
    if not args.trace:
        # >= 25 fresh encodes where one takes a millisecond, >= 7 anywhere.
        metrics = {"setup_s": measure_setup(
            system, min_reps=25 if spec.grid < 100 else 7, budget_s=0.06 * seconds)}
        rounds, _, _ = run_inproc(system, checker, seconds=0.94 * seconds,
                                  traced=False, expect_iters=args.expect_iters,
                                  eager=False)
        metrics["plain_op_s"] = rounds.value("plain")
        metrics["protected_op_s"] = rounds.value("protected")
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["_rounds"] = rounds.rounds
        metrics["_ref_op_s"] = median(rounds.ref.samples)
    else:
        metrics, rounds, tracer = traced_section(system, checker, small, args,
                                                 rounds_share=0.75, eager=True)
        metrics["eager_op_s"] = rounds.value("eager")
        metrics["protect.overhead_x"] = rounds.paired_ratio("protected", "plain")
        metrics["protect.eager_overhead_x"] = rounds.paired_ratio("eager", "plain")
        if len(rounds.pooled["protected"]) >= 200:
            metrics["p95_op_s"] = p95(rounds.pooled["protected"])
        else:
            checker.note(f"p95_op_s: {len(rounds.pooled['protected'])} protected "
                         "samples (< 200); reported as 0")
        metrics["_p95_samples"] = len(rounds.pooled["protected"])
        if args.trace_out:
            tracer.dump(args.trace_out)
    # After peak_rss_mb is read: the probe's eager solves are not the workload.
    guarantee_probe(checker, system.A, system.pool[0][0], spec.eps)
    return metrics
