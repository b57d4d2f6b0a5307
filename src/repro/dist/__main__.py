"""``python -m repro.dist``: one sharded solve, verified against reference.

The smoke driver CI leans on: builds the campaign's randomised
five-point system, solves it distributed (optionally terminating a shard
mid-solve to exercise the recovery path), solves it again in-process,
and exits non-zero unless the sharded solution matches the reference —
so "kill a worker, still converge to the right answer" is a single shell
command.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def add_dist_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the distributed-solve flags (shared with ``repro dist``)."""
    parser.add_argument("--grid", type=int, default=16,
                        help="five-point grid side (n = grid**2 unknowns)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker-process count")
    parser.add_argument("--scheme", default="secded64",
                        help="per-shard ECC scheme, or 'none' for "
                             "unprotected shards")
    parser.add_argument("--interval", type=int, default=4,
                        help="per-shard check interval (deferred engine)")
    parser.add_argument("--recovery", default="rollback",
                        choices=["raise", "repopulate", "rollback", "erasure"],
                        help="shard-death / DUE policy")
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--erasure-shards", type=int, default=1,
                        help="checksum shards kept by --recovery erasure")
    parser.add_argument("--kill-iter", type=int, default=None,
                        help="terminate a shard at this iteration "
                             "(omit for a fault-free run)")
    parser.add_argument("--kill-shard", type=int, default=None,
                        help="which shard to kill (default: the last one)")
    parser.add_argument("--round-timeout", type=float, default=None,
                        help="seconds before an unresponsive shard is "
                             "declared dead (default: the exchange "
                             "layer's 120 s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps", type=float, default=1e-20)
    parser.add_argument("--max-iters", type=int, default=10_000)
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="max-abs mismatch vs the reference that "
                             "still counts as success")


def run(args) -> int:
    """Execute one verified distributed solve; 0 on match, 1 otherwise."""
    from repro.csr.build import five_point_operator
    from repro.dist.exchange import DEFAULT_ROUND_TIMEOUT
    from repro.dist.solve import distributed_solve
    from repro.protect.config import ProtectionConfig
    from repro.recover.policy import RecoveryPolicy
    from repro.solvers.registry import solve

    rng = np.random.default_rng(args.seed)
    shape = (args.grid, args.grid)
    matrix = five_point_operator(
        args.grid, args.grid,
        rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape), 0.3,
    )
    b = rng.standard_normal(matrix.n_rows)

    protection = None
    if args.scheme != "none" or args.recovery != "raise":
        scheme = None if args.scheme == "none" else args.scheme
        protection = ProtectionConfig(
            element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=scheme,
            interval=0 if scheme is None else args.interval,
            correct=False,
            recovery=RecoveryPolicy(strategy=args.recovery,
                                    max_retries=args.max_retries,
                                    erasure_shards=args.erasure_shards),
        )
    kill_plan = None
    if args.kill_iter is not None:
        kill_shard = (args.kill_shard if args.kill_shard is not None
                      else args.shards - 1)
        kill_plan = [(args.kill_iter, kill_shard)]

    result = distributed_solve(
        matrix, b, n_shards=args.shards, protection=protection,
        eps=args.eps, max_iters=args.max_iters, kill_plan=kill_plan,
        round_timeout=(DEFAULT_ROUND_TIMEOUT if args.round_timeout is None
                       else args.round_timeout),
    )
    reference = solve(matrix, b, method="cg", eps=args.eps,
                      max_iters=args.max_iters)
    mismatch = float(np.max(np.abs(result.x - reference.x)))
    stats = result.info["distributed"]
    extra = (f" + {stats['erasure_shards']} erasure"
             if stats["erasure_shards"] else "")
    print(f"distributed cg: {stats['n_shards']} shards{extra}, "
          f"{result.iterations} iters, converged={result.converged}, "
          f"residual {result.final_residual:.3e}, "
          f"{stats['rounds']} rounds, boot {stats['boot_s']:.3f} s, "
          f"wait {stats['wait_s']:.3f} s, {stats['spawned']} spawned")
    print(f"recovery: {stats['deaths']} death(s), {stats['respawns']} "
          f"respawn(s), {stats['restarts']} DUE restart(s), "
          f"{stats['checkpoints']} checkpoint(s), "
          f"{stats['reconstructions']} reconstruction(s), "
          f"policy {stats['recovery']}")
    print(f"max |x_dist - x_ref| = {mismatch:.3e} (tol {args.tol:.1e})")
    if not result.converged or mismatch > args.tol:
        print("FAIL: distributed solution does not match the reference")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    """Parse arguments and run the verified smoke solve."""
    parser = argparse.ArgumentParser(
        prog="repro.dist",
        description="Row-sharded protected CG with shard-death recovery",
    )
    add_dist_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
