"""``python -m repro.serve``: run a solve server from the command line."""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.serve.service import ServeConfig


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the server flags (shared with ``repro serve``)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks a free one, printed on start)")
    parser.add_argument("--journal", default=None,
                        help="job journal JSONL path; reopening it resumes "
                             "in-flight jobs (omit for a memory-only server)")
    parser.add_argument("--workers", type=int, default=1,
                        help="executor width per batch dispatch (<=1 solves "
                             "in-process and shares one warm cache)")
    parser.add_argument("--batch-window", type=float, default=0.01,
                        help="seconds to coalesce same-matrix jobs per batch")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--throttle", type=float, default=0.0,
                        help="artificial seconds per solve (demo/test load shaping)")
    parser.add_argument("--dist-shards", type=int, default=0,
                        help="route large CG jobs to the row-sharded solver "
                             "with this many worker shards (0 disables)")
    parser.add_argument("--dist-threshold", type=int, default=4096,
                        help="row count at which a job counts as large for "
                             "--dist-shards routing")
    parser.add_argument("--max-pending", type=int, default=0,
                        help="admission quota: reject new jobs while this "
                             "many are queued (0 = unlimited)")


def run(args) -> int:
    """Serve until a shutdown op or Ctrl-C."""
    from repro.serve.server import run_server

    config = ServeConfig(
        journal=args.journal, workers=args.workers,
        batch_window=args.batch_window, max_batch=args.max_batch,
        throttle=args.throttle,
        dist_shards=args.dist_shards, dist_threshold=args.dist_threshold,
        max_pending=args.max_pending,
    )
    try:
        asyncio.run(run_server(args.host, args.port, config))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv=None) -> int:
    """Parse arguments and run the server."""
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Batched, journalled, protection-aware solve server",
    )
    add_serve_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
