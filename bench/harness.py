"""Shared measurement plumbing for the bench workloads.

Everything here exists to keep two runs of the same code within a few
percent of each other (see README.md, "Noise protocol"): ops are timed
with the collector off, configurations are interleaved round-robin with
the order reversed every other round, a per-run value is a median over
rounds, and correctness checks between timed ops reuse pre-allocated
scratch so the allocator state the solves see never changes.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.csr.build import five_point_operator

ROOT = Path(__file__).resolve().parent.parent

#: Bench scratch (serve journals) lives inside the checkout, in a
#: git-ignored directory that each run removes again.
WORK_ROOT = ROOT / ".bench_tmp"


# ---------------------------------------------------------------------------
# workload sizes
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload's problem: grid, operator stiffness, tolerance.

    ``iters`` is the recorded iteration count every solve of the
    workload must reproduce (right-hand sides are drawn from the seed
    until they do, see :func:`draw_rhs`); ``None`` records the first
    solve's count instead, which is what the smoke scale does.
    ``iter_slack`` widens the check where one workload solves many
    different matrices (``serve_mix``: 60..62 over a hundred seeds).
    """

    grid: int
    dt: float
    eps: float
    iters: int | None
    n_rhs: int = 1
    ops_per_round: int = 1
    iter_slack: int = 1
    rhs_draws: int = 6


SPECS = {
    "full": {
        "cg_large": Spec(grid=256, dt=16.0, eps=1e-16, iters=163),
        "cg_small": Spec(grid=48, dt=16.0, eps=1e-16, iters=144, n_rhs=8,
                         ops_per_round=10, rhs_draws=96),
        "serve_mix": Spec(grid=64, dt=4.0, eps=1e-12, iters=61, iter_slack=3),
        "dist_2shard": Spec(grid=256, dt=4.0, eps=1e-16, iters=83),
    },
    "smoke": {
        "cg_large": Spec(grid=24, dt=16.0, eps=1e-16, iters=None),
        "cg_small": Spec(grid=12, dt=16.0, eps=1e-16, iters=None, n_rhs=2,
                         ops_per_round=2),
        "serve_mix": Spec(grid=12, dt=4.0, eps=1e-12, iters=None, iter_slack=8),
        "dist_2shard": Spec(grid=16, dt=0.25, eps=1e-14, iters=None),
    },
}

#: The deferred-verification window of the "protected" configuration.
WINDOW = 16


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def build_system(grid: int, dt: float, seed: int):
    """The seeded five-point operator, exactly as the serve layer's
    ``{"kind": "five-point", "grid", "seed", "dt"}`` handle builds it."""
    rng = np.random.default_rng(seed)
    shape = (grid, grid)
    kx = rng.uniform(0.5, 2.0, shape)
    ky = rng.uniform(0.5, 2.0, shape)
    return five_point_operator(grid, grid, kx, ky, dt)


def rhs(n: int, b_seed: int) -> np.ndarray:
    """The seeded right-hand side, as the serve layer's ``{"seed": s}``."""
    return np.random.default_rng(b_seed).standard_normal(n)


def draw_rhs(A, seed: int, eps: float, want_iters: int | None, count: int,
             tries: int):
    """``count`` seeded right-hand sides whose plain CG takes ``want_iters``.

    The iteration count of a random right-hand side wanders by a few
    percent (139..147 on the 48x48 grid), and the driver varies the seed
    from run to run; preferring draws that hit the recorded count keeps
    the work of an op the same across seeds.  ``tries`` draws are made at
    most — a draw costs a plain solve — and when too few hit the count,
    draws one iteration off fill the pool (0.6 % more or less work on
    the rare seed whose matrix favours the neighbouring count).  Returns
    ``(iters, [(b, x, iterations)])`` with ``x`` the plain solution.
    """
    exact, near = [], []
    for k in range(tries):
        b = rhs(A.n_rows, 1_000_003 * seed + k)
        result = repro.solve(A, b, eps=eps)
        if want_iters is None:
            want_iters = result.iterations
        if result.converged and abs(result.iterations - want_iters) <= 1:
            hit = result.iterations == want_iters
            (exact if hit else near).append((b, result.x, result.iterations))
            if len(exact) == count:
                break
    pool = (exact + near)[:count]
    if len(pool) < count:
        raise RuntimeError(
            f"seed {seed}: {len(pool)}/{count} right-hand sides within one "
            f"iteration of the recorded {want_iters} in {tries} draws"
        )
    return want_iters, pool


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
class Checker:
    """Counts ops attempted / failed and collects the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        """Record one op; a failed op contributes no latency sample."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    def note(self, text: str) -> None:
        """A remark for the human-readable output (missing probe, re-run)."""
        self.notes.append(text)


class Residual:
    """True relative residual from a bench-local CSR product.

    The gather and product buffers are allocated once: a check between
    two timed solves must not hand glibc a fresh multi-megabyte block
    (that moved its mmap threshold and slowed every configuration by
    30-60 % while this benchmark was being sized).
    """

    def __init__(self, A):
        self.values = A.values
        self.colidx = A.colidx.astype(np.intp)
        self.starts = A.rowptr[:-1].astype(np.intp)
        self._gather = np.empty(A.nnz, dtype=np.float64)
        self._ax = np.empty(A.n_rows, dtype=np.float64)

    def __call__(self, x: np.ndarray, b: np.ndarray) -> float:
        np.take(x, self.colidx, out=self._gather)
        np.multiply(self._gather, self.values, out=self._gather)
        np.add.reduceat(self._gather, self.starts, out=self._ax)
        np.subtract(b, self._ax, out=self._ax)
        return float(np.linalg.norm(self._ax) / np.linalg.norm(b))


def relative_gap(x: np.ndarray, ref: np.ndarray) -> float:
    """``|x - ref| / |ref|``."""
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def expected_counters(iterations: int, window: int = WINDOW) -> dict:
    """The check counters a ``deferred(window)`` CG of ``iterations`` owes.

    A solve makes ``iterations + 1`` matrix accesses (the residual seed
    plus one per iteration); every ``window``-th, starting with the
    first, is due and runs fused.  The end-of-step sweep adds one full
    check unless the last access was itself due (then it is skipped).
    Vector rounds fall on iterations 0, window, 2*window, ...: the first
    checks the two vectors read so far (x, r), later ones all three, and
    the final sweep all three again.  A "gain" from checking less than
    this fails the run.
    """
    fused = math.ceil((iterations + 1) / window)
    last_due = iterations % window == 0
    return {
        "fused_products": fused,
        "full_checks": fused + (0 if last_due else 1),
        "sweeps_skipped": 1 if last_due else 0,
        "vector_checks": 3 * math.ceil(iterations / window) + 2,
    }


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return dt, out


def median(values) -> float:
    """Median, or 0.0 for no samples (every op of a configuration failed)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p95(values) -> float:
    """95th percentile (nearest rank), or 0.0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    return float(values[max(0, math.ceil(0.95 * len(values)) - 1)])


def sample(fn, *, min_reps: int, budget_s: float, warm: bool = True) -> list[float]:
    """Time ``fn()`` repeatedly: at least ``min_reps`` times, then until
    ``budget_s`` is spent.  One untimed call warms it first unless the
    caller already made one (``warm=False``)."""
    if warm:
        fn()
    out = []
    stop = time.perf_counter() + budget_s
    while len(out) < min_reps or (time.perf_counter() < stop and len(out) < 2000):
        dt, _ = timed(fn)
        out.append(dt)
    return out


class RefOp:
    """A fixed numpy kernel that imports nothing from ``repro``.

    Timed once per round next to the solves, it says whether the box was
    quiet; it is reported, never divided into another metric.
    """

    def __init__(self):
        rng = np.random.default_rng(20170905)
        self.a = rng.standard_normal(1 << 18)
        self.b = rng.standard_normal(1 << 18)
        self.c = np.empty_like(self.a)
        self.samples: list[float] = []

    def __call__(self) -> None:
        dt, _ = timed(self._kernel)
        self.samples.append(dt)

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(8):
            np.multiply(self.a, self.b, out=self.c)
            acc += float(np.dot(self.a, self.c))
        return acc


class Rounds:
    """Interleaved, order-reversing rounds of named configurations.

    ``configs`` maps a name to ``op(i) -> seconds | None`` (``None``: the
    op failed and leaves no sample).  A round runs ``ops_per_round`` ops
    of each configuration (``ops_in_round[name]`` overrides that for
    one); ``every[name] = k`` runs a configuration on every k-th round
    only.  ``per_round[name]`` maps a round to the median of its ops,
    ``pooled[name]`` holds every op.
    """

    def __init__(self, configs: dict, *, ops_per_round: int = 1,
                 ops_in_round: dict | None = None, every: dict | None = None,
                 ref: RefOp | None = None):
        self.configs = configs
        self.ops_per_round = ops_per_round
        self.ops_in_round = ops_in_round or {}
        self.every = every or {}
        self.ref = ref
        self.per_round = {name: {} for name in configs}
        self.pooled = {name: [] for name in configs}
        self.rounds = 0
        self._calls = {name: 0 for name in configs}

    def _ops(self, name: str, count: int) -> list[float]:
        times = []
        for _ in range(count):
            dt = self.configs[name](self._calls[name])
            self._calls[name] += 1
            if dt is not None:
                times.append(dt)
        return times

    def warm_up(self, ops: int = 2) -> None:
        """Warm-up ops per configuration (at most a round's worth): their
        times are dropped, their checks still count."""
        for name in self.configs:
            self._ops(name, min(ops, self.ops_in_round.get(name, ops)))

    def run(self, deadline: float, min_rounds: int) -> None:
        """Rounds until the next one would overrun ``deadline``."""
        longest = 0.0
        while self.rounds < min_rounds or time.perf_counter() + longest <= deadline:
            started = time.perf_counter()
            order = [name for name in self.configs
                     if self.rounds % self.every.get(name, 1) == 0]
            if self.rounds % 2:
                order.reverse()
            for name in order:
                times = self._ops(name, self.ops_in_round.get(name, self.ops_per_round))
                if times:
                    self.per_round[name][self.rounds] = median(times)
                    self.pooled[name].extend(times)
            if self.ref is not None:
                self.ref()
            gc.collect()
            self.rounds += 1
            # The longest round so far: one that skipped a slow every-other
            # configuration must not let the next, full one overrun.
            longest = max(longest, time.perf_counter() - started)

    def value(self, name: str) -> float:
        """The per-run value: median over rounds."""
        return median(self.per_round[name].values())

    def paired_ratio(self, num: str, den: str) -> float:
        """Median of per-round ``num / den`` over the rounds that ran both."""
        nums, dens = self.per_round[num], self.per_round[den]
        return median(nums[rnd] / dens[rnd] for rnd in nums if rnd in dens)


# ---------------------------------------------------------------------------
# process-level
# ---------------------------------------------------------------------------
def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process in MB (+ the largest reaped child)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
