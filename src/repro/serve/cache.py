"""Encoded-matrix cache and warm session pool: encode once, serve thousands.

PR 3 made encoded matrices genuinely reusable objects — persistent lane
buffers, cached clean views, a validated index snapshot — so the single
most expensive step of a protected solve (ECC-encoding the CSR regions)
is worth paying exactly once per matrix content.  The service keys both
caches by the matrix handle's content hash:

* :class:`MatrixCache` holds raw CSR builds and their encoded
  (``ProtectedCSRMatrix``) forms, counting encodes vs hits — the
  "encode once" claim is asserted, not assumed (tests pin the counter);
* :class:`SessionPool` holds warm :class:`~repro.protect.session.ProtectionSession`
  objects keyed by (matrix, protection config), so consecutive batches
  against the same system reuse one deferred-verification engine and
  its schedule instead of rebuilding them per solve.

Both are bounded FIFO caches (oldest entry evicted), sized for a serving
process that sees a rotating working set of systems.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.protect.config import _solve_config
from repro.protect.session import ProtectionSession
from repro.serve.jobs import build_matrix, matrix_key, protection_canonical, protection_from_spec


class MatrixCache:
    """Content-hash keyed cache of raw and encoded matrices.

    ``max_entries`` bounds each of the two maps independently; eviction
    is insertion-ordered (FIFO), which for a solve service approximates
    LRU well enough — hot matrices are re-inserted on re-encode only,
    and an evicted entry costs one re-encode, never correctness.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = int(max_entries)
        self._raw: OrderedDict[str, object] = OrderedDict()
        self._encoded: OrderedDict[tuple[str, str], object] = OrderedDict()
        self.stats = {"builds": 0, "encodes": 0, "hits": 0, "invalidations": 0}

    def _trim(self, table: OrderedDict) -> None:
        while len(table) > self.max_entries:
            table.popitem(last=False)

    def raw(self, matrix_spec: dict):
        """The materialised CSR matrix for a handle (built once)."""
        key = matrix_key(matrix_spec)
        if key not in self._raw:
            self._raw[key] = build_matrix(matrix_spec)
            self.stats["builds"] += 1
            self._trim(self._raw)
        return self._raw[key]

    def encoded(self, matrix_spec: dict, protection_spec):
        """The ECC-encoded matrix for (handle, protection), encoded once.

        Returns ``None`` when the protection spec carries no matrix
        redundancy (nothing to encode — the plain path).
        """
        config = protection_from_spec(protection_spec)
        if config is None or not config.protects_matrix:
            return None
        key = (matrix_key(matrix_spec), protection_canonical(protection_spec))
        if key in self._encoded:
            self.stats["hits"] += 1
            return self._encoded[key]
        self._encoded[key] = config.wrap_matrix(self.raw(matrix_spec))
        self.stats["encodes"] += 1
        self._trim(self._encoded)
        return self._encoded[key]

    def invalidate(self, matrix_spec: dict, protection_spec) -> None:
        """Drop an encoded matrix whose integrity is no longer trusted.

        Called after a solve aborts on a DUE under a non-escalating
        policy: the encoded storage may retain the detected corruption,
        so the next batch re-encodes from the (pristine) raw build.
        """
        key = (matrix_key(matrix_spec), protection_canonical(protection_spec))
        if self._encoded.pop(key, None) is not None:
            self.stats["invalidations"] += 1


class SessionPool:
    """Warm :class:`ProtectionSession` objects keyed by (matrix, config).

    A session is the unit that amortises verification *across* solves:
    reusing one per (matrix, protection) pair means batch k+1 inherits
    batch k's engine schedule instead of restarting the check phase.
    Unprotected specs get an :meth:`~repro.protect.config.ProtectionConfig.off`
    session, so every job runs through one.
    """

    def __init__(self, max_entries: int = 16):
        self.max_entries = int(max_entries)
        self._sessions: OrderedDict[tuple[str, str], ProtectionSession] = OrderedDict()
        self.stats = {"created": 0, "reused": 0}

    def get(self, matrix_spec: dict, protection_spec) -> ProtectionSession:
        """The warm session for this (matrix, protection) pair, minting on miss."""
        key = (matrix_key(matrix_spec), protection_canonical(protection_spec))
        if key in self._sessions:
            self.stats["reused"] += 1
            self._sessions.move_to_end(key)
            return self._sessions[key]
        session = ProtectionSession(_solve_config(protection_from_spec(protection_spec)))
        self._sessions[key] = session
        self.stats["created"] += 1
        while len(self._sessions) > self.max_entries:
            stale_key, stale = self._sessions.popitem(last=False)
            stale.end_step()  # owed mandatory sweep before retirement
        return session

    def drop(self, matrix_spec: dict, protection_spec) -> None:
        """Forget a session whose window died with an integrity error."""
        key = (matrix_key(matrix_spec), protection_canonical(protection_spec))
        self._sessions.pop(key, None)
