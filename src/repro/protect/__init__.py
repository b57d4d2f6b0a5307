"""Protected containers and kernels (paper §VI).

The public surface of the paper's contribution:

* :class:`~repro.protect.vector.ProtectedVector` — dense float64 vectors
  with redundancy in mantissa LSBs (Fig. 3);
* :class:`~repro.protect.csr_elements.ProtectedCSRElements` — the
  ``(value, column index)`` pairs with redundancy in index top bits
  (Fig. 1);
* :class:`~repro.protect.row_pointer.ProtectedRowPointer` — the row
  pointer with redundancy in its top bits (Fig. 2);
* :class:`~repro.protect.matrix.ProtectedCSRMatrix` — the full matrix;
* :mod:`repro.protect.codeword_store` — the layout × code table and the
  one :class:`~repro.protect.codeword_store.CodewordStore` every
  container above checks, corrects and encodes through;
* :class:`~repro.protect.policy.CheckPolicy` — less-frequent checking,
  per region;
* :class:`~repro.protect.engine.DeferredVerificationEngine` — dirty
  windows, cached decode-free reads and amortised check scheduling: the
  one scheduler of every matrix check (``interval=1`` checks on every
  access);
* :class:`~repro.protect.config.ProtectionConfig` — the single source of
  truth for what is protected and when it is verified;
* :class:`~repro.protect.session.ProtectionSession` — one engine across
  many solves, with cross-time-step dirty windows;
* :class:`~repro.protect.operator.ProtectedOperator` — a protected CSR
  matrix as a plain operator whose products run through an engine.
"""

from repro.protect.codeword_store import CODEWORD_TABLE, CodewordStore, codeword_row
from repro.protect.vector import ProtectedBlockVector, ProtectedVector
from repro.protect.csr_elements import ProtectedCSRElements
from repro.protect.row_pointer import ProtectedRowPointer
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy, PolicyStats
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.config import ProtectionConfig
from repro.protect.session import ProtectionSession
from repro.protect.coo_elements import ProtectedCOOElements, ProtectedCOOMatrix
from repro.protect.csr64 import ProtectedCSRElements64, ProtectedRowPointer64
from repro.protect.operator import ProtectedOperator

__all__ = [
    "ProtectedOperator",
    "ProtectedCOOElements",
    "ProtectedCOOMatrix",
    "ProtectedCSRElements64",
    "ProtectedRowPointer64",
    "CODEWORD_TABLE",
    "CodewordStore",
    "codeword_row",
    "ProtectedVector",
    "ProtectedBlockVector",
    "ProtectedCSRElements",
    "ProtectedRowPointer",
    "ProtectedCSRMatrix",
    "CheckPolicy",
    "PolicyStats",
    "DeferredVerificationEngine",
    "ProtectionConfig",
    "ProtectionSession",
]
