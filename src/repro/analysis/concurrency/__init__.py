"""Concurrency correctness tooling: static lock-order analysis
(RP008–RP011 project rules over a whole-tree lock acquisition graph)
plus the deterministic runtime lock/race sanitizer installed through
the :mod:`repro.locks` hook seam."""

from repro.analysis.concurrency.lockgraph import (
    Acquisition,
    BlockingCall,
    LockId,
    LockOrderAnalysis,
    OrderEdge,
    Publication,
    extract_module,
)
from repro.analysis.concurrency.rules import (
    BlockingUnderLockRule,
    DispatchUnderLockRule,
    LockOrderInversionRule,
    LockPublicationRule,
    ProjectRule,
)
from repro.analysis.concurrency.sanitizer import (
    SanitizedLock,
    Sanitizer,
    SanitizerConfig,
    SanitizerFinding,
    SanitizerReport,
)

__all__ = [
    "Acquisition",
    "BlockingCall",
    "BlockingUnderLockRule",
    "DispatchUnderLockRule",
    "LockId",
    "LockOrderAnalysis",
    "LockOrderInversionRule",
    "LockPublicationRule",
    "OrderEdge",
    "ProjectRule",
    "Publication",
    "SanitizedLock",
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerFinding",
    "SanitizerReport",
    "extract_module",
]
