"""Lock instrumentation hooks: the runtime sanitizer's zero-cost seam.

Every lock-owning module creates its locks through :func:`wrap_lock`
and annotates its shared-structure accesses with :func:`note_read` /
:func:`note_write`.  With no sanitizer installed (the default) each
hook is a single ``is None`` check — ``wrap_lock`` hands back the raw
lock object untouched, so the off path is bit-identical to a build
without the hooks.

The sanitizer itself lives in
:mod:`repro.analysis.concurrency.sanitizer`; it cannot be imported
from here (``repro.analysis`` transitively imports ``repro.core``,
which imports this module), so this seam is deliberately a leaf:
stdlib-only, and the observer is *installed* into it at activation
time.  ``SVQA_SANITIZE=1`` in the environment installs a default
sanitizer lazily on the first ``wrap_lock`` call, which lets the
existing concurrency stress suites run fully instrumented without
touching any call site.
"""

from __future__ import annotations

import threading
from typing import Any, Protocol


class LockObserver(Protocol):
    """What an installed sanitizer must provide (duck-typed)."""

    def wrap(self, lock: Any, name: str) -> Any:
        """Return an instrumented stand-in for ``lock``."""

    def note_access(self, structure: str, key: object,
                    write: bool) -> None:
        """One read (``write=False``) or write of a shared location."""

    def note_fork(self) -> None:
        """The calling thread is about to start worker threads."""

    def note_join(self) -> None:
        """The calling thread joined every worker it forked."""


_active: LockObserver | None = None
_install_lock = threading.Lock()
_env_checked = False


def _maybe_env_activate() -> None:
    """Install a default sanitizer once if ``SVQA_SANITIZE`` is set."""
    global _env_checked, _active
    with _install_lock:
        if _env_checked or _active is not None:
            _env_checked = True
            return
        _env_checked = True
        import os

        flag = os.environ.get("SVQA_SANITIZE", "").strip().lower()
        if flag in ("", "0", "false", "no", "off"):
            return
        from repro.analysis.concurrency.sanitizer import (
            Sanitizer,
            SanitizerConfig,
        )

        _active = Sanitizer(SanitizerConfig.from_env())


def install(observer: LockObserver) -> None:
    """Make ``observer`` the process-wide active sanitizer."""
    global _active, _env_checked
    with _install_lock:
        if _active is not None and _active is not observer:
            raise RuntimeError("a lock observer is already installed")
        _active = observer
        _env_checked = True


def uninstall(observer: LockObserver) -> None:
    """Deactivate ``observer`` (no-op if it is not the active one)."""
    global _active
    with _install_lock:
        if _active is observer:
            _active = None


def current() -> LockObserver | None:
    """The active sanitizer, or ``None``."""
    return _active


def wrap_lock(lock: Any, name: str) -> Any:
    """Instrument ``lock`` under the active sanitizer, else return it.

    ``name`` is the lock's *role* (``"cache.scope"``,
    ``"serve.bridge"``, ...): the runtime lock-order graph is built
    over roles, so reports stay small and deterministic across
    instance counts.
    """
    if _active is None and not _env_checked:
        _maybe_env_activate()
    if _active is None:
        return lock
    return _active.wrap(lock, name)


def note_read(structure: str, key: object = None) -> None:
    """Annotate one read of a shared location (no-op when inactive)."""
    if _active is not None:
        _active.note_access(structure, key, write=False)


def note_write(structure: str, key: object = None) -> None:
    """Annotate one write of a shared location (no-op when inactive)."""
    if _active is not None:
        _active.note_access(structure, key, write=True)


def note_fork() -> None:
    """Annotate a fork point: worker threads inherit the caller's
    happens-before frontier (no-op when inactive)."""
    if _active is not None:
        _active.note_fork()


def note_join() -> None:
    """Annotate a join point: the caller inherits every worker's
    happens-before frontier (no-op when inactive)."""
    if _active is not None:
        _active.note_join()


__all__ = [
    "LockObserver",
    "current",
    "install",
    "note_fork",
    "note_join",
    "note_read",
    "note_write",
    "uninstall",
    "wrap_lock",
]
