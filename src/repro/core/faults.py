"""Named fault points: zero-cost no-ops unless a test harness arms them.

Production modules call :func:`fault_point` at the places where real
deployments fail — a columnar scan, a WAL fsync, a snapshot write, a
gateway dispatch.  The call is a dict lookup
guarded by a single ``is None`` check, so the unarmed serving path pays
one branch per site and nothing else.

Arming lives in :mod:`repro.testing.faults` — a package production code
is forbidden (archcheck rule T001) from importing, so the only way a
fault can fire in a process is for test/bench code to have armed it
explicitly.  This module deliberately knows nothing about *what* a
handler does: it receives the site name plus keyword context (paths)
and may raise, sleep, or mutate state.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

FaultHandler = Callable[..., None]

#: ``None`` means "nothing armed" — the common case, checked first.
_active: dict[str, FaultHandler] | None = None


def fault_point(name: str, **info: Any) -> None:
    """Fire the handler armed for *name*, if any.

    The no-handler path is a single ``is None`` test; with handlers
    armed but not for *name*, one dict lookup.  A handler may raise
    (the site's natural failure mode), sleep (hang/slowness), or touch
    the context it was handed.
    """
    if _active is None:
        return
    handler = _active.get(name)
    if handler is not None:
        handler(name, **info)


def install(handlers: Mapping[str, FaultHandler] | None) -> None:
    """Replace the armed handler table (``None`` disarms everything).

    Only :mod:`repro.testing.faults` should call this; it is module-level
    state, so callers are responsible for disarming in a ``finally``.
    """
    global _active
    _active = dict(handlers) if handlers else None


def armed() -> tuple[str, ...]:
    """The currently armed fault-point names (empty when disarmed)."""
    return tuple(sorted(_active)) if _active else ()
