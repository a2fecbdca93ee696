"""The backend registry: name → factory, shared by every entry point.

The CLI's ``--backend`` choices, the contract suite's parametrization,
and the differential harness all discover backends here instead of
hard-coding the list, so a new :class:`~repro.backends.base.
ExtensionBackend` becomes reachable everywhere with one
:func:`register_backend` call.

A factory is any zero-or-keyword-argument callable returning a fresh
backend; construction options (``path="legacy.db"`` for SQLite) pass through
:func:`create_backend` as keyword arguments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.exceptions import ReproError

__all__ = [
    "backend_factory",
    "backend_names",
    "create_backend",
    "register_backend",
]

_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_backend(name: str, factory: Callable[..., Any]) -> None:
    """Make *factory* available everywhere under *name*.

    Re-registering a name replaces its factory (tests swap in doubles);
    names are case-sensitive and should match the backend's ``kind``.
    """
    _REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_REGISTRY)


def backend_factory(name: str) -> Callable[..., Any]:
    """The factory registered under *name*, or a one-line error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ReproError(
            f"unknown backend: {name!r} (registered backends: {known})"
        ) from None


def create_backend(name: str, **options: Any) -> Any:
    """A fresh backend instance of *name*, built with *options*."""
    return backend_factory(name)(**options)
