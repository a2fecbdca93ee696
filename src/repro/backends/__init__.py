"""Pluggable extension backends: where the database extension ``E`` lives.

The reverse-engineering method only ever talks to the extension through
four counting/checking primitives plus row scans and inserts
(:class:`~repro.backends.base.ExtensionBackend`).  Two
implementations ship with the reproduction:

- :class:`~repro.backends.memory.MemoryBackend` — the original
  in-process engine (typed :class:`Table` rows, algebra-module
  primitives, distinct-value caching);
- :class:`~repro.backends.sqlite.SQLiteBackend` — pushes every
  primitive down to SQLite as SQL, with per-relation statement caching
  and version-guarded result invalidation; on a ``.db`` file it is
  also the out-of-core store.

Backends register themselves in :mod:`repro.backends.registry`
(name → factory); the CLI's ``--backend`` choices, the contract suite,
and the differential harness discover them there
(:func:`backend_names` / :func:`create_backend`).

:func:`~repro.backends.introspect.open_sqlite` opens an existing ``.db``
file, reading the paper's ``K``/``N`` input sets straight from SQLite's
data dictionary (``PRAGMA table_info`` / ``index_list``).

See ``docs/BACKENDS.md`` for the protocol, the pushdown SQL and the
dictionary mapping.
"""

from repro.backends.base import ExtensionBackend
from repro.backends.memory import MemoryBackend
from repro.backends.registry import (
    backend_factory,
    backend_names,
    create_backend,
    register_backend,
)
from repro.backends.sqlite import SQLiteBackend
from repro.backends.introspect import (
    dtype_from_declared,
    introspect_schema,
    open_sqlite,
)

register_backend("memory", MemoryBackend)
register_backend("sqlite", SQLiteBackend)

__all__ = [
    "ExtensionBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "backend_factory",
    "backend_names",
    "create_backend",
    "dtype_from_declared",
    "introspect_schema",
    "open_sqlite",
    "register_backend",
]
