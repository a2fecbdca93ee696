"""The thin instrumentation wrapper between Database and backend.

Backend code stays clean: neither :class:`MemoryBackend` nor
:class:`SQLiteBackend` knows the tracer exists.  The
:class:`~repro.relational.database.Database` routes its four counting
primitives through an :class:`InstrumentedBackend`, which

1. asks the backend's :meth:`probe` observability hook whether the call
   will be served from a cache and how many stored rows a cold
   evaluation would scan,
2. times the delegated call on the tracer's clock, and
3. records one :class:`~repro.obs.tracer.PrimitiveEvent` on the tracer.

Every other attribute access falls through to the wrapped backend
(``__getattr__``), so lifecycle, row access and backend-specific
introspection (``connection``, private caches) behave exactly as if the
wrapper were not there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Tuple

from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import ExtensionBackend

__all__ = ["InstrumentedBackend"]


class InstrumentedBackend:
    """Delegates to a backend; emits one event per counting primitive."""

    def __init__(self, inner: "ExtensionBackend", tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._kind = getattr(inner, "kind", type(inner).__name__)

    @property
    def inner(self) -> "ExtensionBackend":
        """The wrapped backend."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    # ------------------------------------------------------------------
    # the four instrumented primitives
    # ------------------------------------------------------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` with one event recorded."""
        attrs = tuple(attrs)
        return self._timed(
            "count_distinct",
            (relation,),
            (attrs,),
            lambda: self._inner.count_distinct(relation, attrs),
        )

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` with one event recorded."""
        left_attrs, right_attrs = tuple(left_attrs), tuple(right_attrs)
        return self._timed(
            "join_count",
            (left, right),
            (left_attrs, right_attrs),
            lambda: self._inner.join_count(left, left_attrs, right, right_attrs),
        )

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """FD satisfaction with one event recorded."""
        lhs, rhs = tuple(lhs), tuple(rhs)
        return self._timed(
            "fd_holds",
            (relation,),
            (lhs, rhs),
            lambda: self._inner.fd_holds(relation, lhs, rhs),
        )

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Inclusion test with one event recorded."""
        left_attrs, right_attrs = tuple(left_attrs), tuple(right_attrs)
        return self._timed(
            "inclusion_holds",
            (left, right),
            (left_attrs, right_attrs),
            lambda: self._inner.inclusion_holds(left, left_attrs, right, right_attrs),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _timed(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
        call: Callable[[], Any],
    ) -> Any:
        cache_hit, rows_touched = self._profile(primitive, relations, attributes)
        start = self._tracer.now()
        value = call()
        duration = self._tracer.now() - start
        self._tracer.record_event(
            primitive=primitive,
            backend=self._kind,
            relations=relations,
            attributes=attributes,
            start=start,
            duration=duration,
            cache_hit=cache_hit,
            rows_touched=rows_touched,
        )
        return value

    def _profile(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """(cache hit?, rows a cold evaluation scans) — before the call."""
        probe = getattr(self._inner, "probe", None)
        if probe is None:
            return False, 0
        return probe(primitive, relations, attributes)

    def __repr__(self) -> str:
        return f"InstrumentedBackend({self._inner!r})"
