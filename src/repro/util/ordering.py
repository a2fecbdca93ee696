"""Deterministic ordering helpers.

Every algorithm in the paper is stated over *sets*; to make runs
reproducible (the same schema in always produces the same schema out, with
the same names) the library iterates those sets in a stable order.  These
helpers centralize the sort keys.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Generic, Iterable, List, Set, Tuple, TypeVar

T = TypeVar("T")


def stable_sorted(items: Iterable[T]) -> List[T]:
    """Sort by ``repr`` as a last-resort total order for heterogeneous items.

    Used only where elements do not carry their own sort key; all core
    classes define ``sort_key()`` and should be sorted with that instead.
    """
    return sorted(items, key=repr)


def attr_sort_key(qualified: Tuple[str, Tuple[str, ...]]) -> Tuple[str, Tuple[str, ...]]:
    """Sort key for (relation name, attribute tuple) pairs."""
    relation, attrs = qualified
    return (relation, tuple(attrs))


class SortedUnion(Generic[T]):
    """The paper's ``⊔`` over a list kept sorted by ``sort_key()``.

    Wraps *items*, which must already be sorted by ``sort_key()`` and
    duplicate-free, and mutates it in place.  Membership is a hash
    lookup and the insertion point a bisection over the cached keys, so
    n additions cost O(n log n) key comparisons where a list scan costs
    O(n²) ``__eq__`` calls.  The list ends up exactly as "append if
    absent, then stable-sort by ``sort_key()``" leaves it.
    """

    __slots__ = ("items", "_keys", "_members")

    def __init__(self, items: List[T]) -> None:
        self.items = items
        self._keys: List[Any] = [item.sort_key() for item in items]
        self._members: Set[T] = set(items)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    def add(self, item: T) -> None:
        """Insert *item* unless an equal element is present."""
        if item in self._members:
            return
        key = item.sort_key()
        # after every element with an equal key, as a stable sort would
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self.items.insert(index, item)
        self._members.add(item)

    def discard(self, item: T) -> None:
        """Remove the element equal to *item*, if there is one."""
        if item not in self._members:
            return
        index = bisect_left(self._keys, item.sort_key())
        while self.items[index] != item:  # unequal elements sharing a key
            index += 1
        del self._keys[index]
        del self.items[index]
        self._members.discard(item)
