"""The binary row codec of the paged storage engine.

A stored record is the concatenation of one self-describing value
encoding per attribute, in schema order.  Each value starts with a
one-byte type tag, so decoding needs no schema and a record is exactly
reproducible — the property the differential harness leans on: a value
written through the codec and read back compares equal (by ``==`` *and*
by type) to what :class:`~repro.relational.table.Row` coercion produced
at insert time.

| tag | payload | domain value |
|-----|---------|--------------|
| ``N`` | —                       | NULL |
| ``i`` | 8-byte signed big-endian | ``int`` within ±2^63 |
| ``I`` | u32 length + ASCII decimal | ``int`` beyond 64 bits |
| ``r`` | 8-byte IEEE-754 double   | ``float`` |
| ``f`` / ``t`` | —               | ``False`` / ``True`` |
| ``s`` | u32 length + UTF-8 bytes | ``str`` (TEXT and DATE domains) |

Booleans are tagged before integers (``bool`` is an ``int`` subclass in
Python).  The codec preserves each value's Python type — an ``int`` never
silently becomes a ``float`` across a round trip; widening ints in
REAL-domain columns is the domain's ``coerce``, before a value is
encoded.
"""

from __future__ import annotations

import struct
from typing import Any, List, Sequence, Tuple

from repro.exceptions import StorageError
from repro.relational.domain import NULL, is_null

__all__ = ["encode_row", "decode_row", "encode_value", "decode_value"]

_TAG_NULL = b"N"
_TAG_INT = b"i"
_TAG_BIGINT = b"I"
_TAG_REAL = b"r"
_TAG_FALSE = b"f"
_TAG_TRUE = b"t"
_TAG_TEXT = b"s"

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def encode_value(value: Any) -> bytes:
    """One domain value as its tagged binary form."""
    if is_null(value):
        return _TAG_NULL
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, bool):  # pragma: no cover - covered above
        return _TAG_TRUE if value else _TAG_FALSE
    if isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            return _TAG_INT + _I64.pack(value)
        digits = str(value).encode("ascii")
        return _TAG_BIGINT + _U32.pack(len(digits)) + digits
    if isinstance(value, float):
        return _TAG_REAL + _F64.pack(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _TAG_TEXT + _U32.pack(len(payload)) + payload
    raise StorageError(
        f"cannot encode {type(value).__name__} value {value!r}: "
        f"not a paged-storage domain value"
    )


def decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value at *offset*; returns ``(value, next offset)``."""
    try:
        tag = data[offset:offset + 1]
        if tag == _TAG_NULL:
            return NULL, offset + 1
        if tag == _TAG_TRUE:
            return True, offset + 1
        if tag == _TAG_FALSE:
            return False, offset + 1
        if tag == _TAG_INT:
            (value,) = _I64.unpack_from(data, offset + 1)
            return value, offset + 9
        if tag == _TAG_REAL:
            (value,) = _F64.unpack_from(data, offset + 1)
            return value, offset + 9
        if tag in (_TAG_TEXT, _TAG_BIGINT):
            (length,) = _U32.unpack_from(data, offset + 1)
            start = offset + 5
            payload = data[start:start + length]
            if len(payload) != length:
                raise StorageError(
                    f"truncated record: {length}-byte payload at offset "
                    f"{start}, got {len(payload)}"
                )
            if tag == _TAG_BIGINT:
                return int(payload.decode("ascii")), start + length
            return payload.decode("utf-8"), start + length
    except struct.error as exc:
        raise StorageError(
            f"truncated record at offset {offset}: {exc}"
        ) from None
    raise StorageError(
        f"unknown value tag {tag!r} at offset {offset}: corrupt record"
    )


def encode_row(values: Sequence[Any]) -> bytes:
    """A whole tuple as one record payload (values in schema order)."""
    return b"".join(encode_value(v) for v in values)


def decode_row(data: bytes, arity: int) -> Tuple[Any, ...]:
    """Decode a record payload back into its *arity* values."""
    out: List[Any] = []
    offset = 0
    for _ in range(arity):
        value, offset = decode_value(data, offset)
        out.append(value)
    if offset != len(data):
        raise StorageError(
            f"corrupt record: {len(data) - offset} trailing byte(s) after "
            f"{arity} value(s)"
        )
    return tuple(out)
