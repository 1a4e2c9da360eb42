"""The one codec for what dataeff writes, JSON, CSV and aligned text, and its file reader.

Every table goes out through csv_text as CSV or through text_table as aligned columns.
dumps() writes dataclasses as objects of their fields in declaration order,
leaving out a field whose value and default are both None, and any other
sequence, such as a Manifest's lazy rows, as an array. from_dict() checks
decoded JSON against the type hints: a missing or ill-typed key raises
InputError naming the source and key path, e.g. ``ledger.json:
entries[3].seed: expected int, got str``. Unknown keys are ignored,
float fields accept integers, and a bool is never a number.

Every input file is read under one rule, by read_lines one line at a time or
by read_text whole: UTF-8, a leading byte-order mark skipped, and a byte that
is not UTF-8 raises ``PATH:LINE: not UTF-8: ...``.

replace_file writes the ledger and the corpus cache, which no reader may see half written.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import os
import types
import typing
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress

from .errors import DataEffError, InputError

_JSON_NAMES = {dict: "object", list: "array", type(None): "null"}


class _Mismatch(Exception):
    """A value that does not fit its type; path collects keys innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list[str] = []


def _expected(what: str, value) -> _Mismatch:
    return _Mismatch(f"expected {what}, got {_JSON_NAMES.get(type(value), type(value).__name__)}")


def _fields(obj) -> dict | list:
    if isinstance(obj, Sequence):  # not a list, tuple or str: a Manifest's lazy rows
        return list(obj)
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    pairs = ((f, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {f.name: value for f, value in pairs if value is not None or f.default is not None}


def dumps(obj) -> str:
    """JSON text of obj: each dataclass an object of its fields, any sequence an array.

    A NaN or infinite float raises ValueError: JSON has no such numbers.
    """
    return json.dumps(obj, default=_fields, allow_nan=False)


def csv_text(rows) -> str:
    """CSV of rows, lines ending in ``\n``; a cell with a comma, quote or line break is quoted."""
    import csv  # here, not at the top, so that query never loads it
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def text_table(rows, rule: bool = False) -> str:
    """Rows of str cells in columns two spaces apart, each line right-stripped;
    rule puts a dashed line under the first row, the header."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows = [rows[0], ["-" * width for width in widths], *rows[1:]] if rule else rows
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows)


def read_lines(path, error: type[InputError] = InputError,
               digest=None) -> Iterator[tuple[int, str]]:
    """Number and text of each line of a UTF-8 file, read one line at a time.

    A line ends at ``\n`` or ``\r\n`` only, and its end is stripped.
    ``str.splitlines`` would also split at U+2028, U+0085, ``\v``, ``\f`` and
    more, which may appear inside an utterance or a JSON string. A leading
    byte-order mark is skipped. A line that is not UTF-8 raises error naming
    the file and the line. A digest, if given, is updated with each line's
    bytes as they are read.
    """
    encoding = "utf-8-sig"  # only line 1 may start with the byte-order mark
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if digest is not None:
                digest.update(line)
            try:
                text = line.decode(encoding)
            except UnicodeDecodeError as exc:
                raise error(f"not UTF-8: {exc}", path, lineno) from None
            encoding = "utf-8"
            yield lineno, text[:-1].removesuffix("\r") if text[-1:] == "\n" else text


def read_text(path) -> str:
    """The text of a UTF-8 file, checked as read_lines checks it, in one read. Line ends
    stay as they are: JSON reads ``\r`` as space, and csv, given newline="", ends a row at any."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        for _ in read_lines(path):  # raises naming the line that holds the bad byte
            pass
        raise
    return text


def replace_file(path, chunks: Iterable[bytes], mode: int = 0o666) -> None:
    """Write the byte chunks to path whole or not at all: into a new file PATH.RANDOM.tmp,
    made with mode less the umask, then renamed onto path, or removed if anything fails.
    A path that exists and is not a regular file, a symlink too, raises OSError naming it."""
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        raise OSError(f"{os.fspath(path)}: not a regular file; the rename would replace it")
    temp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    handle = open(temp, "xb", opener=lambda name, flags: os.open(name, flags, mode))
    try:  # "x" made temp, so it is this call's own to remove
        with handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    finally:
        with suppress(OSError):
            os.unlink(temp)


def _not_json(name: str):
    raise ValueError(f"{name} is not a JSON number")


def loads(text: str, source: str):
    """json.loads that reports malformed text as InputError naming the source.

    The NaN, Infinity and -Infinity that json.loads accepts are malformed too.
    """
    try:
        return json.loads(text, parse_constant=_not_json)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise InputError(f"{source}: invalid JSON: {exc}") from exc


def from_dict(tp, obj, source: str):
    """Decoded JSON obj converted to type tp; InputError names source and key path."""
    try:
        return _converter(tp)(obj)
    except _Mismatch as exc:
        path = "".join(p if p[0] == "[" else "." + p for p in reversed(exc.path)).lstrip(".")
        raise InputError(f"{source}: {path + ': ' if path else ''}{exc}") from None


def _scalar(tp):
    def convert(value):
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            return float(value)
        raise _expected(tp.__name__, value)

    return convert


def _array(container, items, length=None):
    """Array converter: items is one converter per position, or repeat() of one."""

    def convert(value):
        if type(value) is not list:
            raise _expected("array", value)
        if length is not None and len(value) != length:
            raise _Mismatch(f"expected {length} items, got {len(value)}")
        out = []
        try:
            for item, element in zip(items, value):
                out.append(item(element))
        except _Mismatch as exc:
            exc.path.append(f"[{len(out)}]")
            raise
        return out if container is list else tuple(out)

    return convert


def _record(cls):
    hints = typing.get_type_hints(cls)
    # A key may be left out only when its field has a plain default value.
    fields = [(f.name, _converter(hints[f.name]), f.default is dataclasses.MISSING)
              for f in dataclasses.fields(cls)]

    def convert(value):
        if type(value) is not dict:
            raise _expected("object", value)
        kwargs = {}
        for name, field_converter, required in fields:
            try:
                if name in value:
                    kwargs[name] = field_converter(value[name])
                elif required:
                    raise _Mismatch("missing")
            except _Mismatch as exc:
                exc.path.append(name)
                raise
        try:
            return cls(**kwargs)
        except DataEffError as exc:  # the class's own value checks
            raise _Mismatch(str(exc)) from exc

    return convert


@functools.cache
def _converter(tp):
    if dataclasses.is_dataclass(tp):
        return _record(tp)
    if tp in (int, float, str, bool):
        return _scalar(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        inner = _converter(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        return _array(origin, itertools.repeat(_converter(args[0])))
    if origin is not tuple:
        raise TypeError(f"no JSON converter for {tp!r}")
    return _array(tuple, [_converter(a) for a in args], len(args))
