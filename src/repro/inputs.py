"""Strict parsing of untrusted input: one toolkit for every boundary.

Everything the program reads from outside — scenario TOML/JSON files,
HTTP request bodies, failure-trace and grid-curve JSONL — goes through
the two steps defined here:

1. *Decoding* text into plain data (:func:`decode_json`,
   :func:`decode_toml`, :func:`read_text`).  Invalid UTF-8, syntax
   errors, over-long integer literals and nesting deeper than
   :data:`MAX_DEPTH` all become one :class:`InputError`.
2. *Reading fields* off a decoded mapping with the closed-key cursor
   :class:`Fields`: each :meth:`~Fields.take` pops one typed value and
   :meth:`~Fields.finish` rejects whatever is left, so a typo fails
   loudly instead of silently running a default.  Number kinds accept
   only finite values, integer kinds reject booleans and fractions,
   and ``null`` counts as absent.

:class:`VersionedJsonl` is the one codec of the repository's versioned
JSON-Lines files (a header naming format, version and record count,
then one record per line), built on the same two steps.

Every error is an :class:`InputError` — or a boundary's subclass of it
— carrying the dotted field path and the reason, so ``str(exc)`` is
the single line the CLI prints (exit 2) and the HTTP API returns as a
400 body.  This module imports nothing from other ``repro`` packages,
so every layer can use it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tomllib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NoReturn,
    Optional,
    Pattern,
    Sequence,
    Union,
)

#: Deepest nesting of arrays and tables a decoded document may have.
#: Real inputs stay below 8; the bound keeps every later walk over the
#: data (storage, re-encoding, error messages) clear of the recursion
#: limit.
MAX_DEPTH = 32

_TOO_DEEP = f"nested deeper than {MAX_DEPTH} levels"

#: Integer kinds accept what a signed 64-bit column can store.
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1

#: Error messages quote at most this much of an offending value.
_QUOTE_MAX = 60

class InputError(ValueError):
    """Malformed input from outside the program, as one line.

    Parameters
    ----------
    reason:
        Why the value is invalid, including what was expected.
    path:
        Dotted field path of the offending value (``""`` for the
        document as a whole).
    source:
        The file, request or line being parsed, prepended when known.
    """

    def __init__(
        self, reason: str, path: str = "", source: Optional[str] = None
    ) -> None:
        self.reason = reason
        self.path = path
        self.source = source
        where = f"field '{path}': " if path else ""
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}{where}{reason}")

    def with_source(self, source: Optional[str]) -> "InputError":
        """The same error annotated with its origin (an origin already
        recorded is kept)."""
        if self.source is not None or not source:
            return self
        return type(self)(reason=self.reason, path=self.path, source=source)


def quote(value: Any) -> str:
    """``repr`` of *value*, shortened to keep error messages one line."""
    text = repr(value)
    return text if len(text) <= _QUOTE_MAX else text[: _QUOTE_MAX - 3] + "..."


def _describe(value: Any) -> str:
    """A short phrase naming *value*'s type and, for scalars, its value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"boolean {value}"
    if isinstance(value, (int, float)):
        return f"number {quote(value)}"
    if isinstance(value, str):
        return f"string {quote(value)}"
    if isinstance(value, (list, tuple)):
        return "an array"
    if isinstance(value, dict):
        return "a table"
    return type(value).__name__


# ---------------------------------------------------------------------------
# Step 1: decoding
# ---------------------------------------------------------------------------


def _within_depth(value: Any) -> bool:
    level = [value]
    for _ in range(MAX_DEPTH):
        nested = []
        for item in level:
            if isinstance(item, dict):
                item = item.values()
            elif not isinstance(item, list):
                continue
            nested.extend(c for c in item if isinstance(c, (dict, list)))
        if not nested:
            return True
        level = nested
    return False


def _decode(
    loads: Callable[[str], Any],
    syntax: str,
    text: Union[str, bytes],
    source: Optional[str],
    error: type,
) -> Any:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        value = loads(text)
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8: {exc}"
    except RecursionError:
        reason = _TOO_DEEP
    except ValueError as exc:  # syntax errors and over-long integers
        reason = f"not valid {syntax}: {exc}"
    else:
        if _within_depth(value):
            return value
        reason = _TOO_DEEP
    raise error(path="", reason=reason, source=source)


def decode_json(
    text: Union[str, bytes],
    source: Optional[str] = None,
    error: type = InputError,
) -> Any:
    """Decode JSON *text* (``bytes`` must be UTF-8) into plain data;
    any failure raises *error* with a one-line message."""
    return _decode(json.loads, "JSON", text, source, error)


def decode_toml(
    text: Union[str, bytes],
    source: Optional[str] = None,
    error: type = InputError,
) -> Any:
    """Decode TOML *text* (``bytes`` must be UTF-8) into plain data;
    any failure raises *error* with a one-line message."""
    return _decode(tomllib.loads, "TOML", text, source, error)


def read_text(
    path: Union[str, "os.PathLike"], what: str, error: type = InputError
) -> str:
    """The UTF-8 text of the file at *path*; an unreadable file or
    undecodable bytes raise *error* naming *what* was being read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(path="", reason=f"cannot read {what}: {exc}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8: {exc}"
    raise error(path="", reason=reason, source=os.fspath(path))


# ---------------------------------------------------------------------------
# Step 2: the field cursor
# ---------------------------------------------------------------------------

#: What each kind expects, as error messages name it.
_EXPECTED = {
    "any": "a value",
    "str": "a string",
    "id": "a non-empty string",
    "bool": "a boolean",
    "int": "an integer",
    "float": "a finite number",
    "table": "a table",
    "mapping": "a table",
    "map[int]": "a table of integers",
    "list[float]": "an array of finite numbers",
    "list[str]": "an array of strings",
    "list[id]": "an array of non-empty strings",
    "list[table]": "an array of tables",
}


class Fields:
    """A closed-key cursor over one decoded table.

    :meth:`take` pops one typed value; :meth:`finish` rejects every key
    not taken.  Errors are raised as *error* (a subclass of
    :class:`InputError`) with the key's dotted path under *path* and
    the given *source*.

    Kinds: ``str``; ``id`` (a non-empty string); ``bool``; ``int``
    (64-bit, never a boolean); ``float`` (finite; integers widen);
    ``table`` (a nested :class:`Fields`); ``mapping`` (a free-form
    table, returned as a ``dict``); ``map[int]`` (a table of
    integers); ``list[float]``, ``list[str]``, ``list[id]``,
    ``list[table]`` (a list of nested cursors); ``any`` (unchecked).
    """

    __slots__ = ("_data", "path", "error", "source")

    def __init__(
        self,
        mapping: Any,
        path: str = "",
        error: type = InputError,
        source: Optional[str] = None,
    ) -> None:
        if not isinstance(mapping, dict):
            raise error(
                reason=f"expected a table, got {_describe(mapping)}",
                path=path,
                source=source,
            )
        self._data = dict(mapping)
        self.path = path
        self.error = error
        self.source = source

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def fail(self, key: str, reason: str) -> NoReturn:
        """Raise this cursor's error for the value at *key*."""
        raise self.error(reason=reason, path=self._at(key), source=self.source)

    def take(
        self,
        key: str,
        kind: str,
        default: Any = None,
        *,
        required: bool = False,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        choices: Optional[Sequence[str]] = None,
        pattern: Optional[Pattern[str]] = None,
    ) -> Any:
        """Pop *key* as a value of *kind*.

        An absent (or ``null``) key gives *default*, or an error when
        *required*.  *lo*/*hi* bound a number inclusively, or a list's
        length; *choices* and *pattern* constrain a string.
        """
        value = self._data.pop(key, None)
        if value is None:
            if required:
                self.fail(key, f"missing required {_EXPECTED[kind]}")
            return default
        value = self._coerce(value, kind, key)
        if lo is not None or hi is not None:
            self._bound(value, key, lo, hi)
        if choices is not None and value not in choices:
            self.fail(
                key,
                f"unknown {key} {quote(value)} (choose from {', '.join(choices)})",
            )
        if pattern is not None and not pattern.fullmatch(value):
            self.fail(key, f"must match {pattern.pattern}, got {quote(value)}")
        return value

    def finish(self) -> None:
        """Reject the first (sorted) key no :meth:`take` consumed."""
        if self._data:
            self.fail(sorted(self._data, key=str)[0], "unknown key")

    def _coerce(self, value: Any, kind: str, key: str) -> Any:
        if kind == "str" or kind == "id":
            if isinstance(value, str) and (value or kind == "str"):
                if not value.isascii():
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError:
                        self.fail(key, "contains a lone surrogate")
                return value
        elif kind == "int":
            if isinstance(value, int) and not isinstance(value, bool):
                if not _INT_MIN <= value <= _INT_MAX:
                    self.fail(key, f"integer out of range, got {quote(value)}")
                return value
        elif kind == "float":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                try:
                    number = float(value)
                except OverflowError:
                    number = math.inf
                if math.isfinite(number):
                    return number
        elif kind == "bool":
            if isinstance(value, bool):
                return value
        elif kind == "table":
            return Fields(value, self._at(key), self.error, self.source)
        elif kind == "mapping":
            if isinstance(value, dict):
                return value
        elif kind == "map[int]":
            if isinstance(value, dict):
                return {
                    k: self._coerce(v, "int", f"{key}.{k}")
                    for k, v in value.items()
                }
        elif kind == "any":
            return value
        elif isinstance(value, (list, tuple)):
            item_kind = kind[5:-1]
            return [
                self._coerce(item, item_kind, f"{key}[{i}]")
                for i, item in enumerate(value)
            ]
        self.fail(key, f"expected {_EXPECTED[kind]}, got {_describe(value)}")

    def _bound(
        self, value: Any, key: str, lo: Optional[float], hi: Optional[float]
    ) -> None:
        if isinstance(value, list):
            n = len(value)
            if lo is not None and n < lo:
                self.fail(key, f"needs at least {lo:g} entries, got {n}")
            if hi is not None and n > hi:
                self.fail(key, f"may hold at most {hi:g} entries, got {n}")
            return
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return
        if lo is not None and hi is not None:
            self.fail(key, f"must be in [{lo:g}, {hi:g}], got {value:g}")
        if lo is not None:
            self.fail(key, f"must be >= {lo:g}, got {value:g}")
        self.fail(key, f"must be <= {hi:g}, got {value:g}")


# ---------------------------------------------------------------------------
# Versioned JSON Lines
# ---------------------------------------------------------------------------

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class VersionedJsonl:
    """One versioned JSON-Lines file format.

    A file is a header record — ``format``, ``version``, the record
    count under *count_key*, plus the format's own header fields —
    then one record per line.  Text is canonical (sorted keys, compact
    separators, full-precision floats, a trailing newline), so equal
    content always gives equal bytes and equal digests.

    Loading checks the header, decodes every line and reads it off a
    closed :class:`Fields` cursor: *record* turns a record's cursor
    into an item, *build* turns the header's cursor (format, version
    and count already taken) and the items into the loaded object.  A
    plain ``ValueError`` from either (a domain constructor's own check)
    is reported against its line.  Every failure raises *error* with a
    one-line message naming the source and line.
    """

    def __init__(
        self,
        name: str,
        version: int,
        count_key: str,
        noun: str,
        error: type,
        record: Callable[[Fields], Any],
        build: Callable[[Fields, List[Any]], Any],
    ) -> None:
        self.name = name
        self.version = version
        self.count_key = count_key
        self.noun = noun
        self.error = error
        self.record = record
        self.build = build

    def dumps(
        self, header: Dict[str, Any], records: Sequence[Dict[str, Any]]
    ) -> str:
        """The canonical text of *header* fields plus *records*."""
        head = dict(header)
        head.update(
            {"format": self.name, "version": self.version, self.count_key: len(records)}
        )
        encode = _CANONICAL.encode
        return "\n".join([encode(head), *map(encode, records)]) + "\n"

    @staticmethod
    def digest(text: str) -> str:
        """SHA-256 of canonical text: the content's identity for cache
        keys and provenance stamps."""
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @staticmethod
    def save(text: str, path: Union[str, "os.PathLike"]) -> None:
        """Write canonical *text* to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def loads(self, text: str, source: str) -> Any:
        """Parse the text of one file; *source* names it in errors."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            self._fail(f"empty {self.noun} file", source)
        where = f"{source}: line 1"
        raw = decode_json(lines[0], where, self.error)
        if not isinstance(raw, dict) or raw.get("format") != self.name:
            self._fail(f"not a {self.name} file (missing format header)", source)
        header = Fields(raw, error=self.error, source=where)
        header.take("format", "str")
        version = header.take("version", "int", required=True)
        if version != self.version:
            self._fail(
                f"{self.noun} format version {version} unsupported "
                f"(expected {self.version})",
                source,
            )
        declared = header.take(self.count_key, "int", required=True)
        if declared != len(lines) - 1:
            self._fail(
                f"header declares {declared} {self.count_key} but the file "
                f"holds {len(lines) - 1} (truncated?)",
                source,
            )
        items = []
        for number, line in enumerate(lines[1:], start=2):
            where = f"{source}: line {number}"
            data = decode_json(line, where, self.error)
            fields = Fields(data, error=self.error, source=where)
            items.append(self._checked(self.record, (fields,), "bad record", where))
            fields.finish()
        result = self._checked(
            self.build, (header, items), f"invalid {self.noun}", source
        )
        header.finish()
        return result

    def load(self, path: Union[str, "os.PathLike"]) -> Any:
        """Read and parse the file at *path*."""
        text = read_text(path, f"{self.noun} file", self.error)
        return self.loads(text, os.fspath(path))

    def _fail(self, reason: str, source: str) -> NoReturn:
        raise self.error(path="", reason=reason, source=source)

    def _checked(
        self, fn: Callable[..., Any], args: tuple, what: str, where: str
    ) -> Any:
        try:
            return fn(*args)
        except InputError:
            raise
        except ValueError as exc:
            reason = f"{what}: {exc}"
        self._fail(reason, where)
