"""Versioned ``repro-*`` documents: one envelope, read fail-closed.

Everything the library writes for another process to read is a JSON
object whose first two keys are ``"format"`` (a ``repro-*`` name) and
``"version"`` (the one integer version this build reads); the audit
trail and the event log carry the same envelope in their first
record.  This is the only module that knows it: :func:`new` writes it,
:func:`parse` / :func:`check` read it, :class:`Journal` and
:func:`check_journal` are the JSON-lines writer and reader of the two
logs.

Readers are fail-closed: malformed JSON, a non-object, a wrong format
or version, or a missing or mistyped key raises the caller's own
:class:`~repro.exceptions.ReproError` subclass naming the document,
so a CLI reading it exits 2 with ``error: ...``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Type, Union

from .exceptions import ReproError

__all__ = [
    "NUMBER",
    "Journal",
    "body",
    "canonical",
    "check",
    "check_journal",
    "construct",
    "decoding",
    "json_safe",
    "new",
    "parse",
    "read_journal",
    "require",
]

#: The JSON number types, for key specs.
NUMBER = (int, float)

Error = Type[ReproError]
#: Required keys of an object, each with the type its value must have:
#: a type (``object`` for any value) or a tuple of them, which may
#: nest (``(NUMBER, type(None))`` is a number or null).
Keys = Mapping[str, Union[type, Tuple[object, ...]]]


def new(format: str, version: int, **body: object) -> Dict[str, object]:
    """The document ``{"format": format, "version": version, **body}``."""
    return {"format": format, "version": version, **body}


def body(document: Mapping[str, object]) -> Dict[str, object]:
    """A document's fields without the format/version envelope."""
    return {
        k: v for k, v in document.items() if k not in ("format", "version")
    }


def require(
    entry: object, error: Error, what: str, keys: Keys = {}
) -> Dict[str, object]:
    """``entry``, once it is a JSON object holding every key of
    ``keys`` with a value of that key's type."""
    if not isinstance(entry, dict):
        raise error(
            f"{what} must be a JSON object, got {type(entry).__name__}"
        )
    missing = [key for key in keys if key not in entry]
    if missing:
        raise error(f"{what} is missing keys: {', '.join(missing)}")
    for key, kind in keys.items():
        value = entry[key]
        # JSON true/false are not numbers, though Python's bool is an int.
        if not isinstance(value, kind) or (
            isinstance(value, bool) and not _admits_bool(kind)
        ):
            raise error(
                f"{what} key {key!r} must be {_kind_name(kind)}, got "
                f"{type(value).__name__}"
            )
    return entry


def _admits_bool(kind: object) -> bool:
    """Whether a key spec names ``bool`` or ``object``."""
    if isinstance(kind, tuple):
        return any(map(_admits_bool, kind))
    return kind is bool or kind is object


def _kind_name(kind: object) -> str:
    """A key spec as an error message names it."""
    if kind is NUMBER:
        return "a number"
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    return "null" if kind is type(None) else kind.__name__


def check(
    document: object,
    format: str,
    version: int,
    error: Error,
    noun: str,
    keys: Keys = {},
) -> Dict[str, object]:
    """``document``, once its envelope says ``format`` at exactly
    ``version`` and it holds ``keys``."""
    document = require(document, error, noun)
    if document.get("format") != format:
        article = "an" if noun[0] in "aeiou" else "a"
        raise error(
            f"not {article} {noun} (format {document.get('format')!r}, "
            f"expected {format!r})"
        )
    found = document.get("version")
    if found != version or isinstance(found, bool):
        raise error(
            f"unsupported {noun} version {found!r} "
            f"(this build reads version {version})"
        )
    return require(document, error, noun, keys)


def parse(
    text: str,
    format: str,
    version: int,
    error: Error,
    noun: str,
    keys: Keys = {},
) -> Dict[str, object]:
    """:func:`check` the JSON document in ``text``."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{noun} is malformed JSON ({exc})") from None
    return check(document, format, version, error, noun, keys)


@contextmanager
def decoding(error: Error, noun: str) -> Iterator[None]:
    """Raise ``error`` for a missing key or a malformed entry met while
    building objects from a checked document (a short row, a
    non-numeric weight, an unhashable vertex label)."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise error(f"malformed {noun}: {exc!r}") from None


def construct(
    cls: type,
    fields: Mapping[str, object],
    error: Error,
    what: str,
    keys: Keys = {},
) -> object:
    """``cls(**fields)`` for a dataclass, refusing keys that are not its
    fields (typos, not extensions), then requiring ``keys`` as
    :func:`require` does."""
    fields = require(fields, error, what)
    unknown = sorted(set(fields) - set(cls.__dataclass_fields__))
    if unknown:
        raise error(f"{what} has unknown fields: {', '.join(unknown)}")
    require(fields, error, what, keys)
    with decoding(error, what):
        return cls(**fields)


def canonical(record: Mapping[str, object]) -> str:
    """Sorted-key compact JSON: a journal line, and what the audit
    hash chain covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def json_safe(value: object) -> object:
    """``value`` with tuples as lists, keys as strings, and anything
    else JSON cannot hold as its ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return str(value)


class Journal:
    """An append-only JSON-lines log: records kept in memory and, with
    a ``path``, appended to the file one :func:`canonical` line each
    and flushed immediately.  Subclasses build each record (with the
    next :attr:`seq`) and hand it to :meth:`_append`; ``records``
    continues an existing, validated log, appending to its file
    instead of truncating it."""

    enabled = True

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        records: Sequence[Dict[str, object]] = (),
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._records: List[Dict[str, object]] = list(records)
        self._seq = len(self._records)
        self._file = None
        if self._path is not None:
            mode = "a" if self._records else "w"
            self._file = open(self._path, mode, encoding="utf-8")

    @property
    def path(self) -> str | None:
        """The backing JSONL file, if any."""
        return self._path

    @property
    def seq(self) -> int:
        """The sequence number the next record will get."""
        return self._seq

    def _append(self, record: Dict[str, object]) -> Dict[str, object]:
        self._seq += 1
        self._records.append(record)
        if self._file is not None:
            self._file.write(canonical(record) + "\n")
            self._file.flush()
        return record

    def records(self) -> List[Dict[str, object]]:
        """Every record so far, oldest first."""
        return list(self._records)

    def tail(self, n: int = 10) -> List[Dict[str, object]]:
        """The most recent ``n`` records."""
        if n <= 0:
            return []
        return list(self._records[-n:])

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Flush and close the backing file (in-memory records stay)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_journal(
    path: str | os.PathLike, error: Error, noun: str
) -> List[object]:
    """The JSON value on each non-blank line of a journal file."""
    parsed: List[object] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise error(
                    f"{noun} invalid (line {line_number}): malformed "
                    f"JSON ({exc.msg}) — truncated or corrupted record"
                ) from None
    return parsed


def check_journal(
    records: Sequence[object],
    header: Tuple[str, str, str],
    format: str,
    version: int,
    error: Error,
    noun: str,
    keys: Keys,
) -> List[Dict[str, object]]:
    """Journal records as dicts, once each holds ``keys``, sequence
    numbers run gapless from 0, and the first is the header:
    ``header`` is ``(kind key, opening kind, body key)``, and the
    header's body carries the ``format``/``version`` envelope."""
    kind_key, opening, body_key = header
    if not records:
        raise error(f"{noun} invalid: empty log (no {opening} header)")
    out: List[Dict[str, object]] = []
    for i, record in enumerate(records):
        where = f"{noun} invalid (line {i + 1})"
        record = require(record, error, f"{where}: record", keys)
        if record["seq"] != i:
            raise error(
                f"{where}: sequence gap (expected seq {i}, got "
                f"{record['seq']!r})"
            )
        out.append(dict(record))
    if out[0][kind_key] != opening:
        raise error(
            f"{noun} invalid (line 1): first record must be the "
            f"{opening!r} header, got {out[0][kind_key]!r}"
        )
    check(out[0][body_key], format, version, error, f"{noun} header")
    return out
