"""The versioned JSON documents, JSON Lines files and CSVs, and the value checks
all readers share.

Nothing read is coerced: a boolean is not an integer, and a finite number
is an int or float that fits a float.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .errors import SchemaError

FORMAT_VERSION = "1"
CSV_VERSION_LINE = f"# format_version={FORMAT_VERSION}"


def is_array(value) -> bool:
    """Whether ``value`` is a JSON array: a list as parsed, or a tuple as written."""
    return isinstance(value, (list, tuple))


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_int_array(value) -> bool:
    return is_array(value) and all(is_int(item) for item in value)


def is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def csv_value(text: str):
    """The JSON value a CSV field spells (``None`` if it spells none), for the checks above."""
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an integer too long to convert
        return None


def is_count(text: str) -> bool:
    """Whether a CSV field spells a non-negative integer."""
    value = csv_value(text)
    return is_int(value) and value >= 0


def is_fraction(text: str) -> bool:
    """Whether a CSV field spells a finite number in [0, 1]."""
    value = csv_value(text)
    return is_finite_number(value) and 0 <= value <= 1


#: the (check, description) pairs that declare the fields of a CSV read by :func:`read_csv`
COUNT = (is_count, "a non-negative integer")
OPTIONAL_COUNT = (lambda text: text == "" or is_count(text), "empty or a non-negative integer")
FRACTION = (is_fraction, "a finite number in [0, 1]")


def is_finite_array(value, ndim: int = 1) -> bool:
    """Whether ``value`` is an ``ndim``-deep nested array of finite numbers."""
    if ndim == 0:
        return is_finite_number(value)
    return is_array(value) and all(is_finite_array(item, ndim - 1) for item in value)


def require(doc, key: str, check, what: str, error: type[SchemaError] = SchemaError):
    """``doc[key]``, if ``doc`` is an object holding ``key`` and ``check`` accepts its value."""
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object with '{key}'")
    if key not in doc:
        raise error(f"missing the '{key}' field")
    if not check(doc[key]):
        raise error(f"'{key}' must be {what}")
    return doc[key]


def check_version(doc, error: type[SchemaError]) -> None:
    require(doc, "format_version", lambda value: value == FORMAT_VERSION,
            repr(FORMAT_VERSION), error)


def open_text(path, error: type[SchemaError], newline: str | None = None) -> io.StringIO:
    """The UTF-8 text of ``path``, read in full, as a stream like ``open(path, newline)``."""
    try:
        return io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _parse(text: str, source, build, error: type[SchemaError]):
    """``build(value)`` for the JSON value ``text`` spells; every error starts with ``source``."""
    try:
        value = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"{source}: not valid JSON: {exc}") from None
    try:
        return build(value)
    except SchemaError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def load_document(path, build, error: type[SchemaError]):
    """``build(document)`` for the JSON document in ``path``; every error names the path."""
    return _parse(open_text(path, error).read(), path, build, error)


def read_jsonl(path, build) -> list:
    """``build(record)`` for the record on each non-blank line of the JSON Lines
    file ``path``; every error names ``path:line``."""
    return [_parse(text, f"{path}:{lineno}", build, SchemaError)
            for lineno, line in enumerate(open_text(path, SchemaError), start=1)
            if (text := line.strip())]


def save_document(path, document: dict) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, records) -> None:
    """One JSON record per line, keys sorted."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """The version line (ending ``\\n``), then ``header`` and ``rows`` (ending ``\\r\\n``)."""
    with open(path, "w", newline="") as handle:
        handle.write(CSV_VERSION_LINE + "\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, fields: dict) -> list[dict[str, str]]:
    """The rows of a versioned CSV, keyed by its header, which must name every
    column of ``fields``; each such field must pass its (check, description) pair."""
    stream = open_text(path, SchemaError, newline="")
    version = stream.readline().rstrip("\r\n")
    if version != CSV_VERSION_LINE:
        raise SchemaError(f"{path}: first line must be {CSV_VERSION_LINE!r}, got {version!r}")
    reader = csv.reader(stream)
    try:
        header = next(reader, [])
        missing = [column for column in fields if column not in header]
        if missing:
            raise SchemaError(f"{path}: header lacks the '{missing[0]}' column")
        rows = []
        for row in filter(None, reader):  # blank lines carry no row
            if len(row) != len(header):
                raise SchemaError(f"{path}:{reader.line_num + 1}: expected {len(header)} fields")
            rows.append(dict(zip(header, row)))
    except csv.Error as exc:
        raise SchemaError(f"{path}: malformed CSV ({exc})") from None
    for index, row in enumerate(rows, start=1):
        for column, (check, what) in fields.items():
            if not check(row[column]):
                raise SchemaError(
                    f"{path}: row {index}: '{column}' must be {what}, got {row[column]!r}"
                )
    return rows
