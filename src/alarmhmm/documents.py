"""The versioned JSON documents, JSON Lines files and CSVs, and the value checks
all readers and arguments share.

Nothing read is coerced: a boolean is not an integer, and a finite number
is an int or float that fits a float.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import DomainError, SchemaError, located

FORMAT_VERSION = "1"
CSV_VERSION_LINE = f"# format_version={FORMAT_VERSION}"


def is_array(value) -> bool:
    """Whether ``value`` is a JSON array: a list as parsed, or a tuple as written."""
    return isinstance(value, (list, tuple))


def is_int(value) -> bool:
    """The package's one integer test: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_int_array(value) -> bool:
    return is_array(value) and all(is_int(item) for item in value)


def is_finite_number(value) -> bool:
    """The package's one real-number test: a finite Python or numpy int or float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _range(low, high, strict: bool) -> str:
    """The bounds in the rules' words: ``be non-negative``, ``be >= 1``,
    ``lie in [1, 8]``, or with ``strict``, ``be positive`` or ``lie in (0, 1]``."""
    if high is None:
        if low == 0:
            return "be positive" if strict else "be non-negative"
        return f"be {'>' if strict else '>='} {low}"
    if low is None:
        return f"be <= {high}"
    return f"lie in {'(' if strict else '['}{low}, {high}]"


def _plain(value):  # a numpy number as the Python number it holds
    return value.item() if isinstance(value, np.generic) else value


def _outside(value, low, high, strict: bool) -> bool:
    return (low is not None and (value <= low if strict else value < low)
            or high is not None and value > high)


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """The integer rule: raise :class:`DomainError` naming ``what`` unless
    ``value`` passes :func:`is_int` and lies in [``low``, ``high``]; a bound of
    ``None`` is no bound."""
    if not is_int(value):
        raise DomainError(f"{what} must be an integer, got {_plain(value)!r}")
    if _outside(int(value), low, high, False):
        raise DomainError(f"{what} must {_range(low, high, False)}, got {value}")


def check_number(value, what: str, low=None, high=None, *, strict: bool = False) -> None:
    """The real-number rule: raise :class:`DomainError` naming ``what`` unless
    ``value`` passes :func:`is_finite_number` and lies in [``low``, ``high``],
    or in (``low``, ``high``] if ``strict``; a bound of ``None`` is no bound."""
    if is_finite_number(value) and not _outside(_plain(value), low, high, strict):
        return
    bounds = ("" if low is None and high is None
              else " and " + _range(low, high, strict).removeprefix("be "))
    raise DomainError(f"{what} must be finite{bounds}, got {_plain(value)!r}")


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


def read_text(path, error: type[SchemaError]) -> str:
    """The UTF-8 text of ``path``, read in full."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def open_text(path, error: type[SchemaError], newline: str | None = None) -> io.StringIO:
    """The text :func:`read_text` reads, as a stream like ``open(path, newline)``."""
    return io.StringIO(read_text(path, error), newline=newline)


def _parse(text: str, source, build, error: type[SchemaError]):
    """``build(value)`` for the JSON value ``text`` spells; every error starts with ``source``."""
    try:
        value = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"{source}: not valid JSON: {exc}") from None
    with located(source):
        return build(value)


def load_document(path, build, error: type[SchemaError]):
    """``build(document)`` for the JSON document in ``path``; every error names the path."""
    return _parse(open_text(path, error).read(), path, build, error)


def read_jsonl(path, build) -> list:
    """``build(record)`` for the record on each non-blank line of the JSON Lines
    file ``path``; every error names ``path:line``."""
    return [_parse(text, f"{path}:{lineno}", build, SchemaError)
            for lineno, line in enumerate(open_text(path, SchemaError), start=1)
            if (text := line.strip())]


def _json_default(value):
    """Both JSON writers' hook: a numpy number, which the two rules accept, as a Python one."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_document(path, document: dict) -> None:
    text = json.dumps(document, indent=2, sort_keys=True, default=_json_default)
    Path(path).write_text(text + "\n")


def write_jsonl(path, records) -> None:
    """One JSON record per line, keys sorted."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


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
