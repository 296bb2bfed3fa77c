"""The readers of the corpus formats and of the program's text files, and
the error that ends a run on bad input data.

``read_native`` and ``read_arnetminer`` yield the raw records of a corpus
file one at a time; ``corpus.parse_corpus`` takes them into columns.
Nothing here needs numpy, so the CLI imports it before it knows the command.
"""

from __future__ import annotations

import json
import logging

log = logging.getLogger(__name__)


class DataError(Exception):
    """Unrecoverable problem in the input data (e.g. duplicate paper id)."""


def read_native(path):
    """Yield the records of a native JSON-lines corpus one at a time.  A
    line that is not UTF-8 JSON is logged with its line number and yielded
    as None, which ``parse_corpus`` counts as malformed."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield _decode(line, path, lineno)


def _decode(line: bytes, path, lineno: int) -> dict | None:
    try:
        return json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        reason = _not_utf8(exc)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc.msg} at column {exc.colno})"
    except (ValueError, RecursionError) as exc:   # too many digits, too deep
        reason = f"not decodable JSON ({exc})"
    log.warning("%s line %d skipped: %s", path, lineno, reason)
    return None


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8 ({exc.reason} at byte {exc.start + 1})"


def text_lines(path):
    """Yield the lines of the UTF-8 text file at ``path``; a byte that is
    not UTF-8 is a DataError naming the file, the line and the byte within
    the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _undecodable(path, exc: UnicodeDecodeError) -> DataError:
    """The error of the text file at ``path`` that ``exc`` failed to decode.
    The decoder's position counts from the start of its chunk, so the file
    is read again, its bad bytes kept as escapes, to find the first line
    (split as ``text_lines`` splits) that is not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as bad:
                return DataError(f"{path} line {lineno}: {_not_utf8(bad)}")
    return DataError(f"{path}: {exc}")   # the file changed since it was read


# the ArnetMiner markers that set a text field
_TEXT_FIELDS = {"#*": "title", "#c": "venue", "#!": "abstract"}


def read_arnetminer(path):
    """Yield the records of an ArnetMiner flat-text corpus one at a time,
    each holding only the fields its lines set; ``parse_corpus`` reads a
    missing id or year as malformed and any other missing field as empty.

    Markers: ``#*`` title, ``#@`` authors (``;`` separated), ``#t`` year
    (None when not an integer), ``#c`` venue, ``#index`` id, ``#%``
    reference (repeated), ``#!`` abstract; other lines are ignored.
    Records are separated by blank lines.  A byte that is not UTF-8 is a
    DataError naming the file and the line.
    """
    rec: dict = {}
    for line in text_lines(path):
        marker, value = line[:2], line[2:].strip()
        if not line.strip():
            if rec:
                yield rec
            rec = {}
        elif line.startswith("#index"):
            rec["id"] = line[6:].strip()
        elif marker == "#%":
            rec.setdefault("refs", []).append(value)
        elif marker == "#@":
            rec["authors"] = [a for a in map(str.strip, value.split(";")) if a]
        elif marker == "#t":
            try:
                rec["year"] = int(value)
            except ValueError:
                rec["year"] = None
        elif marker in _TEXT_FIELDS:
            rec[_TEXT_FIELDS[marker]] = value
    if rec:
        yield rec


# corpus format -> the reader that yields its records
READERS = {"native": read_native, "arnetminer": read_arnetminer}
