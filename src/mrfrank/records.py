"""The readers of the corpus formats and of the program's text files, and
the error that ends a run on bad input data.

``read_native`` and ``read_arnetminer`` yield the raw records of a corpus
file one at a time; ``corpus.parse_corpus`` takes them into columns.
Nothing here needs numpy, so the CLI imports it before it knows the command.
"""

from __future__ import annotations

import codecs
import json
import logging
from itertools import chain

log = logging.getLogger(__name__)

_BOM = codecs.BOM_UTF8
# reads one JSON value from the start of a string and where it ends
_raw_decode = json.JSONDecoder().raw_decode


class DataError(Exception):
    """Unrecoverable problem in the input data (e.g. duplicate paper id)."""


def read_native(path):
    """Yield the records of a native JSON-lines corpus one at a time.  A
    line that is not UTF-8 JSON is logged with its line number and yielded
    as None, which ``parse_corpus`` counts as malformed.  A byte-order mark
    that starts the file is not data, as ``utf-8-sig`` reads it, but the
    byte positions of line 1 still count it."""
    with open(path, "rb") as fh:
        first = fh.readline()
        bom = len(_BOM) if first.startswith(_BOM) else 0
        for lineno, line in enumerate(chain([first[bom:]], fh), start=1):
            line = line.strip()
            if line:
                yield _decode(line, path, lineno, bom if lineno == 1 else 0)


def _decode(line: bytes, path, lineno: int, offset: int = 0) -> dict | None:
    """The JSON value that is the whole of ``line``, or None, logged, when
    the line is not one.  One ``raw_decode`` reads a good line; a line it
    refuses, or whose value does not end the line, is read again by
    ``json.loads``, only to word the warning as ``json.loads`` words it.
    ``offset`` bytes before ``line`` count in a bad byte's position."""
    try:
        text = line.decode("utf-8")
        try:
            value, end = _raw_decode(text)
        except (ValueError, RecursionError):
            end = -1
        return value if end == len(text) else json.loads(text)
    except UnicodeDecodeError as exc:
        reason = _not_utf8(exc, offset)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc.msg} at column {exc.colno})"
    except (ValueError, RecursionError) as exc:   # too many digits, too deep
        reason = f"not decodable JSON ({exc})"
    log.warning("%s line %d skipped: %s", path, lineno, reason)
    return None


def _not_utf8(exc: UnicodeDecodeError, offset: int = 0) -> str:
    return f"not UTF-8 ({exc.reason} at byte {offset + exc.start + 1})"


def text_lines(path):
    """Yield the lines of the UTF-8 text file at ``path``; a byte that is
    not UTF-8 is a DataError naming the file, the line and the byte within
    the line as the file holds it.  The file is decoded once, its bad bytes
    kept as escapes, and a line that is not ASCII is checked by decoding it
    again strictly.  A byte-order mark that starts the file is dropped, as
    ``utf-8-sig`` drops it."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise DataError(f"{path} line {lineno}: {_not_utf8(bad)}") from None
                if lineno == 1:
                    line = line.removeprefix("\ufeff")
            yield line


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
