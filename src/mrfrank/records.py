"""The readers of the corpus formats and of the program's text files, and
the error that ends a run on bad input data.

``_decoded_lines`` is the one place an input file's bytes become lines.
``read_native`` and ``read_arnetminer`` yield the raw records of a corpus
file one at a time; ``corpus.parse_corpus`` takes them into columns.
Nothing here needs numpy, so the CLI imports it before it knows the command.
"""

from __future__ import annotations

import json
import logging

log = logging.getLogger(__name__)

# reads one JSON value from the start of a string and where it ends
_raw_decode = json.JSONDecoder().raw_decode
# what bytes.strip takes; str.strip takes U+001C-1F, U+0085, U+00A0, U+2028 too
_BLANK = " \t\n\r\x0b\x0c"


class DataError(Exception):
    """Unrecoverable problem in the input data (e.g. duplicate paper id)."""


def _decoded_lines(path, newline=None, blank=""):
    """Yield the number, the text and why it is not UTF-8 (or None) of each
    line of the file at ``path``, split as ``open``'s ``newline`` splits.
    Bad bytes are kept as escapes, which only a line holding one fails to
    encode; it is decoded strictly, less its trailing ``blank``, a bad byte
    counted from its start.  Then a file-start BOM goes, as in ``utf-8-sig``."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(fh, start=1):
            reason = None
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    try:
                        line.rstrip(blank).encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as bad:
                        reason = f"not UTF-8 ({bad.reason} at byte {bad.start + 1})"
                line = line.removeprefix("\ufeff") if lineno == 1 else line
            yield lineno, line, reason


def read_native(path):
    """Yield the records of a native JSON-lines corpus one at a time.  Only
    LF ends a line, which loses only what ``bytes.strip`` takes; one that is
    not UTF-8 JSON is logged and yielded as None, counted as malformed."""
    for lineno, line, reason in _decoded_lines(path, "\n", _BLANK):
        if reason is not None or (line := line.strip(_BLANK)):
            yield _decode(line, reason, path, lineno)


def _decode(text: str, reason: str | None, path, lineno: int) -> dict | None:
    """The JSON value that is the whole of ``text``, or None, logged, when
    ``reason`` says it is not UTF-8 or it is not one value.  ``json.loads``
    words the warning for a line ``raw_decode`` refuses or leaves unread."""
    try:
        if reason is None:
            try:
                value, end = _raw_decode(text)
            except (ValueError, RecursionError):
                end = -1
            return value if end == len(text) else json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc.msg} at column {exc.colno})"
    except (ValueError, RecursionError) as exc:   # too many digits, too deep
        reason = f"not decodable JSON ({exc})"
    log.warning("%s line %d skipped: %s", path, lineno, reason)
    return None


def text_lines(path):
    """Yield the lines of the UTF-8 text file at ``path``, which CRLF and CR
    end as LF does; a bad byte is a DataError naming file, line and byte."""
    for lineno, line, reason in _decoded_lines(path):
        if reason is not None:
            raise DataError(f"{path} line {lineno}: {reason}")
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
