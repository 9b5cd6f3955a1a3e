"""Every input file's bytes turned into text, lines and CSV rows.

Each input is UTF-8, and one leading byte-order mark (U+FEFF) is dropped,
as Gutenberg texts and spreadsheet "CSV UTF-8" exports often carry one.
The text is then put in Unicode normal form C (NFC), so a word, an id or
a lexicon entry matches whether its file stored letters composed or
decomposed.
The path `-` names stdin, read as bytes and decoded the same way. Lines
end at "\\n", "\\r\\n" or "\\r", the line ends the csv module counts, so a
line number means the same physical line in every reader.
"""

from __future__ import annotations

import csv
import io
import sys
import unicodedata
from pathlib import Path
from typing import Iterator

from .errors import SentarcError

# characters `lines` splits per step; each slice runs on to the next line end
_SLICE_CHARS = 2**20


def read_text(path) -> str:
    """The text of the file at `path`, or of stdin when `path` is `-`, in
    NFC.

    A missing file raises SentarcError as "no such file: PATH", a closed
    stdin as "cannot read -: stdin is closed", and any other read or
    decode failure as "cannot read PATH: reason".
    """
    if path == "-" and sys.stdin is None:
        raise SentarcError("cannot read -: stdin is closed")
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise SentarcError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SentarcError(f"cannot read {path}: {exc}") from exc
    return unicodedata.normalize("NFC", text.removeprefix("\ufeff"))


def lines(text: str) -> Iterator[str]:
    """The lines of `text` without their ends, and no empty line after a
    final line end, split one slice of about _SLICE_CHARS characters at a
    time. Only "\\n", "\\r\\n" and "\\r" end a line: U+2028, U+0085 or
    a form feed, which `str.splitlines` also splits at, stay inside it."""
    # only "\n" ends a line from here on; replace returns `text` itself
    # when it holds no CR
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    start, end = 0, len(text)
    while start < end:
        # past the first line end from the slice's last character on, or
        # the end of the text when none is left
        cut = text.find("\n", start + _SLICE_CHARS - 1) + 1 or end
        parts = text[start:cut].split("\n")
        if parts[-1] == "":
            parts.pop()
        if cut == end:
            del text  # no longer held while the caller uses the last lines
        start = cut
        yield from parts


def _nul_free(stream, path):
    """The lines of `stream` unchanged, except that a line holding NUL
    raises SentarcError at its line number: Python 3.10's csv module cannot
    read NUL and 3.11's can, so NUL is no CSV character on any version."""
    for number, line in enumerate(stream, start=1):
        if "\0" in line:
            raise SentarcError(f"{path}:{number}: NUL character")
        yield line


def read_csv_table(text: str, path, fields: dict) -> Iterator[tuple[int, dict]]:
    """Each non-blank row of a CSV table as (line, {column: parsed cell}).

    `fields` maps each column, in header order, to the parser of its text.
    The header must match the columns once its cells are stripped. A row
    with the wrong field count, a cell its parser rejects with ValueError,
    or text the csv module cannot split raises SentarcError as
    "PATH:LINE: ..."; LINE is the physical line the row ends on. A line
    holding NUL is rejected before the csv module sees it.
    """
    # newline="" keeps each line's end, so a quoted cell keeps its CR/LF
    reader = csv.reader(_nul_free(io.StringIO(text, newline=""), path))
    try:
        header = next(reader, None)
        if header is None or [cell.strip() for cell in header] != list(fields):
            raise SentarcError(
                f"{path}: expected header {','.join(fields)!r}, "
                f"got {'<empty file>' if header is None else ','.join(header)!r}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise SentarcError(
                    f"{path}:{reader.line_num}: expected {len(fields)} fields, got {len(row)}"
                )
            values = {}
            for (name, parse), cell in zip(fields.items(), row):
                try:
                    values[name] = parse(cell)
                except ValueError as exc:
                    raise SentarcError(f"{path}:{reader.line_num}: {name}: {exc}") from None
            yield reader.line_num, values
    except csv.Error as exc:
        # a field over the size limit, say
        raise SentarcError(f"{path}:{reader.line_num}: {exc}") from None
