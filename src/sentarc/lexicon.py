"""Word-valence lexicon in tab-separated format.

The file format is one entry per line, fields separated by a single tab:

    word<TAB>valence[<TAB>arousal<TAB>dominance]

Valence is a number in [0, 1]. An optional single header line is detected
by its second field failing to parse as a decimal. Arousal and dominance
columns are accepted and ignored; only valence is scored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .inputs import lines, read_text

log = logging.getLogger(__name__)

NEUTRAL_VALENCE = 0.5


@dataclass(frozen=True)
class Lexicon:
    """Immutable word -> valence map; `arc.sentiment_series` scores a word
    absent from it NEUTRAL_VALENCE.

    Keys are lowercased at load time; callers are expected to pass
    already-lowercased tokens (the tokenizer does).
    """

    entries: dict[str, float]
    n_duplicates: int = 0
    n_rejected: int = 0

    @property
    def entry_count(self) -> int:
        return len(self.entries)


def _parse_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_lexicon(path) -> Lexicon:
    """Load a tab-separated valence lexicon.

    Duplicate words keep the last occurrence (counted in `n_duplicates`).
    Lines that are malformed or carry a valence outside [0, 1] are rejected
    with a logged warning naming the line number (counted in `n_rejected`).

    Raises SentarcError on I/O or decoding failure.
    """
    entries: dict[str, float] = {}
    n_duplicates = 0
    n_rejected = 0
    for lineno, line in enumerate(lines(read_text(path)), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        value = _parse_float(fields[1]) if len(fields) >= 2 else None
        if value is None:
            if lineno == 1:
                continue  # header line
            log.warning("%s:%d: malformed lexicon line, rejected", path, lineno)
            n_rejected += 1
            continue
        if not 0.0 <= value <= 1.0:
            log.warning(
                "%s:%d: valence %s outside [0, 1], rejected", path, lineno, fields[1]
            )
            n_rejected += 1
            continue
        word = fields[0].lower()
        if word in entries:
            n_duplicates += 1
        entries[word] = value

    return Lexicon(entries=entries, n_duplicates=n_duplicates, n_rejected=n_rejected)

