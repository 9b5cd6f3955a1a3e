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

from .errors import LexiconError

log = logging.getLogger(__name__)

NEUTRAL_VALENCE = 0.5


@dataclass(frozen=True)
class Lexicon:
    """Immutable word -> valence map; unknown words score NEUTRAL_VALENCE.

    Keys are lowercased at load time; callers are expected to pass
    already-lowercased tokens (the tokenizer does).
    """

    entries: dict[str, float]
    n_duplicates: int = 0
    n_rejected: int = 0

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def valence(self, token: str) -> float:
        """Stored valence for `token`, or NEUTRAL_VALENCE if absent. Never fails."""
        return self.entries.get(token, NEUTRAL_VALENCE)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


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

    Raises LexiconError on I/O or decoding failure.
    """
    entries: dict[str, float] = {}
    n_duplicates = 0
    n_rejected = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc

    for lineno, line in enumerate(lines, start=1):
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


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write entries back out in the loadable tab-separated format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("word\tvalence\n")
        for word, value in lexicon.entries.items():
            fh.write(f"{word}\t{value!r}\n")
