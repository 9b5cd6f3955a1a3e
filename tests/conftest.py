import os
from pathlib import Path

import numpy as np
import pytest

import sentarc
from sentarc import SynthSpec, fgn
from sentarc.lexicon import Lexicon

def _graded_word(level: int) -> str:
    # letters only so the tokenizer keeps them whole
    return "g" + chr(ord("a") + level // 26) + chr(ord("a") + level % 26)


#: Graded lexicon: 101 letter-only tokens carrying valences 0.00..1.00.
GRADED_WORDS = {_graded_word(i): i / 100 for i in range(101)}


@pytest.fixture
def graded_lexicon() -> Lexicon:
    return Lexicon(entries=dict(GRADED_WORDS))


def write_lexicon_file(path, rows, header=True):
    lines = ["word\tvalence\tarousal\tdominance"] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fgn_token_text(target_h: float, n: int, seed: int) -> str:
    """Token stream whose valence series is a quantized affine map of fGn.

    The noise is squeezed into [0, 1] around 0.5 and snapped to the nearest
    of the 101 graded-lexicon levels, so the series keeps the generator's
    scaling exponent up to a small quantization floor.
    """
    noise = fgn(SynthSpec(target_h=target_h, n=n, seed=seed))
    levels = np.clip(np.round((0.5 + 0.15 * noise) * 100), 0, 100).astype(int)
    return " ".join(_graded_word(level) for level in levels)


def write_story(directory, story_id: str, text: str):
    path = directory / f"{story_id}.txt"
    path.write_text(text, encoding="utf-8")
    return path


def write_graded_lexicon_file(path):
    lines = ["word\tvalence"] + [f"{w}\t{v!r}" for w, v in GRADED_WORDS.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def package_env() -> dict:
    """Environment for a child Python that imports the package under test,
    wherever pytest found it."""
    src = str(Path(sentarc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
