import os
from pathlib import Path

import pytest

import sentarc
# the demo corpus script and the tests build their inputs from one generator
from make_demo_corpus import GRADED_WORDS, fgn_token_text, write_graded_lexicon_file  # noqa: F401
from sentarc.lexicon import Lexicon


@pytest.fixture
def graded_lexicon() -> Lexicon:
    return Lexicon(entries=dict(GRADED_WORDS))


def write_lexicon_file(path, rows, header=True):
    lines = ["word\tvalence\tarousal\tdominance"] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_story(directory, story_id: str, text: str):
    path = directory / f"{story_id}.txt"
    path.write_text(text, encoding="utf-8")
    return path


def package_env() -> dict:
    """Environment for a child Python that imports the package under test,
    wherever pytest found it."""
    src = str(Path(sentarc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
