#!/usr/bin/env python3
"""Build a synthetic demo corpus for exercising the CLI end to end.

Writes a story directory, a graded valence lexicon, and a ratings table
into the target directory. Story token streams are quantized fractional
Gaussian noise, so every story has a known target exponent, and ratings
are constructed to rise with it (popular stories get tighter scores).

Usage:
    python scripts/make_demo_corpus.py demo/
    sentarc analyze --corpus demo/corpus --lexicon demo/lexicon.tsv \
        --ratings demo/ratings.csv --out demo/study
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from sentarc import SynthSpec, fgn


def graded_word(level: int) -> str:
    # letters only so the tokenizer keeps them whole
    return "g" + chr(ord("a") + level // 26) + chr(ord("a") + level % 26)


#: Graded lexicon: 101 letter-only tokens carrying valences 0.00..1.00.
GRADED_WORDS = {graded_word(i): i / 100 for i in range(101)}


def fgn_token_text(target_h: float, n: int, seed: int) -> str:
    """Token stream whose valence series is a quantized affine map of fGn.

    The noise is squeezed into [0, 1] around 0.5 and snapped to the nearest
    of the 101 graded-lexicon levels, so the series keeps the generator's
    scaling exponent up to a small quantization floor.
    """
    noise = fgn(SynthSpec(target_h=target_h, n=n, seed=seed))
    levels = np.clip(np.round((0.5 + 0.15 * noise) * 100), 0, 100).astype(int)
    return " ".join(graded_word(level) for level in levels)


def write_graded_lexicon_file(path: Path) -> Path:
    lines = ["word\tvalence"] + [f"{w}\t{v!r}" for w, v in GRADED_WORDS.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("target", help="directory to create the demo inside")
    parser.add_argument("--stories", type=int, default=72)
    parser.add_argument("--tokens", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    root = Path(args.target)
    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)

    write_graded_lexicon_file(root / "lexicon.tsv")

    rng = np.random.default_rng(args.seed)
    rows = []
    for idx in range(args.stories):
        target = 0.3 + 0.6 * idx / max(args.stories - 1, 1)
        story_id = f"tale_{idx:03d}"
        (corpus / f"{story_id}.txt").write_text(
            fgn_token_text(target, args.tokens, seed=500 + idx)
        )
        popular = idx % 6 != 0
        n_ratings = int(rng.integers(31, 40000)) if popular else int(rng.integers(1, 31))
        sigma = 0.12 if popular else 0.9
        rating = float(np.clip(2.5 + 2.0 * (target - 0.6) + rng.normal(0, sigma), 1, 5))
        rows.append(f"{story_id},Tale {idx},{rating:.3f},{n_ratings}")
    (root / "ratings.csv").write_text(
        "id,title,avg_rating,n_ratings\n" + "\n".join(rows) + "\n"
    )

    print(f"wrote {args.stories} stories under {corpus}/")
    print(f"lexicon: {root / 'lexicon.tsv'}")
    print(f"ratings: {root / 'ratings.csv'}")
    print("try:")
    print(
        f"  sentarc analyze --corpus {corpus} --lexicon {root / 'lexicon.tsv'} "
        f"--ratings {root / 'ratings.csv'} --out {root / 'study'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
