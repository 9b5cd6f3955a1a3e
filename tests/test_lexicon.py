import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentarc import Lexicon, LexiconError, load_lexicon, save_lexicon

from conftest import write_lexicon_file


def test_load_round_trip(tmp_path):
    path = write_lexicon_file(
        tmp_path / "lex.tsv", ["achieve\t0.816", "abandon\t0.052"], header=False
    )
    lex = load_lexicon(path)
    assert lex.entry_count == 2
    assert lex.valence("achieve") == 0.816
    assert lex.valence("abandon") == 0.052


def test_header_detected_and_skipped(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["joy\t0.98\t0.82\t0.55"])
    lex = load_lexicon(path)
    assert lex.entry_count == 1
    assert lex.valence("joy") == 0.98


def test_header_only_file_is_empty_lexicon(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", [])
    lex = load_lexicon(path)
    assert lex.entry_count == 0


def test_out_of_range_valence_rejected(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["joy\t1.5", "calm\t0.7"])
    lex = load_lexicon(path)
    assert "joy" not in lex
    assert lex.valence("calm") == 0.7
    assert lex.n_rejected == 1


def test_malformed_line_rejected_with_line_number(tmp_path, caplog):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["ok\t0.5", "broken-no-tab", "also\tx.y"])
    with caplog.at_level("WARNING"):
        lex = load_lexicon(path)
    assert lex.entry_count == 1
    assert lex.n_rejected == 2
    assert any(":3:" in r.getMessage() for r in caplog.records)
    assert any(":4:" in r.getMessage() for r in caplog.records)


def test_nan_valence_rejected(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["weird\tnan"])
    assert load_lexicon(path).entry_count == 0


def test_duplicate_keeps_last(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["echo\t0.2", "echo\t0.9"])
    lex = load_lexicon(path)
    assert lex.valence("echo") == 0.9
    assert lex.n_duplicates == 1
    assert lex.entry_count == 1


def test_keys_lowercased(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["Sunshine\t0.9"])
    lex = load_lexicon(path)
    assert lex.valence("sunshine") == 0.9


def test_exactly_neutral_entries_kept(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["meh\t0.5"])
    lex = load_lexicon(path)
    assert "meh" in lex


def test_oov_returns_neutral():
    lex = Lexicon(entries={"bright": 0.9})
    assert lex.valence("qzxv") == 0.5
    assert lex.valence("") == 0.5


def test_missing_file_raises():
    with pytest.raises(LexiconError):
        load_lexicon("/no/such/lexicon.tsv")


def test_serialize_round_trip(tmp_path):
    entries = {"alpha": 0.123456789012345, "beta": 1.0, "gamma": 0.0}
    lex = Lexicon(entries=entries)
    out = tmp_path / "saved.tsv"
    save_lexicon(lex, out)
    reloaded = load_lexicon(out)
    assert reloaded.entries == entries


@given(st.text(max_size=30))
def test_valence_always_in_unit_interval(token):
    lex = Lexicon(entries={"good": 0.9, "bad": 0.1})
    value = lex.valence(token)
    assert 0.0 <= value <= 1.0
    assert value == lex.valence(token)  # pure lookup


@given(
    st.dictionaries(
        st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=20,
    )
)
def test_save_load_identity_on_entries(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    save_lexicon(Lexicon(entries=entries), path)
    assert load_lexicon(path).entries == entries


def test_entry_count_matches_entries(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", [f"w{i}\t0.{i}" for i in range(5)])
    lex = load_lexicon(path)
    assert lex.entry_count == len(lex.entries) == 5
    assert all(0.0 <= v <= 1.0 and not math.isnan(v) for v in lex.entries.values())
