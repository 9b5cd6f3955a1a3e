import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentarc import Lexicon, SentarcError, inputs, load_lexicon, sentiment_series
from sentarc.lexicon import NEUTRAL_VALENCE

from conftest import write_lexicon_file


def write_entries(path, entries):
    """`entries` in the loadable format, each value as its repr."""
    return write_lexicon_file(path, [f"{word}\t{value!r}" for word, value in entries.items()])


def test_load_round_trip(tmp_path):
    path = write_lexicon_file(
        tmp_path / "lex.tsv", ["achieve\t0.816", "abandon\t0.052"], header=False
    )
    lex = load_lexicon(path)
    assert lex.entry_count == 2
    assert lex.entries == {"achieve": 0.816, "abandon": 0.052}


def test_header_detected_and_skipped(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["joy\t0.98\t0.82\t0.55"])
    lex = load_lexicon(path)
    assert lex.entries == {"joy": 0.98}


def test_header_only_file_is_empty_lexicon(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", [])
    lex = load_lexicon(path)
    assert lex.entry_count == 0


def test_out_of_range_valence_rejected(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["joy\t1.5", "calm\t0.7"])
    lex = load_lexicon(path)
    assert lex.entries == {"calm": 0.7}
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
    assert lex.entries == {"echo": 0.9}
    assert lex.n_duplicates == 1


def test_keys_lowercased(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["Sunshine\t0.9"])
    lex = load_lexicon(path)
    assert lex.entries == {"sunshine": 0.9}


def test_exactly_neutral_entries_kept(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", ["meh\t0.5"])
    lex = load_lexicon(path)
    assert lex.entries == {"meh": 0.5}


def test_oov_returns_neutral():
    lex = Lexicon(entries={"bright": 0.9})
    arc = sentiment_series(["qzxv", "", "bright"], lex)
    assert arc.raw.tolist() == [NEUTRAL_VALENCE, NEUTRAL_VALENCE, 0.9]


def test_missing_file_raises():
    with pytest.raises(SentarcError):
        load_lexicon("/no/such/lexicon.tsv")


def test_headerless_lexicon_ignores_a_bom(tmp_path):
    plain = write_lexicon_file(tmp_path / "plain.tsv", ["good\t0.9", "bad\t0.1"], header=False)
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    lex = load_lexicon(bom)
    assert lex.entries == load_lexicon(plain).entries == {"good": 0.9, "bad": 0.1}
    assert lex.n_rejected == 0
    assert sentiment_series(["good"], lex).raw.tolist() == [0.9]


@pytest.mark.parametrize("separator", ["\u2028", "\x85"])
def test_only_cr_and_lf_end_a_lexicon_line(tmp_path, caplog, separator):
    path = write_lexicon_file(tmp_path / "lex.tsv", [f"sun{separator}shine\t0.9", "broken"])
    with caplog.at_level("WARNING"):
        lex = load_lexicon(path)
    assert lex.entries == {f"sun{separator}shine": 0.9}
    assert lex.n_rejected == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:3: malformed lexicon line, rejected"
    ]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
def test_bad_line_just_after_a_slice_cut_named_by_its_number(tmp_path, caplog, end):
    # the first slice of `inputs.lines` ends with the line end at its last
    # character, so the bad line opens the second slice
    lines_before = inputs._SLICE_CHARS // 8
    text = f"ab\t0.25{end}" * lines_before + f"x{end}cd\t0.75{end}"
    assert text.replace(end, "\n").index("x") == inputs._SLICE_CHARS
    path = tmp_path / "lex.tsv"
    path.write_bytes(text.encode("utf-8"))
    with caplog.at_level("WARNING"):
        lex = load_lexicon(path)
    assert lex.entries == {"ab": 0.25, "cd": 0.75}
    assert (lex.n_duplicates, lex.n_rejected) == (lines_before - 1, 1)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:{lines_before + 1}: malformed lexicon line, rejected"
    ]


def test_serialize_round_trip(tmp_path):
    entries = {"alpha": 0.123456789012345, "beta": 1.0, "gamma": 0.0}
    reloaded = load_lexicon(write_entries(tmp_path / "saved.tsv", entries))
    assert reloaded.entries == entries


@given(st.lists(st.text(max_size=30), max_size=5))
def test_valence_always_in_unit_interval(tokens):
    lex = Lexicon(entries={"good": 0.9, "bad": 0.1})
    raw = sentiment_series(tokens, lex).raw
    assert ((0.0 <= raw) & (raw <= 1.0)).all()
    assert raw.tolist() == [lex.entries.get(t, NEUTRAL_VALENCE) for t in tokens]


@given(
    st.dictionaries(
        st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=20,
    )
)
def test_save_load_identity_on_entries(tmp_path_factory, entries):
    path = write_entries(tmp_path_factory.mktemp("lex") / "lex.tsv", entries)
    assert load_lexicon(path).entries == entries


def test_entry_count_matches_entries(tmp_path):
    path = write_lexicon_file(tmp_path / "lex.tsv", [f"w{i}\t0.{i}" for i in range(5)])
    lex = load_lexicon(path)
    assert lex.entry_count == len(lex.entries) == 5
    assert all(0.0 <= v <= 1.0 and not math.isnan(v) for v in lex.entries.values())
