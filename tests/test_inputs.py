import io
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentarc import inputs, load_id_mapping, load_lexicon, load_ratings
from sentarc.errors import SentarcError
from sentarc.inputs import lines, read_text

# every line end of str.splitlines(), of which the csv module counts only
# CR and LF, and a BOM
LINE_TEXT = st.text(alphabet=st.sampled_from("ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff"))


@given(LINE_TEXT | st.text())
def test_lines_end_where_the_csv_module_counts(text):
    # a line from newline="" holds no CR or LF but its end
    want = [line.rstrip("\r\n") for line in io.StringIO(text, newline="")]
    assert list(lines(text)) == want


@pytest.mark.parametrize("slice_chars", [1, 2, 5])
@given(text=LINE_TEXT | st.text())
def test_lines_end_where_the_csv_module_counts_at_every_slice_cut(slice_chars, text):
    # a slice runs from its start to the first line end at or past
    # slice_chars - 1, so at 1 every line is a slice of its own
    want = [line.rstrip("\r\n") for line in io.StringIO(text, newline="")]
    with mock.patch.object(inputs, "_SLICE_CHARS", slice_chars):
        assert list(lines(text)) == want


def test_read_text_drops_one_leading_bom(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("\ufeff\ufeffa\ufeff\r\n".encode("utf-8"))
    assert read_text(path) == "\ufeffa\ufeff\r\n"


def test_read_text_gives_nfc(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("\ufeffbla\u030a e\u0301t\u00e9".encode("utf-8"))
    assert read_text(path) == "bl\u00e5 \u00e9t\u00e9"


def test_read_text_errors_take_one_of_two_forms(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(SentarcError, match=f"^no such file: {re.escape(str(missing))}$"):
        read_text(missing)
    latin = tmp_path / "latin.txt"
    latin.write_bytes("café".encode("latin-1"))
    with pytest.raises(SentarcError, match=f"^cannot read {re.escape(str(latin))}: 'utf-8' codec"):
        read_text(latin)


@pytest.mark.parametrize("load", [load_lexicon, load_ratings, load_id_mapping])
def test_every_reader_names_a_missing_file_alike(tmp_path, load):
    missing = tmp_path / "missing.csv"
    with pytest.raises(SentarcError, match=f"^no such file: {re.escape(str(missing))}$"):
        load(missing)


def test_read_text_refuses_a_closed_stdin(monkeypatch):
    # Python sets sys.stdin to None when its file descriptor is closed
    monkeypatch.setattr("sys.stdin", None)
    with pytest.raises(SentarcError, match="^cannot read -: stdin is closed$"):
        read_text("-")
