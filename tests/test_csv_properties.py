"""Property tests of the counts CSV: write -> parse round trips, and fuzzed
text fails only with ParseError subclasses that name a line. The examples
are derandomized, so every run draws the same ones."""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import FULL_SETTINGS, CountsTable, parse_counts_csv, write_counts_csv  # noqa: E402
from entquant.errors import ParseError  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
SPELLINGS = [*"HVDARL", *"hvdarl", "+", "-"]

counts = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7e308]),
    st.integers(min_value=0, max_value=2**53).map(float),
)
tables = st.builds(
    CountsTable,
    counts=st.dictionaries(st.sampled_from(FULL_SETTINGS), counts),
    source=st.sampled_from(["exact", "poisson", "file"]),
    seed=st.none() | st.integers(min_value=0, max_value=2**128),
)


@SETTINGS
@hypothesis.given(tables)
def test_write_parse_round_trip(table):
    back = parse_counts_csv(write_counts_csv(table))
    assert back.counts == table.counts
    assert (back.source, back.seed) == (table.source, table.seed)


def _spaced(text):
    return st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " "])).map(lambda w: w[0] + text + w[1])


row = "{},{},{}".format
valid_rows = st.builds(
    row,
    st.sampled_from(SPELLINGS).flatmap(_spaced),
    st.sampled_from(SPELLINGS).flatmap(_spaced),
    st.integers(min_value=0, max_value=10**6),
)
junk_label_rows = st.builds(row, st.text(max_size=3), st.text(max_size=3), st.integers(0, 99))
junk_count_rows = st.builds(
    row,
    st.sampled_from(SPELLINGS),
    st.sampled_from(SPELLINGS),
    st.sampled_from(["nan", "inf", "-3", "-0.5", "abc", "1e999", "", "1_0", "0x1"]) | st.text(max_size=4),
)
lines = st.one_of(
    valid_rows,
    valid_rows,
    junk_label_rows,
    junk_count_rows,
    st.text(max_size=12),
    st.sampled_from(["", "# note", "# source: poisson", "# seed: 12", "# seed: x", "basis_a,basis_b,count"]),
)


@SETTINGS
@hypothesis.given(st.sampled_from([True, True, False]), st.lists(lines, max_size=12), st.sampled_from(["\n", "\r\n"]))
def test_fuzzed_text_fails_only_with_parse_errors_naming_a_line(header, body, newline):
    text = newline.join((["basis_a,basis_b,count"] if header else []) + body)
    try:
        table = parse_counts_csv(text)
    except ParseError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match[1]) <= max(len(text.splitlines()), 1)
    else:
        assert all(s in FULL_SETTINGS and 0 <= n < float("inf") for s, n in table.counts.items())
