"""Tests of tools/code_lines.py, the code-line counter that the size budget
of src/entquant is read with."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize(
    "source, want",
    [
        ('"""A module docstring\nover two lines."""\n', 0),
        ('def f():\n    """A function docstring."""\n', 1),
        ('x = 1\n"a bare string statement"\n\'\'\'and a bare\ntriple-quoted one\'\'\'\n', 1),
    ],
)
def test_bare_strings_count_zero(source, want):
    assert code_lines.code_lines(source) == want


def test_comment_only_lines_count_zero():
    assert code_lines.code_lines("# a comment\nx = 1  # a trailing comment\n\n    # indented\ny = 2\n") == 2


def test_string_inside_an_expression_counts_every_line():
    assert code_lines.code_lines('x = f("""one\ntwo\nthree""")\n') == 3
    assert code_lines.code_lines('x = (\n    """one\ntwo"""\n)\n') == 4


def test_backslash_continuation_counts_both_lines():
    assert code_lines.code_lines("x = 1 + \\\n    2\n") == 2


def test_main_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n')
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("# comment\ny = (1,\n     2)\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    *modules, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert [path for _, path in modules] == [str(tmp_path / "a.py"), str(tmp_path / "pkg" / "b.py")]
    assert [int(n) for n, _ in modules] == [1, 3]
    assert total == [str(sum(int(n) for n, _ in modules)), "total"]
