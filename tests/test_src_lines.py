import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


@pytest.mark.parametrize("source, total, code", [
    ('"""Module docstring,\ntwo lines."""\n', 2, 0),
    ("# a comment\n\n    \n", 3, 0),
    ("x = 1  # a trailing comment\n", 1, 1),
    ('class A:\n    """Class docstring."""\n\n    def f(self):\n'
     '        """Function\n        docstring."""\n        return 1\n', 7, 3),
    ('x = """a string that is not a docstring"""\n', 1, 1),
], ids=["module-docstring", "comments-and-blanks", "trailing-comment",
        "class-and-function-docstrings", "string-that-is-not-a-docstring"])
def test_only_code_lines_count_as_code(tmp_path, source, total, code):
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert src_lines.count(path) == (total, code)


def test_main_counts_the_package(capsys):
    src_lines.main()
    out = capsys.readouterr().out
    assert out.startswith("sharpv: ") and out.rstrip().endswith(" code lines")


def test_main_lists_every_module_once(capsys):
    src_lines.main()
    modules = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()[1:]]
    expected = sorted(path.name for path in (TOOL.parent.parent / "src" / "sharpv").glob("*.py"))
    assert modules == expected
