"""Tests for tools/loc.py: line classification and the revision delta."""

import os
import subprocess
import sys
import textwrap

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)
import loc  # noqa: E402  (tools/ is not a package)

MODULE = textwrap.dedent('''\
    """Module docstring
    spanning two lines."""

    import os  # trailing comment counts as code


    # a comment line
    def f(x):
        """One-line docstring."""
        text = """a multi-line
    string literal"""
        return (x +
                1)


    class C:
        """Class
        docstring."""

        value = 1
''')


def test_count_lines_classifies_each_line():
    assert loc.count_lines(MODULE) == {
        "code": 8, "docstring": 5, "comment": 1, "blank": 6,
    }
    assert sum(loc.count_lines(MODULE).values()) == len(
        MODULE.splitlines()
    )


def test_format_table_reports_signed_delta():
    base = {"code": 10, "docstring": 4, "comment": 2, "blank": 3}
    current = {"code": 7, "docstring": 5, "comment": 2, "blank": 3}
    table = loc.format_table(current, base, "REV").splitlines()
    assert table[1].split() == ["code", "10", "7", "-3"]
    assert table[2].split() == ["docstring", "4", "5", "+1"]
    assert table[-1].split() == ["total", "19", "17", "-2"]


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *args],
        cwd=root, check=True, capture_output=True,
    )


def test_delta_against_a_revision(tmp_path, capsys):
    if subprocess.run(["git", "--version"], capture_output=True).returncode:
        pytest.skip("git is not available")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "notes.txt").write_text("not python\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    # Drop the class (2 code, 2 docstring and 2 blank lines) and add a
    # module of one code line; the non-Python file is never counted.
    (pkg / "mod.py").write_text(MODULE.split("\n\nclass C:")[0] + "\n")
    (pkg / "extra.py").write_text("X = 1\n")

    assert loc.revision_counts(tmp_path, "HEAD") == loc.count_lines(MODULE)
    assert loc.main(["HEAD"], root=tmp_path) == 0
    rows = {
        line.split()[0]: line.split()[1:]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert rows["code"][2] == "-1"
    assert rows["docstring"][2] == "-2"
    assert rows["blank"][2] == "-2"
    assert rows["total"][2] == "-5"
