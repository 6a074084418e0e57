"""Count code, docstring, comment and blank lines of the Python under ``src/``.

Usage::

    python tools/loc.py            # counts for the working tree
    python tools/loc.py HEAD~1     # ... plus the delta against a revision

``git diff --numstat`` counts every text line, so deleting a docstring
reads as a reduction.  This tool classifies each line instead:

* **docstring** — inside a module, class or function docstring (found
  with :mod:`ast`);
* **code** — carries any token other than a comment (found with
  :mod:`tokenize`, so multi-line strings and bracketed continuations
  count line by line);
* **comment** — carries a comment and nothing else;
* **blank** — everything else (whitespace only).

With a revision, the same counts are taken from ``git show REV:path``
for every ``src/**/*.py`` file at that revision, and the table gains a
delta column; the code-line delta is the number a change reports.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

CATEGORIES = ("code", "docstring", "comment", "blank")

_LAYOUT_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """Per-category line counts of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT_TOKENS:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CATEGORIES, 0)
    for lineno in range(1, len(source.splitlines()) + 1):
        if lineno in docstrings:
            counts["docstring"] += 1
        elif lineno in code:
            counts["code"] += 1
        elif lineno in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def _total(sources) -> dict:
    counts = dict.fromkeys(CATEGORIES, 0)
    for source in sources:
        for key, value in count_lines(source).items():
            counts[key] += value
    return counts


def tree_counts(root: pathlib.Path) -> dict:
    """Counts over ``root/src/**/*.py`` as it is on disk."""
    return _total(
        path.read_text() for path in sorted((root / "src").rglob("*.py"))
    )


def revision_counts(root: pathlib.Path, rev: str) -> dict:
    """Counts over ``src/**/*.py`` at git revision ``rev``."""

    def git(*args) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, check=True, capture_output=True,
            text=True,
        ).stdout

    paths = [
        p for p in git("ls-tree", "-r", "--name-only", rev, "--", "src")
        .splitlines() if p.endswith(".py")
    ]
    return _total(git("show", f"{rev}:{p}") for p in paths)


def format_table(current: dict, base: "dict | None" = None,
                 rev: str = "") -> str:
    """The printed table: one row per category plus the total."""
    rows = [*CATEGORIES, "total"]
    current = {**current, "total": sum(current.values())}
    if base is None:
        return "\n".join(f"{row:<10} {current[row]:>8}" for row in rows)
    base = {**base, "total": sum(base.values())}
    lines = [f"{'src/':<10} {rev:>12} {'worktree':>8} {'delta':>7}"]
    lines += [
        f"{row:<10} {base[row]:>12} {current[row]:>8} "
        f"{current[row] - base[row]:>+7}"
        for row in rows
    ]
    return "\n".join(lines)


def main(argv: "list[str] | None" = None,
         root: "pathlib.Path | None" = None) -> int:
    """CLI entry point; ``root`` is the repository (default: this one)."""
    parser = argparse.ArgumentParser(
        prog="python tools/loc.py",
        description="Code/docstring/comment/blank line counts of src/.",
    )
    parser.add_argument(
        "rev", nargs="?", help="git revision to report the delta against",
    )
    args = parser.parse_args(argv)
    root = root or pathlib.Path(__file__).resolve().parent.parent
    current = tree_counts(root)
    base = revision_counts(root, args.rev) if args.rev else None
    print(format_table(current, base, args.rev or ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
