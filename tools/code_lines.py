#!/usr/bin/env python3
"""Count the lines of Python files that hold code.

    python tools/code_lines.py src/repro/harness src/repro/cli.py

A line counts when at least one token of code lies on it: blank lines,
comment-only lines and docstrings (module, class and function) do not.
Docstring spans come from ``ast``; everything else from ``tokenize``,
so a multi-line expression or string literal counts every line it
occupies and a trailing comment does not turn a code line into a
comment.  Prints one ``count  path`` row per file and a total — the
figure ``tests/test_code_budget.py`` ratchets.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = frozenset([
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
])


def _docstring_lines(tree):
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


def count_code_lines(source):
    """Number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def python_files(paths):
    """Every ``.py`` file named by or found under ``paths``, sorted."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                found.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames) if name.endswith(".py")
                )
        else:
            found.append(path)
    return found


def count_paths(paths):
    """``[(path, code lines)]`` for every Python file under ``paths``."""
    rows = []
    for path in python_files(paths):
        with open(path, encoding="utf-8") as handle:
            rows.append((path, count_code_lines(handle.read())))
    return rows


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows = count_paths(paths)
    for path, count in rows:
        print("{:>7}  {}".format(count, path))
    print("{:>7}  total".format(sum(count for _path, count in rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
