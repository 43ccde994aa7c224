#!/usr/bin/env python3
"""Count logic lines: lines of Python code without comments, blank lines or
docstrings.

Usage:
    python scripts/logic_lines.py            # src/ and perfbench/ of this checkout
    python scripts/logic_lines.py DIR ...    # any directories or files

A line counts when a token other than a comment, newline, indent or dedent
starts on it or spans it (``tokenize``), and it is not part of a docstring,
the string expression that opens a module, class or function body (``ast``).
The script prints one line per file, then a total per argument.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logic_lines(source: str) -> int:
    """The number of logic lines of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="directories or files to count (default: src/ and perfbench/)")
    targets = parser.parse_args(argv).paths or [ROOT / "src", ROOT / "perfbench"]
    for missing in (t for t in targets if not t.exists()):
        parser.error(f"no such file or directory: {missing}")
    for target in targets:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        total = 0
        for path in files:
            n = logic_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path}")
        print(f"{total:6d}  total {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
