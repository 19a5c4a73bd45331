"""Net lines of the package sources, and the code lines among them: lines
that hold a token other than a comment, and are not part of a module, class
or function docstring.

Usage: python tests/line_count.py
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "donorpair").glob("*.py"))
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    doc = {
        i
        for d in ast.walk(ast.parse(source))
        if isinstance(d, DEFS) and ast.get_docstring(d, clean=False) is not None
        for i in range(d.body[0].lineno, d.body[0].end_lineno + 1)
    }
    code = {
        i
        for k in tokenize.generate_tokens(io.StringIO(source).readline)
        if k.type not in NOT_CODE
        for i in range(k.start[0], k.end[0] + 1)
    }
    return len(code - doc)


if __name__ == "__main__":
    texts = [path.read_text() for path in SOURCES]
    print("net lines", sum(len(text.splitlines()) for text in texts))
    print("code lines", sum(map(code_lines, texts)))
