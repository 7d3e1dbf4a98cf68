#!/usr/bin/env python3
"""Code lines per file and per package: physical lines holding a token
that is neither a comment nor a docstring (so deleting comments or
joining lines moves nothing).  ``python tools/code_lines.py src/repro``"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
    files = {p: code_lines(p.read_text()) for p in sorted(root.rglob("*.py"))}
    packages = Counter()
    for path, n in files.items():
        print(f"{n:7d}  {path}")
        for parent in path.relative_to(root.parent).parents:
            packages[str(parent)] += n
    for name in sorted(p for p in packages if p != "."):
        print(f"{packages[name]:7d}  {name}/")
