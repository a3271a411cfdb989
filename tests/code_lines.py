"""Print the code lines of each module of src/flagke, and their total.

    python tests/code_lines.py [PACKAGE_DIR]

A code line holds a token other than a comment.  Blank lines, comment lines
and the docstrings of modules, classes and functions do not count; any other
string does.  PACKAGE_DIR defaults to this checkout's src/flagke, so the
count of another tree is ``python tests/code_lines.py OTHER/src/flagke``.
"""

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "flagke")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, column) of the docstring of the module and of every class and function in it."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    skip = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in skip):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    package = argv[1] if len(argv) > 1 else PACKAGE
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                counts[name[:-3]] = code_lines(fh.read())
    for module, n in counts.items():
        print("%-12s %5d" % (module, n))
    print("%-12s %5d" % ("total", sum(counts.values())))


if __name__ == "__main__":
    main(sys.argv)
