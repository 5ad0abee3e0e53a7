"""Print the code-line count of every ``src/smtrack`` module and their total.

A code line is a source line that holds at least one token other than a
comment or a docstring; blank lines, comment lines and docstring lines do
not count. A docstring is a string literal that stands as the first
statement of a module, class or function. The count is taken with
``tokenize`` and ``ast``, so a line split inside brackets counts once per
physical line it spans, as it reads::

    python tests/codelines.py

prints one ``module lines`` row per module, sorted by name, and a last
``total`` row. Run it beside another checkout's copy to compare sizes. The
script reads the ``src/smtrack`` of its own checkout; pytest does not
collect it, and ``test_experiments.py::TestCodeLines`` runs it.
"""

import ast
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "smtrack")
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines of one source file."""
    with open(path, "rb") as f:
        source = f.read()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NON_CODE:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                             if n not in skip)
    return len(lines)


def counts():
    """``{module file name: code lines}`` for every module, sorted by name."""
    return {name: code_lines(os.path.join(SRC, name))
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def main():
    per_module = counts()
    for name, n in per_module.items():
        print(f"{name:<16} {n:5d}")
    print(f"{'total':<16} {sum(per_module.values()):5d}")


if __name__ == "__main__":
    main()
