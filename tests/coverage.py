"""List the engine's statements that neither the shipped corpus nor the
Tier-1 suite reaches, one ``module:function: source`` line each.

Run from the repository root: ``python tests/coverage.py [ACCEPTED]``.  Both
run in this process under ``sys.settrace``; subprocesses are not traced.  A
statement is a node of ``ast`` other than a definition, an import or a
docstring; it is reached when any of its lines runs, and a compound
statement is keyed by its header.  With ACCEPTED, a JSON list of
``{"statement": ..., "reason": ...}`` that names a statement once for each
unreached copy, exit 1 when an unreached statement is not listed, and name
each listed one that is now reached.
"""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liereduce"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path):
    """(lines, key) of each statement of the module at ``path``."""
    text = path.read_text()
    lines = text.splitlines()

    def walk(body, scope):
        for node in body:
            if isinstance(node, DEFINITIONS):
                yield from walk(node.body, scope + [node.name])
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (isinstance(node, ast.Expr) and
                    isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
                continue
            inner = [b for f in ("body", "orelse", "finalbody") for b in getattr(node, f, [])]
            inner += [b for h in getattr(node, "handlers", []) for b in h.body]
            head = lines[node.lineno - 1:(inner[0].lineno - 1 if inner else node.end_lineno)]
            source = " ".join(" ".join(head).split())
            yield (range(node.lineno, node.end_lineno + 1),
                   f"{path.stem}:{'.'.join(scope) or '<module>'}: {source}")
            yield from walk(inner, scope)

    return list(walk(ast.parse(text).body, []))


def main(argv) -> int:
    ran = {str(p): set() for p in PACKAGE.glob("*.py")}

    def tracer(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        import pytest
        from liereduce.corpus import run_corpus
        run_corpus()
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if code:
        return code
    found = [(str(path), span, key) for path in sorted(PACKAGE.glob("*.py"))
             for span, key in statements(path)]
    missed = [key for path, span, key in found if ran[path].isdisjoint(span)]
    print(f"{len(missed)} of {len(found)} statements reached by neither the corpus nor Tier-1")
    if not argv:
        print(*missed, sep="\n")
        return 0
    accepted = Counter(e["statement"] for e in json.loads(Path(argv[0]).read_text()))
    unlisted = list((Counter(missed) - accepted).elements())
    print(f"{len(unlisted)} not listed in {argv[0]}:", *unlisted, sep="\n")
    print("listed but reached:", *(accepted - Counter(missed)).elements(), sep="\n")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
