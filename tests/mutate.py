"""Seeded line-level mutants of the shipped problem files.

Each mutant changes one content line of one file: it deletes, duplicates or
swaps the line, blanks its value, drops the value's last word or last
character, or blanks a section header.  The loader must accept a mutant or
reject it with a ``ProblemError`` whose text starts with the file's name.
Run as a script to check N mutants; it prints each escape and exits 1 if
there is one:

    PYTHONPATH=src python3 tests/mutate.py 3000
"""

import random
import sys
import tempfile
from pathlib import Path

from liereduce import ProblemError, load_problem
from liereduce.corpus import corpus_dir


def _delete(lines, i):
    return lines[:i] + lines[i + 1:]


def _duplicate(lines, i):
    return lines[:i + 1] + lines[i:]


def _swap(lines, i):
    if i + 1 < len(lines):
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    return None


def _blank_header(lines, i):
    return lines[:i] + ["[ ]"] + lines[i + 1:] if lines[i].startswith("[") else None


def _value_edit(change):
    def edit(lines, i):
        key, eq, value = lines[i].partition("=")
        if not eq or lines[i].startswith("["):
            return None
        return lines[:i] + [f"{key}= {change(value.strip())}"] + lines[i + 1:]
    return edit


MUTATIONS = (_delete, _duplicate, _swap, _blank_header,
             _value_edit(lambda v: ""),
             _value_edit(lambda v: " ".join(v.split()[:-1])),
             _value_edit(lambda v: v[:-1]))


def mutants(count: int, seed: int = 0):
    """``count`` (file name, mutated text) pairs, the same for each seed."""
    rng = random.Random(seed)
    files = [(p.name, p.read_text(encoding="utf-8").splitlines())
             for p in sorted(corpus_dir().glob("*.prob"))]
    made = 0
    while made < count:
        name, lines = rng.choice(files)
        content = [i for i, l in enumerate(lines) if l.strip() and not l.startswith("#")]
        out = rng.choice(MUTATIONS)(lines, rng.choice(content))
        if out is not None:
            made += 1
            yield name, "\n".join(out) + "\n"


def escapes(count: int, seed: int = 0) -> list[tuple[str, str]]:
    """(file name, error) for each mutant that loads to neither a problem
    nor a ``ProblemError`` starting with its file name."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in mutants(count, seed):
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            try:
                load_problem(path)
            except ProblemError as exc:
                if not str(exc).startswith(name):
                    out.append((name, f"unlocated: {exc}"))
            except Exception as exc:
                out.append((name, f"{type(exc).__name__}: {exc}"))
    return out


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    found = escapes(n)
    print(f"{len(found)} of {n} mutants escape", *found, sep="\n")
    sys.exit(1 if found else 0)
