"""Seeded line-level mutants of the shipped problem files.

Each mutant changes one content line of one file: it deletes, duplicates or
swaps the line, blanks its value, drops the value's last word or last
character, or blanks a section header.  The loader must accept a mutant or
reject it with a ``ProblemError`` whose text starts with the file's name.
Four mutations must be rejected: a misspelt key; a [field], [chart] or
[solution] section repeated with other content; a word appended to a
[problem], [space], [parent] or [equations] header; and a misspelt word in
a verdict, flagged, closed, solvable or jacobi value.  Run as a script to
check N mutants; it prints each escape and exits 1 if there is one:

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


def _section(lines, i):
    """(header index, end index) of the section holding line i."""
    first = max(j for j in range(i + 1) if lines[j].startswith("["))
    end = next((j for j in range(i + 1, len(lines)) if lines[j].startswith("[")), len(lines))
    return first, end


def _misspell_key(lines, i):
    """Double the last letter of the key's first word (``titlee``).  Not in
    [equations], which has no keys, nor in a ``kind = reduced`` solution,
    whose keys name the reduced system's variables, unknown at load."""
    key, eq, value = lines[i].partition("=")
    first, end = _section(lines, i)
    reduced = lines[first].startswith("[solution") and "kind = reduced" in lines[first:end]
    if not eq or lines[i].startswith("[") or lines[first].startswith("[equations") or reduced:
        return None
    word, *rest = key.split()
    return lines[:i] + [" ".join([word + word[-1], *rest]) + " =" + value] + lines[i + 1:]


def _repeat_section(lines, i):
    """Repeat a named section after itself without its first content line."""
    if lines[i].split()[0] not in ("[field", "[chart", "[solution"):
        return None
    first, end = _section(lines, i)
    body = [l for l in lines[first + 1:end] if l.strip() and not l.startswith("#")]
    return lines[:end] + [lines[i]] + body[1:] + lines[end:]


def _name_header(lines, i):
    """Append a word to a header that takes no name (``[space extra]``)."""
    if lines[i].strip() not in ("[problem]", "[space]", "[parent]", "[equations]"):
        return None
    return lines[:i] + [lines[i].strip()[:-1] + " extra]"] + lines[i + 1:]


def _misspell_word(lines, i):
    """Double the last letter of a value that takes one of a few words
    (``verdict = pointt``, ``closed = truee``)."""
    if lines[i].partition("=")[0].strip() not in ("verdict", "flagged", "closed",
                                                  "solvable", "jacobi"):
        return None
    return _value_edit(lambda v: v + v[-1:])(lines, i)


REJECTED = (_misspell_key, _repeat_section, _name_header, _misspell_word)
MUTATIONS = (_delete, _duplicate, _swap, _blank_header,
             _value_edit(lambda v: ""),
             _value_edit(lambda v: " ".join(v.split()[:-1])),
             _value_edit(lambda v: v[:-1])) + REJECTED


def mutants(count: int, seed: int = 0):
    """``count`` (file name, mutated text, must be rejected) triples, the
    same for each seed."""
    rng = random.Random(seed)
    files = [(p.name, p.read_text(encoding="utf-8").splitlines())
             for p in sorted(corpus_dir().glob("*.prob"))]
    made = 0
    while made < count:
        name, lines = rng.choice(files)
        content = [i for i, l in enumerate(lines) if l.strip() and not l.startswith("#")]
        mutation = rng.choice(MUTATIONS)
        out = mutation(lines, rng.choice(content))
        if out is not None:
            made += 1
            yield name, "\n".join(out) + "\n", mutation in REJECTED


def escapes(count: int, seed: int = 0) -> list[tuple[str, str]]:
    """(file name, error) for each mutant that loads to neither a problem
    nor a ``ProblemError`` starting with its file name, or that loads
    although it must be rejected."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, rejected in mutants(count, seed):
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            try:
                load_problem(path)
            except ProblemError as exc:
                if not str(exc).startswith(name):
                    out.append((name, f"unlocated: {exc}"))
            except Exception as exc:
                out.append((name, f"{type(exc).__name__}: {exc}"))
            else:
                if rejected:
                    out.append((name, "loads, but must be rejected"))
    return out


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    found = escapes(n)
    print(f"{len(found)} of {n} mutants escape", *found, sep="\n")
    sys.exit(1 if found else 0)
