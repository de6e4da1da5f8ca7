"""Run a line of liereduce code in a fresh interpreter, for reproducers that
once hung: a run beyond 10 s fails its test instead of stalling the suite."""

import subprocess
import sys
from pathlib import Path

import liereduce

SRC = str(Path(liereduce.__file__).parents[1])


def fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that has imported
    everything from liereduce, or the type and text of the ``ExprError`` it
    raises."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
              "from liereduce import *\n"
              f"try:\n    print({code})\n"
              "except ExprError as exc:\n    print(type(exc).__name__, exc)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=10, check=True)
    return run.stdout.strip()
