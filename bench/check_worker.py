"""Checks payloads sent by run.py, one at a time, in a process of its own.

Reads pickled `(check, payload)` pairs from standard input until it
closes, and writes back, pickled, the list of problems each check found.
Keeping the reference's dense arrays here keeps them out of the timed
process's peak memory.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main() -> int:
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # standard output carries only the replies
    while True:
        try:
            check, payload = pickle.load(source)
        except EOFError:
            return 0
        try:
            found = list(check(payload))
        except Exception as exc:  # an output the checks cannot read is wrong
            found = [f"check raised {exc!r}"]
        pickle.dump(found, sink)
        sink.flush()


if __name__ == "__main__":
    sys.exit(main())
