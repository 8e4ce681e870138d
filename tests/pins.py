"""Print the pinned digests of ``tests/test_pinned_runs.py`` for this host.

Run by hand, at one BLAS thread, from the repository root:

    PYTHONPATH=src python tests/pins.py

It prints a PINS literal holding this host's float digests only; merge in
the other hosts' entries of the old literal when pasting it, and keep them
only where the change left their bytes alone.
"""

import tempfile
from pathlib import Path

from conftest import openblas_thread_count
from test_pinned_runs import RUNS, digests, float_key


def main():
    threads = openblas_thread_count()
    if threads is None:
        raise SystemExit("numpy's BLAS cannot be set to one thread here")
    threads[1](1)
    key = float_key()
    print("PINS = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as workdir:
            ints, floats = digests(RUNS[name](Path(workdir)))
        print(f"    {name!r}: ({ints!r}, {{\n        {key!r}: {floats!r}}}),")
    print("}")


if __name__ == "__main__":
    main()
