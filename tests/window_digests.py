"""Known answers for `spectrum --pmax 1000000`: the sha256 of the whole
CSV, and of the rows of each window of primes k*4096 <= p < (k+1)*4096.

Writes tests/spectrum_window_digests.txt, which tests/test_known_answers.py
reads, from the CSV of the sweep (about two minutes at --workers 2 on a
2-core host):

    subproducts spectrum --pmax 1000000 --out spectrum.csv
    python tests/window_digests.py spectrum.csv
"""

import hashlib
import os
import sys
from collections import Counter, defaultdict

P_MAX = 10**6
WINDOW = 1 << 12
HEADER = "p,n2,g,G,y,yprime\n"
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "spectrum_window_digests.txt")


def window_digests(lines):
    """{k: (rows, sha256 of the rows)} for CSV row lines (each ending in a
    newline, no header), grouped by the window k = p // WINDOW."""
    hashes, rows = defaultdict(hashlib.sha256), Counter()
    for line in lines:
        k = int(line.split(",", 1)[0]) // WINDOW
        hashes[k].update(line.encode())
        rows[k] += 1
    return {k: (rows[k], h.hexdigest()) for k, h in hashes.items()}


def read_digests(path=DIGESTS):
    """(rows, sha256) of the whole CSV, and {k: (rows, sha256)} of its
    windows, from the digest file."""
    whole, windows = None, {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            k, rows, digest = line.split()
            if k == "csv":
                whole = (int(rows), digest)
            else:
                windows[int(k)] = (int(rows), digest)
    return whole, windows


def write_digests(text, path=DIGESTS):
    """Write the digest file for the whole CSV text of the sweep."""
    header, *lines = text.splitlines(keepends=True)
    windows = window_digests(lines)
    if header != HEADER or sorted(windows) != list(range(P_MAX // WINDOW + 1)):
        raise ValueError(f"not the CSV of spectrum --pmax {P_MAX}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# spectrum --pmax {P_MAX}: the row count and sha256 of the whole CSV,\n"
                 f"# then for each window k the row count and sha256 of the CSV lines of\n"
                 f"# the primes k*{WINDOW} <= p < (k+1)*{WINDOW}, header left out.\n"
                 "# Written by tests/window_digests.py.\n")
        fh.write(f"csv {len(lines)} {hashlib.sha256(text.encode()).hexdigest()}\n")
        for k, (rows, digest) in sorted(windows.items()):
            fh.write(f"{k} {rows} {digest}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(f"usage: python {sys.argv[0]} SPECTRUM_CSV", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8", newline="") as fh:
        write_digests(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
