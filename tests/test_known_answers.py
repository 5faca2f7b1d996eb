"""Known answers for spectrum sweeps at the north star's size, p <= 10^6.

tests/spectrum_window_digests.txt holds the sha256 of the CSV rows of every
window of 4096 integers up to 10^6 (see tests/window_digests.py, which
wrote it).  Two windows are swept again here through the 2-worker pool,
and five rows of the second are recomputed with no discrete log.
"""

import sympy

from subproducts import cli, sweep
from test_thresholds import prefix_covers, sympy_chain
from window_digests import P_MAX, WINDOW, read_digests, window_digests

WHOLE, WINDOWS = read_digests()


def test_digest_file_covers_every_window_to_10_6():
    # the window counts add up to the whole CSV's, one row per odd prime
    assert sorted(WINDOWS) == list(range(P_MAX // WINDOW + 1))
    assert WHOLE[0] == sum(rows for rows, _ in WINDOWS.values()) == sympy.primepi(P_MAX) - 1
    assert WHOLE[1] == "64997aecfa5fb1d5a60eac7a93989e8d4dd9021a7e0b3aafd26ec01beed82eaa"


def test_pooled_windows_match_their_digests(monkeypatch, tmp_path):
    # the window just above 2^16, and the last whole window below 10^6
    # (305 rows at 4-6.5 ms each), each swept by a 2-worker pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for k in (16, P_MAX // WINDOW - 1):
        out = tmp_path / f"window-{k}.csv"
        assert cli.main(["spectrum", "--pmin", str(k * WINDOW), "--pmax",
                         str((k + 1) * WINDOW - 1), "--workers", "2",
                         "--out", str(out)]) == 0
        _, *lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert window_digests(lines) == {k: WINDOWS[k]}


def least_cover(p, terms):
    """The least k such that the subset products of the first k terms reach
    every unit mod p, from the residue walk."""
    return next(k for k, covers in enumerate(prefix_covers(p, terms)) if covers)


def test_rows_near_10_6_without_a_discrete_log():
    # five rows of the last whole window, chosen for their spread: y' = 97,
    # g above G, and n2 from 2 to 19.  n2, g and G from sympy, y and y'
    # from the residue walk
    rows = {
        995369: (995369, 3, 6, 3, 35, 97),
        996361: (996361, 13, 31, 13, 34, 89),
        997751: (997751, 19, 38, 19, 35, 89),
        998399: (998399, 17, 17, 17, 37, 89),
        999239: (999239, 13, 13, 13, 35, 89),
    }
    primes = list(sympy.primerange(2, 100))
    for p, row in rows.items():
        n2, g, big_g = sympy_chain(p)
        y = least_cover(p, range(1, p))
        y_prime = primes[least_cover(p, primes) - 1]
        assert (p, n2, g, big_g, y, y_prime) == row
        assert sweep._spectrum_row(p) == row
