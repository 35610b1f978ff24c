"""Largest deviation per CSV column between two directories of figure and sweep CSVs.

Run from the root of a checkout, with the package importable::

    PYTHONPATH=src python3 scripts/csv_gate.py BASE_DIR HEAD_DIR

Both directories hold the CSVs of ``chainflux figures`` and of the sweeps
of ``configs/`` (``kscan4.csv`` and so on), made at two commits.  For each
CSV the base produced, the head's must have the same header, row count,
``# skipped:`` lines and ``approach`` column, and every numeric column
must lie within 1e-12 (absolute) of the base's; a CSV the base produced
and the head did not fails.  Prints ``identical`` for a CSV whose bytes
match the base's, else the largest deviation of each column, and exits
non-zero naming the CSVs that differ or are missing.
"""

import filecmp
import os
import sys

from chainflux.sweep import read_csv_table

NAMES = ("figure2", "figure3a", "figure3b", "figure3c", "kscan4", "chain5", "chain3", "cold4",
         "chain5x", "kscan5", "t2sweep", "eps4")


def main(base: str, head: str) -> None:
    failed = []
    for name in NAMES:
        old_path, new_path = f"{base}/{name}.csv", f"{head}/{name}.csv"
        if not os.path.exists(old_path):
            print(f"{name}.csv: not produced at the base, skipped")
            continue
        if not os.path.exists(new_path):
            print(f"{name}.csv: produced at the base, not here")
            failed.append(name)
            continue
        if filecmp.cmp(old_path, new_path, shallow=False):
            print(f"{name}.csv: identical")
            continue
        old_meta, header, old = read_csv_table(old_path)
        new_meta, new_header, new = read_csv_table(new_path)
        old_skips = [line for line in old_meta if line.startswith("# skipped:")]
        new_skips = [line for line in new_meta if line.startswith("# skipped:")]
        if new_header != header or len(new) != len(old) or new_skips != old_skips:
            print(f"{name}.csv: {len(old)} rows and {len(old_skips)} skips at the base, "
                  f"{len(new)} and {len(new_skips)} here, columns {header} -> {new_header}")
            failed.append(name)
            continue
        deviations = []
        for c, column in enumerate(header):
            if column == "approach":
                if any(a[c] != b[c] for a, b in zip(old, new)):
                    failed.append(name)
                continue
            worst = max((abs(a[c] - b[c]) for a, b in zip(old, new)), default=0.0)
            deviations.append(f"{column} {worst:.1e}")
            if not worst <= 1e-12:
                failed.append(name)
        print(f"{name}.csv: " + ", ".join(deviations))
    if failed:
        sys.exit(f"missing or differ from the base by more than 1e-12: "
                 f"{', '.join(sorted(set(failed)))}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
