#!/usr/bin/env python3
"""Compare two benchmark result files (``.perfbench_out/*.json``).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each shared metric's base value, new value and ratio.  Refuses
(exit status 2) to compare results taken at different MODEL_REVs or
result schemas: their simulated work differs, so their times do not
compare.
"""

from __future__ import annotations

import json
import sys


def compare(base: dict, new: dict) -> list:
    """Rows ``(metric, unit, base value, new value, new / base)``."""
    for key in ("model_rev", "result_schema"):
        if base["provenance"][key] != new["provenance"][key]:
            raise ValueError(
                f"{key} differs ({base['provenance'][key]} vs "
                f"{new['provenance'][key]}): results are not comparable"
            )
    rows = []
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else float("nan")
        rows.append((name, metric["unit"], metric["value"], other["value"], ratio))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    try:
        rows = compare(base, new)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, unit, old, value, ratio in rows:
        print(f"{name:<28} {old:>16.6f} {value:>16.6f} {unit:<6} x{ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
