"""Compare two end-to-end benchmark results against the fixed bounds.

::

    PYTHONPATH=src:. python -m benchmarks.e2e.compare BASE.json NEW.json

BASE and NEW are ``out/latest.json`` files (or committed baselines).
For every workload x end-to-end metric in both, the change of the NEW
median against the BASE median is oriented so that positive is better
and judged against the metric's bound in ``BENCHMARK.json``:

* **unresolved** — either side's quartile spread (IQR / median) is
  wider than the bound, and not every NEW value beats (or loses to)
  every BASE value;
* **worse** / **better** — the change exceeds the bound;
* **unchanged** — otherwise.

Every ratio is printed with its base. Exits 1 when anything is worse.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]


def bounds() -> Dict[str, Dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(d: Dict[str, Any]) -> float:
    return (d["q3"] - d["q1"]) / d["median"] if d["median"] else 0.0


def judge(base: Dict[str, Any], new: Dict[str, Any], bound: float,
          higher_is_better: bool) -> str:
    sign = 1 if higher_is_better else -1
    change = sign * (new["value"] - base["value"]) / base["value"]
    if max(spread(base), spread(new)) > bound:
        if min(sign * v for v in new["values"]) > \
                max(sign * v for v in base["values"]):
            return "better"
        if max(sign * v for v in new["values"]) < \
                min(sign * v for v in base["values"]):
            return "worse"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(base: Dict[str, Any], new: Dict[str, Any],
            limits: Optional[Dict[str, Dict[str, Any]]] = None
            ) -> List[Dict[str, Any]]:
    limits = limits or bounds()
    rows = []
    for workload, base_res in base["workloads"].items():
        new_res = new["workloads"].get(workload)
        if new_res is None:
            continue
        for name, spec in limits.items():
            b = base_res["metrics"].get(name)
            n = new_res["metrics"].get(name)
            if b is None or n is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": b["value"], "new": n["value"],
                "ratio": n["value"] / b["value"] if b["value"] else None,
                "bound": spec["bound"],
                "verdict": judge(b, n, spec["bound"],
                                 spec["better"] == "higher")})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python -m benchmarks.e2e.compare BASE.json NEW.json",
              file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    rows = compare(base, new)
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}x"
        print(f"{row['workload']:12s} {row['metric']:14s} "
              f"{row['new']:<12.6g} vs base {row['base']:<12.6g} "
              f"{row['unit']:4s} = {ratio} of base  "
              f"(bound {row['bound']:.0%})  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
