"""``python3 -m bench --compare A.json B.json``: judge B against A.

One row per workload x end-to-end metric, by the benchmark's own bounds.  A
row whose run-to-run spread (quartile distance over median, either side) is
wider than its bound is ``unresolved``, not ``ok`` -- unless every sample of B
is better than every sample of A.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from bench.harness import quartiles


def verdict(a: List[float], b: List[float], bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for a lower-is-better metric."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound and not max(b) < min(a):
        return "unresolved"
    return "worse" if b_med > a_med * (1.0 + bound) else "ok"


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a_all = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b_all = json.load(handle)["workloads"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    worse = 0
    header = f"{'workload':<12} {'metric':<16} {'A median [q1, q3] n':<34} " \
             f"{'B median [q1, q3] n':<34} {'B/A':>7}  verdict"
    print(header)
    for workload in sorted(set(a_all) & set(b_all)):
        for name, bound in bounds.items():
            a = a_all[workload]["samples"].get(name)
            b = b_all[workload]["samples"].get(name)
            if not a or not b:
                print(f"{workload:<12} {name:<16} missing on one side")
                continue
            cells, medians = [], []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}")
                medians.append(median)
            outcome = verdict(a, b, bound)
            worse += outcome == "worse"
            ratio = medians[1] / medians[0]
            print(f"{workload:<12} {name:<16} {cells[0]:<34} {cells[1]:<34} "
                  f"{ratio:>7.3f}  {outcome} (bound {bound:+.0%} of A)")
    return 1 if worse else 0
