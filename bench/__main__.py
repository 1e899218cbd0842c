"""``python3 -m bench``: the one command.

``--workload W --seed N --seconds S --trace 0|1`` measures one workload and
prints, as its last line, the JSON object BENCHMARK.json's contract asks for.
Without ``--workload`` it runs all four, untraced rounds and traced repeats.
``--compare A.json B.json`` judges two ``--out`` files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from bench import compare, harness, workloads


def _contract() -> Dict[str, Any]:
    with open(os.path.join(workloads.repo_root(), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _print_result(result: Dict[str, Any]) -> None:
    env = result["environment"]
    print(f"== {result['workload']} seed={result['seed']} scale={result['scale']}: "
          f"{result['rounds']} round(s) x {len(workloads.COLUMNS)} columns"
          f"{' + traced repeats' if result['traced'] else ''}, "
          f"W={env['workers']} nproc={env['nproc']} python={env['python']} "
          f"load={env['loadavg_1m']:.2f}{' NOISY' if env['noisy'] else ''} "
          f"hardlink_ok={env['hardlink_ok']} scratch_spread={env['scratch_spread']}")
    print(f"  end-to-end (tracing off): median [q1, q3] over fresh children; times at nominal "
          f"host speed (as timed / {result['time_divisor']:.3f}; probe at "
          f"{result['speed_factor']:.3f} of nominal over {len(result['spin_s'])} readings)")
    for name, metric in result["end_to_end"].items():
        print(f"  {name:<34} {metric['value']:>12.4f} {metric['unit']:<6} "
              f"[q1 {metric['q1']:.4f}, q3 {metric['q3']:.4f}] n={metric['n']} "
              f"as timed {metric['as_timed']:.4f}")
    for column in workloads.COLUMNS:
        run = result["end_to_end"].get(f"run_s.{column}")
        if run:
            print(f"  info: {column:<10} {result['jobs'] / run['as_timed']:.1f} jobs/s as timed")
    if result["traced"]:
        print("  per-layer (traced repeats; 0 on a layer the workload bypasses, "
              "trace.targets_missing counts wrap targets that are gone)")
        for name, metric in result["per_layer"].items():
            print(f"  {name:<34} {metric['value']:>12.6g} {metric['unit']}")
        bare = result["per_layer"]["bare.run_s"]["value"]
        for column in workloads.COLUMNS:
            run = result["end_to_end"].get(f"run_s.{column}")
            if run:
                print(f"  info: {column:<10} runner-overhead share "
                      f"{(run['as_timed'] - bare) / run['as_timed']:.3f} of run_s "
                      f"{run['as_timed']:.4f} s as timed")
    print(f"  ops_attempted={result['attempted']} ops_failed={result['failed']}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}")


def _final_line(result: Dict[str, Any], trace: bool) -> str:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--repeats", type=int,
                        help="run exactly this many rounds instead of filling --seconds")
    parser.add_argument("--out", help="also write the full results (samples included) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    contract = _contract()
    if args.compare:
        return compare.compare(args.compare[0], args.compare[1], contract)

    root = workloads.repo_root()
    for needed in ("src/repro/__init__.py", "examples/cwl/scatter_images.cwl"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found under {root}; nothing to measure",
                  file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    # On its own the command shows everything: traced repeats ride along with
    # the untraced rounds.  The driver asks for one kind at a time.
    trace = bool(args.trace) if args.trace is not None else not args.workload

    recorded: Dict[str, Dict[str, Any]] = {}
    for name in names:
        recorded[name] = harness.run_workload(name, args.seed, seconds, trace,
                                              scale=args.scale, repeats=args.repeats)
        _print_result(recorded[name])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workloads": recorded}, handle, indent=1)
    if args.workload:
        # The contract's result line; the driver reads ``correct``, not the exit code.
        print(_final_line(recorded[args.workload], trace))
        return 0
    failed = sum(result["failed"] for result in recorded.values())
    print(f"ops_failed = {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
