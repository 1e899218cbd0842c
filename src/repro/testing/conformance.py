"""The conformance command line.

Default invocation — the full matrix, as CI runs it::

    python -m repro.testing.conformance

runs every corpus case plus 20 generated workflows across
{reference, toil, parsl, parsl-workflow} × cache {off, cold, warm}, writes
``CONFORMANCE.json`` and exits non-zero on any divergence from the reference
engine or on any warm run that re-executed a job instead of restoring it
(counted beside the divergences as ``meta.warm_misses`` and listed on
stderr).  Each engine evaluates expressions through its own pipeline — the
reference runner's fresh scope per evaluation, compile-once elsewhere — so
the matrix compares the two on every case.

Useful variations::

    # the fast tier-1 subset (what tests/conformance asserts)
    python -m repro.testing.conformance --tier1

    # one engine, one case, keep the working directories
    python -m repro.testing.conformance --engine toil --case echo_stdout \\
        --workdir /tmp/conf --report /tmp/CONFORMANCE.json

    # a different generated-suite size/seed
    python -m repro.testing.conformance --generated 50 --seed 4242
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from typing import List, Optional, Sequence

from repro.api.matrix import ENGINE_ORDER, MatrixConfig, matrix_configs
from repro.testing.corpus import load_corpus
from repro.testing.differential import CaseOutcome, run_case
from repro.testing.generator import DEFAULT_BASE_SEED, DEFAULT_SUITE_SIZE, generate_suite
from repro.testing.report import build_report, write_report

_PIPELINE_MODES = {"on": True, "default": None}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.conformance",
        description="Run the conformance corpus and generated workflows "
                    "differentially across the engine matrix.")
    parser.add_argument("--corpus", default=None,
                        help="corpus directory (default: conformance/corpus)")
    parser.add_argument("--engine", action="append", dest="engines",
                        choices=ENGINE_ORDER, default=None,
                        help="engine(s) to test (repeatable; default: all four)")
    parser.add_argument("--cache", default=None,
                        help="comma-separated cache modes (off, cold, warm; "
                             "default: all three, or off,warm with --tier1)")
    parser.add_argument("--generated", type=int, default=None,
                        help="number of generated workflows (0 disables; "
                             f"default: {DEFAULT_SUITE_SIZE}, or 2 with --tier1)")
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                        help="base seed for the generated suite")
    parser.add_argument("--case", action="append", dest="cases", default=None,
                        help="run only these corpus case ids (repeatable)")
    parser.add_argument("--tier1", action="store_true",
                        help="fast subset: tier-1 cases, cache off+warm, "
                             "2 generated workflows "
                             "(explicit --cache/--generated still win)")
    parser.add_argument("--faults", action="append", dest="faults", default=None,
                        help="inject this seeded fault profile into every "
                             "configuration (repeatable; see "
                             "repro.cwl.faults.fault_profiles). Each faulted "
                             "run is compared against a reference baseline "
                             "under the same profile.")
    parser.add_argument("--pipeline", default=None,
                        help="comma-separated scheduler-core modes (on: the "
                             "asyncio pipelined core on runner engines / a "
                             "cap on parked steps on Parsl engines; "
                             "default: each engine's default core). "
                             "'default,on' runs both and compares them.")
    parser.add_argument("--report", default="CONFORMANCE.json",
                        help="where to write the JSON report")
    parser.add_argument("--workdir", default=None,
                        help="keep per-run working directories here "
                             "(default: a temporary directory, removed)")
    parser.add_argument("--max-workers", type=int, default=4)
    parser.add_argument("--quiet", action="store_true")
    return parser.parse_args(argv)


def _configs_from(args: argparse.Namespace) -> List[MatrixConfig]:
    """The requested matrix; ``--tier1`` only narrows flags left at default."""
    engines = tuple(args.engines) if args.engines else ENGINE_ORDER
    cache = args.cache or ("off,warm" if args.tier1 else "off,cold,warm")
    cache_modes: Sequence[str] = tuple(m.strip() for m in cache.split(",")
                                       if m.strip())
    fault_modes: Sequence[Optional[str]] = (None,)
    if args.faults:
        from repro.cwl.faults import fault_profiles
        known = fault_profiles()
        wanted: List[str] = []
        for spec in args.faults:
            wanted.extend(name.strip() for name in spec.split(",")
                          if name.strip())
        unknown = [name for name in wanted if name not in known]
        if unknown:
            raise SystemExit(f"unknown --faults profile(s) {unknown} "
                             f"(expected one of {sorted(known)})")
        fault_modes = tuple(wanted)
    pipeline_modes: Sequence[Optional[bool]] = (None,)
    if args.pipeline:
        try:
            pipeline_modes = tuple(
                _PIPELINE_MODES[m.strip()] for m in args.pipeline.split(",")
                if m.strip())
        except KeyError as exc:
            raise SystemExit(f"unknown --pipeline mode {exc.args[0]!r} "
                             f"(expected on or default)")
    return matrix_configs(engines, cache_modes, fault_modes, pipeline_modes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    configs = _configs_from(args)

    cases = load_corpus(args.corpus, tier1_only=args.tier1)
    if args.cases:
        wanted = set(args.cases)
        unknown = wanted - {case.id for case in cases}
        if unknown:
            print(f"conformance: unknown case id(s) {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        cases = [case for case in cases if case.id in wanted]

    generated_count = args.generated if args.generated is not None \
        else (2 if args.tier1 else DEFAULT_SUITE_SIZE)
    generated = generate_suite(generated_count, base_seed=args.seed) \
        if generated_count else []

    cleanup = args.workdir is None
    base = os.path.abspath(args.workdir) if args.workdir \
        else tempfile.mkdtemp(prefix="repro-conformance-")

    def say(message: str) -> None:
        if not args.quiet:
            print(message, flush=True)

    say(f"conformance: {len(cases)} corpus case(s), {len(generated)} generated "
        f"workflow(s), {len(configs)} configuration(s) each")

    outcomes: List[CaseOutcome] = []
    try:
        for case in cases:
            outcome = run_case(case, configs,
                               os.path.join(base, "corpus", case.id),
                               max_workers=args.max_workers)
            outcomes.append(outcome)
            _report_case(outcome, say)
        for workflow in generated:
            outcome = run_case(workflow.as_case(), configs,
                               os.path.join(base, "generated", workflow.id),
                               max_workers=args.max_workers)
            outcomes.append(outcome)
            _report_case(outcome, say)
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)

    warm_misses = [f"{outcome.case_id} :: {line}"
                   for outcome in outcomes for line in outcome.warm_misses]
    report = build_report(outcomes, configs, meta={
        "corpus": str(args.corpus) if args.corpus else "conformance/corpus",
        "generated": len(generated),
        "base_seed": args.seed,
        "tier1": bool(args.tier1),
        "faults": sorted({c.faults for c in configs if c.faults}),
        "pipeline": bool(any(c.pipeline for c in configs)),
        # Warm configurations in which a conforming run re-executed a job.
        "warm_misses": len(warm_misses),
    })
    path = write_report(args.report, report)

    summary = report["summary"]
    say(f"conformance: {summary['passed_cases']}/{summary['cases']} cases passed "
        f"({summary['runs']} runs, {summary['divergences']} divergence(s), "
        f"{len(warm_misses)} warm run(s) with misses); report written to {path}")
    for line in warm_misses:
        print(f"WARM MISS: {line}", file=sys.stderr)
    for line in report["divergences"]:
        print(f"DIVERGENCE: {line}", file=sys.stderr)
    return 1 if summary["divergences"] or warm_misses else 0


def _report_case(outcome: CaseOutcome, say) -> None:
    status = "ok" if outcome.passed else "DIVERGED"
    say(f"  [{status}] {outcome.case_id} "
        f"({len(outcome.outcomes)} run(s), {len(outcome.skipped)} skipped)")


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess tests
    sys.exit(main())
