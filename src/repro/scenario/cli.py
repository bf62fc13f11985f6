"""``repro scenario`` subcommand handlers.

Wires the environment & lifecycle scenario engine into the top-level
CLI::

    repro scenario run --scheme S --family F [--perturbation P] ...
    repro scenario corpus generate [--out DIR] [--seed N] [--quick]
    repro scenario conformance [--corpus DIR] [--quick]
                               [--check-reproducible]
                               [--store PATH] [--summary PATH]
                               [--report PATH] [--resume]
                               [--stop-after N]

``conformance`` runs the corpus cases as warehouse cells through the
routine ``repro warehouse run`` uses
(:func:`repro.warehouse.cli.run_checkpointed`): with ``--store``,
each case's record is appended the moment the case finishes,
``--resume`` skips cases already recorded for this ``(commit,
config_hash, schema)``, and ``--stop-after N`` is the deterministic
interruption (exit 3).  Each record is judged against its committed
pass-band before it is appended.

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive; the top-level parser
only delegates (same split as :mod:`repro.warehouse.cli`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.scenario.conformance import (
    DEFAULT_CORPUS_DIR,
    CorpusFormatError,
    judge_record,
    load_corpus,
)
from repro.scenario.corpus import (
    CORPUS_SCHEMA_VERSION,
    FAMILIES,
    PERTURBATIONS,
    SCHEMES,
    ScenarioCase,
    build_corpus,
    expected_bands,
    full_corpus,
    quick_corpus,
)
from repro.warehouse.cli import run_checkpointed
from repro.warehouse.runner import run_cell


def add_scenario_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``scenario`` subcommand tree on *sub*."""
    scenario = sub.add_parser(
        "scenario",
        help="environment & lifecycle scenario engine")
    ssub = scenario.add_subparsers(dest="scenario_command",
                                   required=True)

    run = ssub.add_parser(
        "run", help="run one scenario cell and print its metrics")
    run.add_argument("--scheme", required=True, choices=SCHEMES)
    run.add_argument("--family", required=True, choices=FAMILIES,
                     help="trajectory family")
    run.add_argument("--perturbation", default="base",
                     choices=sorted(PERTURBATIONS))
    run.add_argument("--kind", default="failure",
                     choices=("failure", "attack"),
                     help="failure-rate campaign or full attack")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--devices", type=int, default=2)
    run.add_argument("--trials", type=int, default=64,
                     help="reconstruction attempts per device "
                          "(failure cells)")

    corpus = ssub.add_parser(
        "corpus", help="conformance corpus management")
    csub = corpus.add_subparsers(dest="corpus_command",
                                 required=True)
    generate = csub.add_parser(
        "generate",
        help="run seeded baselines and write corpus files")
    generate.add_argument("--out", default=DEFAULT_CORPUS_DIR,
                          metavar="DIR",
                          help=f"output directory (default "
                               f"{DEFAULT_CORPUS_DIR})")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--quick", action="store_true",
                          help="only the quick (CI smoke) slice")

    conformance = ssub.add_parser(
        "conformance",
        help="re-run the committed corpus and assert in-band")
    conformance.add_argument("--corpus", default=DEFAULT_CORPUS_DIR,
                             metavar="DIR",
                             help=f"corpus directory (default "
                                  f"{DEFAULT_CORPUS_DIR})")
    conformance.add_argument("--quick", action="store_true",
                             help="only cells marked quick "
                                  "(CI smoke profile)")
    conformance.add_argument("--check-reproducible",
                             action="store_true",
                             help="run every cell twice and fail "
                                  "unless identity fingerprints "
                                  "match bitwise")
    conformance.add_argument("--store", default=None, metavar="PATH",
                             help="append warehouse records to this "
                                  "JSONL store")
    conformance.add_argument("--summary", default=None,
                             metavar="PATH",
                             help="append this run's entry to a "
                                  "BENCH_*.json trajectory file")
    conformance.add_argument("--report", default=None, metavar="PATH",
                             help="write the full JSON report "
                                  "(CI artifact)")
    conformance.add_argument("--commit", default=None,
                             help="record key commit (default: "
                                  "$GITHUB_SHA or git rev-parse "
                                  "HEAD)")
    conformance.add_argument("--resume", action="store_true",
                             help="skip cases already recorded in "
                                  "--store for this (commit, "
                                  "config, schema)")
    conformance.add_argument("--stop-after", type=int, default=None,
                             metavar="N",
                             help="checkpoint and stop after N "
                                  "executed cases (exit 3; rerun "
                                  "with --resume)")


def run_scenario(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``scenario`` invocation; exit code."""
    handler = {
        "run": _cmd_run,
        "corpus": _cmd_corpus,
        "conformance": _cmd_conformance,
    }[args.scenario_command]
    return handler(args)


def _cmd_run(args: argparse.Namespace) -> int:
    case = ScenarioCase(scheme=args.scheme, family=args.family,
                        perturbation=args.perturbation,
                        kind=args.kind, devices=args.devices,
                        trials=args.trials,
                        noise_scale=PERTURBATIONS[args.perturbation])
    print(f"scenario run: {case.case_id} seed={args.seed} "
          f"devices={case.devices}")
    record = run_cell(case, case.devices, args.seed, "", "", "run")
    if record["security"] is None:
        print(f"  {record['status']}: {record['reason']}")
        return 1
    observed = record["security"]["observed"]
    for name, value in sorted(observed.items()):
        print(f"  {name} = {value:.6g}")
    bands = expected_bands(case, observed)
    for name, (low, high) in sorted(bands.items()):
        print(f"  band {name} = [{low:.4g}, {high:.4g}]")
    seconds = (record["perf"]["enroll_seconds"]
               + record["perf"]["attack_seconds"])
    print(f"  fingerprint {record['security']['case_fingerprint']} "
          f"({seconds:.2f}s)")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    cases = quick_corpus() if args.quick else full_corpus()
    print(f"corpus generate: {len(cases)} cells, seed={args.seed} "
          f"-> {args.out}")
    payloads = build_corpus(cases, args.seed, progress=print)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scheme, payload in sorted(payloads.items()):
        path = out / f"{scheme}.json"
        path.write_text(json.dumps(payload, indent=1,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"  wrote {path} ({len(payload['cases'])} cells)")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    try:
        seed, entries = load_corpus(args.corpus)
    except CorpusFormatError as error:
        print(f"scenario conformance: {error}")
        return 2
    if args.quick:
        entries = [entry for entry in entries if entry.case.quick]
    by_cell = {entry.case.cell_id: entry for entry in entries}
    code, records = run_checkpointed(
        args, "scenario conformance", [entry.case for entry in entries],
        "quick" if args.quick else "full", seed, None,
        judge=lambda record: judge_record(by_cell[record["cell"]],
                                          record))
    if args.report and code != 2:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema_version": CORPUS_SCHEMA_VERSION,
            "seed": seed,
            "ok": code == 0,
            "bands": {cell: entry.bands
                      for cell, entry in by_cell.items()},
            "records": records,
        }, indent=1) + "\n", encoding="utf-8")
        print(f"report written to {path}")
    if code == 0:
        print("scenario conformance: ok - every cell in its pass-band"
              + (" and bitwise-reproducible"
                 if args.check_reproducible else ""))
    return code
