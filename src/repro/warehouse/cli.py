"""``repro warehouse`` subcommand handlers.

Wires the warehouse subsystem into the top-level CLI::

    repro warehouse run [--quick] [--store PATH] [--summary PATH]
                        [--resume] [--stop-after N] [--workers N]
                        [--max-retries N] [--chunk-timeout S]
    repro warehouse verify --store PATH [--matrix quick|full]
                           [--commit SHA] [--once]
    repro warehouse diff BASE CURRENT --store PATH
    repro warehouse trajectory [BENCH_*.json ...]

``run`` and ``repro scenario conformance`` share one checkpointed
run routine (:func:`run_checkpointed`): every cell record is appended
to the store the moment its cell finishes, so a killed run resumes
with ``--resume`` (cells already recorded for this ``(commit,
config_hash, schema)`` are skipped; the configuration hash covers the
*full* cell list, so the resumed records land under the same key).
``--stop-after N`` is the deterministic interruption (exit 3) used by
tests and the CI chaos-smoke job.

``verify`` exit codes are disjoint so CI can assert on them: 0 ok,
1 identity mismatch between same-key records, 2 missing store or
unusable invocation, 3 store missing cells of the requested matrix,
4 duplicate records where ``--once`` demanded single-shot cells.

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive; the top-level parser
only delegates.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cli import build_supervision, report_supervision
from repro.warehouse.diff import diff_matrices
from repro.warehouse.matrix import (
    Cell,
    full_matrix,
    quick_matrix,
    select_cells,
)
from repro.warehouse.runner import (
    matrix_config,
    record_line,
    run_matrix,
)
from repro.warehouse.store import (
    WarehouseStore,
    canonical_json,
    config_hash,
    record_identity,
)
from repro.warehouse.summary import append_entry, build_entry
from repro.warehouse.trajectory import build_report

#: Default store location, relative to the invocation directory.
DEFAULT_STORE = "warehouse/results.jsonl"


def detect_commit() -> str:
    """This run's commit: ``$GITHUB_SHA``, ``git rev-parse``, or
    ``"unknown"`` outside both."""
    commit = os.environ.get("GITHUB_SHA", "").strip()
    if commit:
        return commit
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"],
                               capture_output=True, text=True,
                               check=True, timeout=10)
        return probe.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def add_warehouse_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``warehouse`` subcommand tree on *sub*."""
    warehouse = sub.add_parser(
        "warehouse",
        help="attack x scheme x countermeasure results warehouse")
    wsub = warehouse.add_subparsers(dest="warehouse_command",
                                    required=True)

    run = wsub.add_parser(
        "run", help="execute the matrix and append records")
    run.add_argument("--quick", action="store_true",
                     help="reduced matrix (CI smoke profile)")
    run.add_argument("--devices", type=int, default=None,
                     help="fleet size per runnable cell "
                          "(default: 2 quick / 4 full)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--store", default=DEFAULT_STORE,
                     help=f"JSONL store path (default "
                          f"{DEFAULT_STORE})")
    run.add_argument("--commit", default=None,
                     help="record key commit (default: $GITHUB_SHA "
                          "or git rev-parse HEAD)")
    run.add_argument("--summary", default=None, metavar="PATH",
                     help="append this run's entry to a repo-root "
                          "BENCH_*.json trajectory file")
    run.add_argument("--cells", default=None, metavar="PATTERN",
                     help="fnmatch filter on cell ids, e.g. "
                          "'group-based/*'")
    run.add_argument("--check-reproducible", action="store_true",
                     help="run the matrix twice and fail unless "
                          "record identities match bitwise")
    run.add_argument("--resume", action="store_true",
                     help="skip cells already recorded for this "
                          "(commit, config, schema) in the store")
    run.add_argument("--stop-after", type=int, default=None,
                     metavar="N",
                     help="checkpoint and stop after N executed "
                          "cells (exit 3; rerun with --resume)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the attack "
                          "campaigns (0/None = all CPUs)")
    run.add_argument("--max-retries", type=int, default=None,
                     metavar="N",
                     help="run campaigns supervised: retry failed "
                          "chunks up to N times")
    run.add_argument("--chunk-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="supervised watchdog timeout per campaign "
                          "chunk (implies supervision)")
    run.add_argument("--failure-report", default=None, metavar="PATH",
                     help="write the supervised failure-taxonomy "
                          "report (JSON) here")
    run.add_argument("--enrollment-registry", default=None,
                     metavar="DIR",
                     help="persist per-cell enrollments under DIR "
                          "and reuse them on later runs (identity "
                          "is bitwise-unchanged)")

    verify = wsub.add_parser(
        "verify", help="assert same-key records agree bitwise")
    verify.add_argument("--store", default=DEFAULT_STORE)
    verify.add_argument("--matrix", choices=("quick", "full"),
                        default=None,
                        help="also require every cell of this "
                             "matrix to be recorded (exit 3 when "
                             "cells are missing)")
    verify.add_argument("--cells", default=None, metavar="PATTERN",
                        help="fnmatch filter on the --matrix cells")
    verify.add_argument("--commit", default=None,
                        help="commit key for --matrix/--once "
                             "(default: $GITHUB_SHA or git "
                             "rev-parse HEAD)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the run to check "
                             "(--matrix key)")
    verify.add_argument("--devices", type=int, default=None,
                        help="fleet size of the run to check "
                             "(--matrix key; default 2 quick / "
                             "4 full)")
    verify.add_argument("--once", action="store_true",
                        help="fail (exit 4) when any --matrix cell "
                             "is recorded more than once — the "
                             "no-duplicates gate for resumed runs")

    diff = wsub.add_parser(
        "diff", help="compare two commits' matrices cell by cell")
    diff.add_argument("base", help="baseline commit (prefixes ok)")
    diff.add_argument("current", help="commit under test")
    diff.add_argument("--store", default=DEFAULT_STORE)
    diff.add_argument("--config", default=None,
                      help="restrict to one configuration hash")
    diff.add_argument("--threshold", type=float, default=0.20,
                      help="fractional timing movement to report "
                           "(default 0.20)")
    diff.add_argument("--fail-on-security-drift",
                      action="store_true",
                      help="exit non-zero when security outcomes "
                           "moved")

    trajectory = wsub.add_parser(
        "trajectory",
        help="render the longitudinal BENCH_*.json history")
    trajectory.add_argument("files", nargs="*",
                            help="summary files (default: "
                                 "./BENCH_*.json)")
    trajectory.add_argument("--threshold", type=float, default=0.20,
                            help="fractional perf drift to flag "
                                 "(default 0.20)")


def run_warehouse(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``warehouse`` invocation; exit code."""
    handler = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "diff": _cmd_diff,
        "trajectory": _cmd_trajectory,
    }[args.warehouse_command]
    return handler(args)


def drifted_cells(records: Sequence[Dict[str, object]],
                  replay: Sequence[Dict[str, object]]) -> List[str]:
    """Cells whose replayed record identity differs from the first."""
    return [str(first["cell"]) for first, second in zip(records, replay)
            if canonical_json(record_identity(first))
            != canonical_json(record_identity(second))]


def run_checkpointed(args: argparse.Namespace, label: str,
                     cells: Sequence[Cell], profile: str, seed: int,
                     devices: Optional[int],
                     judge: Optional[
                         Callable[[Dict[str, object]], None]] = None,
                     **options) -> Tuple[int, List[Dict[str, object]]]:
    """Run *cells* with checkpoint/resume; ``(exit code, records)``.

    The one run routine of ``warehouse run`` and ``scenario
    conformance``.  It reads the options both share from *args*
    (``commit``, ``store``, ``resume``, ``stop_after``,
    ``check_reproducible``, ``summary``); *options* pass through to
    :func:`~repro.warehouse.runner.run_matrix`.  *judge* may mark a
    finished record (the conformance band check) before it is
    appended, printed or compared.

    Every record is appended to the store the moment its cell
    finishes, so a killed run loses at most the in-flight cell.  The
    configuration hash covers the full *cells* list, so ``--resume``
    finds the checkpoint and skips what it recorded.  The returned
    records cover the whole run — on a resumed run, this run's plus
    the checkpointed ones — except after a ``--stop-after``
    interruption (exit 3), when they are this run's.  Exit 1 when a
    record is neither ``ok`` nor ``n/a`` or the replay drifted, 2 for
    ``--resume`` without a store.
    """
    if args.resume and not args.store:
        print(f"{label}: --resume needs --store (the checkpoint lives "
              f"in the warehouse store)")
        return 2, []
    commit = args.commit if args.commit is not None \
        else detect_commit()
    cfg = config_hash(matrix_config(cells, profile, seed, devices))
    store = WarehouseStore(args.store) if args.store else None
    skip: List[str] = []
    if args.resume:
        done = store.recorded_cells(commit, cfg)
        skip = [cell.cell_id for cell in cells
                if cell.cell_id in done]
    print(f"{label}: profile={profile} seed={seed} "
          + (f"devices={devices} " if devices is not None else "")
          + f"commit={commit[:12]} config={cfg} ({len(cells)} cells"
          + (f", {len(skip)} already recorded" if args.resume
             else "") + ")")

    def execute(on_record=None) -> List[Dict[str, object]]:
        return run_matrix(cells, profile, seed, devices, commit,
                          skip=skip, on_record=on_record,
                          stop_after=args.stop_after, **options)

    records: List[Dict[str, object]] = []

    def checkpoint(record: Dict[str, object]) -> None:
        if judge is not None:
            judge(record)
        if store is not None:
            store.append([record])
        records.append(record)
        if record["security"] is not None:
            print(record_line(record))

    execute(checkpoint)
    if store is not None:
        print(f"appended {len(records)} records to {store.path} "
              f"(config {cfg})")
    if len(skip) + len(records) < len(cells):
        print(f"{label}: stopped after {len(records)} cell(s) as "
              f"requested - checkpoint saved, rerun with --resume "
              f"to complete the run")
        return 3, records
    if args.check_reproducible:
        second = execute()
        if judge is not None:
            for record in second:
                judge(record)
        drifted = drifted_cells(records, second)
        if drifted:
            print(f"{label}: NOT REPRODUCIBLE - {len(drifted)} "
                  f"cell(s) drifted between two same-seed runs: "
                  f"{', '.join(drifted)}")
            return 1, records
        print(f"{label}: reproducibility check ok (two same-seed "
              f"runs, identical record identities)")
    if store is not None:
        stored = store.matrix(commit, cfg)
        records = [stored[cell.cell_id] for cell in cells
                   if cell.cell_id in stored]
    by_status = {"ok": 0, "n/a": 0, "error": 0}
    for record in records:
        status = str(record["status"])
        by_status[status] = by_status.get(status, 0) + 1
    print("matrix complete: " + " / ".join(
        f"{count} {status}" for status, count in by_status.items()))
    failed = [record for record in records
              if record["status"] not in ("ok", "n/a")]
    for record in failed:
        print(f"  {str(record['status']).upper()} {record['cell']}: "
              f"{record['reason']}")
    if args.summary:
        entry = build_entry(records, commit, profile)
        payload = append_entry(args.summary, entry)
        print(f"summary entry #{payload['history'][-1]['sequence']} "
              f"appended to {args.summary}")
    return (1 if failed else 0), records


def _cmd_run(args: argparse.Namespace) -> int:
    profile = "quick" if args.quick else "full"
    cells = select_cells(quick_matrix() if args.quick
                         else full_matrix(), args.cells)
    if not cells:
        print(f"warehouse run: no cells match {args.cells!r}")
        return 2
    devices = args.devices if args.devices is not None \
        else (2 if args.quick else 4)
    supervision = build_supervision(args)
    code, _ = run_checkpointed(
        args, "warehouse run", cells, profile, args.seed, devices,
        workers=args.workers, supervision=supervision,
        registry_dir=args.enrollment_registry)
    report_supervision(args, supervision)
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    store = WarehouseStore(args.store)
    if not store.path.exists():
        print(f"warehouse verify: FAIL (missing store) - no store "
              f"at {store.path}")
        return 2
    if args.once and args.matrix is None:
        print("warehouse verify: FAIL (usage) - --once needs "
              "--matrix to know which cells must be single-shot")
        return 2
    problems = store.verify_reproducible()
    if problems:
        for problem in problems:
            print(f"  {problem}")
        print(f"warehouse verify: FAIL (identity mismatch) - "
              f"{len(problems)} key(s) with non-reproducible "
              f"records")
        return 1
    if args.matrix is not None:
        quick = args.matrix == "quick"
        cells = select_cells(quick_matrix() if quick
                             else full_matrix(), args.cells)
        devices = args.devices if args.devices is not None \
            else (2 if quick else 4)
        commit = args.commit if args.commit is not None \
            else detect_commit()
        cfg = config_hash(matrix_config(
            cells, "quick" if quick else "full", args.seed, devices))
        counts = store.recorded_cells(commit, cfg)
        missing = [cell.cell_id for cell in cells
                   if cell.cell_id not in counts]
        if missing:
            print(f"warehouse verify: FAIL (store missing cells) - "
                  f"{len(missing)} of {len(cells)} {args.matrix} "
                  f"cells absent for commit {commit[:12]} config "
                  f"{cfg}: {', '.join(missing[:4])}"
                  + (" ..." if len(missing) > 4 else ""))
            return 3
        if args.once:
            duplicates = [cell.cell_id for cell in cells
                          if counts.get(cell.cell_id, 0) > 1]
            if duplicates:
                print(f"warehouse verify: FAIL (duplicate records) "
                      f"- {len(duplicates)} cell(s) recorded more "
                      f"than once for commit {commit[:12]} config "
                      f"{cfg}: {', '.join(duplicates[:4])}"
                      + (" ..." if len(duplicates) > 4 else ""))
                return 4
    print(f"warehouse verify: ok - every re-recorded key in "
          f"{store.path} is bitwise-reproducible"
          + (f", all {args.matrix} cells recorded"
             + (" exactly once" if args.once else "")
             if args.matrix is not None else ""))
    return 0


def _resolve_commit(store: WarehouseStore,
                    ref: str) -> Optional[str]:
    commits = store.commits()
    if ref in commits:
        return ref
    matches = [commit for commit in commits
               if commit.startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    print(f"warehouse diff: commit {ref!r} "
          f"{'is ambiguous' if matches else 'not in the store'} "
          f"(stored: {', '.join(c[:12] for c in commits) or 'none'})")
    return None


def _cmd_diff(args: argparse.Namespace) -> int:
    store = WarehouseStore(args.store)
    if not store.path.exists():
        print(f"warehouse diff: no store at {store.path}")
        return 2
    base_commit = _resolve_commit(store, args.base)
    current_commit = _resolve_commit(store, args.current)
    if base_commit is None or current_commit is None:
        return 2
    base = store.matrix(base_commit, args.config)
    current = store.matrix(current_commit, args.config)
    result = diff_matrices(base, current,
                           timing_threshold=args.threshold)
    print(f"warehouse diff: {base_commit[:12]} -> "
          f"{current_commit[:12]} ({result.cells} cells)")
    if result.lines:
        for line in result.lines:
            print(line)
    else:
        print("  matrices identical")
    print(f"{result.security_changes} security change(s), "
          f"{result.perf_changes} perf change(s)")
    if args.fail_on_security_drift and result.changed:
        return 1
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    files: List[Path]
    if args.files:
        files = [Path(name) for name in args.files]
    else:
        files = sorted(Path.cwd().glob("BENCH_*.json"))
    missing = [path for path in files if not path.exists()]
    if missing:
        for path in missing:
            print(f"warehouse trajectory: no such file: {path}")
        return 2
    if not files:
        print("warehouse trajectory: no BENCH_*.json summaries "
              "found")
        return 1
    report = build_report(files, threshold=args.threshold)
    for line in report.lines:
        print(line)
    if report.drifts:
        print(f"\n{len(report.perf_drifts)} perf drift(s), "
              f"{len(report.security_drifts)} security drift(s) on "
              f"the newest entry:")
        for drift in report.drifts:
            print(f"  {drift.describe()}")
    else:
        print("\nno drift on the newest entry")
    return 0
