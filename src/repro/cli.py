"""The ``kondo`` command-line interface.

Subcommands:

* ``kondo programs`` — list the benchmark/real-application programs.
* ``kondo analyze`` — run the fuzz+carve pipeline for a program, print the
  analysis summary (and optionally precision/recall vs ground truth).
* ``kondo debloat`` — analyze and write a debloated ``.knds`` subset of a
  ``.knd`` data file.
* ``kondo make-data`` — create a KND data file for experimentation.
* ``kondo run`` — execute a program against a ``.knd``/``.knds`` file and
  report hit/miss statistics (the user-side runtime).
* ``kondo experiment`` — regenerate a paper table/figure by name (or
  ``all`` for the complete evaluation).
* ``kondo visualize`` — ASCII overlay of a carved subset vs ground truth.
* ``kondo check`` — static AST invariant linter: replay determinism,
  atomic writes, error taxonomy, layering, resource hygiene, durable writes, bounded waits, vectorized audit hot paths,
  bounded service-layer queue/socket operations, plus the
  interprocedural concurrency rules — lock-order cycles, blocking
  under a lock, fork safety — shard-merge determinism, and fenced
  fleet-store writes (rules
  KND001–KND015; see ``kondo check --list-rules``).  One serial pass
  that writes no file besides its report; exits 0 clean, 1 on
  findings, 2 on analyzer failure (a path with no Python sources
  included).
* ``kondo fsck`` — deep-verify a KND/KNDS file: header envelope,
  every payload span, extent-directory consistency, journal state.
  Exit 0 clean / 1 localized span damage / 2 structural damage.
* ``kondo repair`` — re-fetch only the corrupt spans of a bundle from
  its origin file, committed through the durability journal.
* ``kondo rollback`` — restore a prior journal generation of a bundle
  (as a new generation, so history stays append-only).
* ``kondo serve`` — run the campaign service daemon: a durable,
  fenced job store behind a unix socket, supervised units with retry
  budgets and dead-lettering, sharded campaigns with lost-shard
  recovery and straggler hedging (``--hedge-after``), multi-host fleets
  over a shared store (``--fleet``), and graceful drain on SIGTERM.
* ``kondo submit`` / ``kondo status`` / ``kondo cancel`` /
  ``kondo drain`` — client commands against a running ``kondo serve``
  (``submit --shards N`` shards a campaign; ``status --follow``
  streams its progress events live).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.arraymodel import ArrayFile, ArraySchema, DebloatedArrayFile, KondoRuntime
from repro.core import Kondo
from repro.errors import KondoError
from repro.fuzzing import FuzzConfig
from repro.metrics import accuracy
from repro.workloads import default_dims, get_program, program_names


def _parse_dims(text: Optional[str], program) -> tuple:
    if not text:
        return default_dims(program)
    dims = tuple(int(x) for x in text.split("x"))
    return dims


def cmd_programs(_args) -> int:
    for name in program_names():
        prog = get_program(name)
        print(f"{name:8s} {prog.ndim}D  {prog.description}")
    return 0


def cmd_analyze(args) -> int:
    program = get_program(args.program)
    if args.audit_data:
        with ArrayFile.open(args.audit_data) as f:
            data_dims = f.schema.dims
        dims = _parse_dims(args.dims, program) if args.dims else data_dims
        if tuple(dims) != tuple(data_dims):
            print(f"error: --dims {tuple(dims)} != --audit-data file dims "
                  f"{tuple(data_dims)}", file=sys.stderr)
            return 1
    else:
        dims = _parse_dims(args.dims, program)
    supervised = (args.run_timeout is not None
                  or args.run_memory is not None)
    resilience = None
    if args.checkpoint or supervised:
        from repro.resilience.config import ResilienceConfig

        resilience = ResilienceConfig(
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            run_timeout_s=args.run_timeout,
            run_memory_mb=args.run_memory,
            # A supervised kill should quarantine the run and keep the
            # campaign going — that is the point of supervising.
            quarantine=supervised,
        )
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 1
    kondo = Kondo(
        program, dims,
        fuzz_config=FuzzConfig(rng_seed=args.seed),
        carver=args.carver,
        resilience=resilience,
    )
    test = None
    if args.audit_data:
        test = kondo.make_test(mode="audited", data_path=args.audit_data)
    result = kondo.analyze(
        time_budget_s=args.budget,
        test=test,
        resume_from=args.checkpoint if args.resume else None,
    )
    print(result.summary())
    if result.fuzz.quarantined:
        for q in result.fuzz.quarantined:
            label = q.verdict or "EXCEPTION"
            print(f"quarantined [{label}] iteration {q.iteration}: {q.error}")
    if args.save:
        from repro.core.persistence import AnalysisArtifact

        AnalysisArtifact.from_result(result).save(args.save)
        print(f"saved analysis artifact to {args.save}")
    if args.score:
        acc = accuracy(program.ground_truth_flat(dims), result.carved_flat)
        print(
            f"vs ground truth: precision={acc.precision:.3f} "
            f"recall={acc.recall:.3f}"
        )
    return 0


def cmd_debloat(args) -> int:
    program = get_program(args.program)
    with ArrayFile.open(args.data) as f:
        dims = f.schema.dims
        original = f.file_nbytes
    if args.analysis:
        from repro.core.persistence import AnalysisArtifact

        artifact = AnalysisArtifact.load(args.analysis)
        subset = artifact.debloat_file(args.data, args.out,
                                       granularity=args.granularity)
        print(f"debloated from saved analysis {args.analysis} "
              f"({artifact.iterations} tests, {artifact.n_hulls} hulls)")
    else:
        kondo = Kondo(program, dims,
                      fuzz_config=FuzzConfig(rng_seed=args.seed))
        result = kondo.analyze(time_budget_s=args.budget)
        subset = kondo.debloat_file(args.data, args.out, result,
                                    granularity=args.granularity)
        print(result.summary())
    print(
        f"wrote {args.out}: {subset.file_nbytes} bytes "
        f"({100 * (1 - subset.file_nbytes / original):.1f}% smaller than "
        f"{original} bytes)"
    )
    subset.close()
    return 0


def cmd_make_data(args) -> int:
    dims = tuple(int(x) for x in args.dims.split("x"))
    rng = np.random.default_rng(args.seed)
    data = rng.standard_normal(dims)
    chunks = (
        tuple(int(x) for x in args.chunks.split("x")) if args.chunks else None
    )
    f = ArrayFile.create(
        args.out, ArraySchema(dims, args.dtype, chunks=chunks), data
    )
    print(f"wrote {args.out}: dims={dims} dtype={args.dtype} "
          f"({f.file_nbytes} bytes)")
    f.close()
    return 0


def cmd_run(args) -> int:
    program = get_program(args.program)
    v = tuple(float(x) for x in args.value.split(","))
    if args.data.endswith("knds"):
        subset = DebloatedArrayFile.open(args.data)
        runtime = KondoRuntime(subset)
        stats = runtime.run_program(program, v, subset.schema.dims)
        subset.close()
        print(
            f"{program.name}{v}: {stats.reads} reads, {stats.hits} hits, "
            f"{stats.misses} data-missing"
        )
        return 0 if stats.misses == 0 else 2
    with ArrayFile.open(args.data) as f:
        reads = program.run(lambda idx: f.read_point(idx), v, f.schema.dims)
    print(f"{program.name}{v}: {reads} reads, all served")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments.runall import experiment_runners, run_all

    runners = experiment_runners()
    if args.name == "all":
        result = run_all()
        print(result.format())
        return 0 if not result.failed else 1
    if args.name not in runners:
        print(f"unknown experiment {args.name!r}; "
              f"choose from {sorted(runners) + ['all']}", file=sys.stderr)
        return 1
    print(runners[args.name]().format())
    return 0


def cmd_visualize(args) -> int:
    from repro.metrics import accuracy as _accuracy
    from repro.viz import render_comparison

    program = get_program(args.program)
    if program.ndim != 2:
        print("error: visualize supports 2-D programs only", file=sys.stderr)
        return 1
    dims = _parse_dims(args.dims, program)
    kondo = Kondo(program, dims, fuzz_config=FuzzConfig(rng_seed=args.seed))
    result = kondo.analyze(time_budget_s=args.budget)
    truth = program.ground_truth_flat(dims)
    acc = _accuracy(truth, result.carved_flat)
    print(f"{program.name}: precision={acc.precision:.3f} "
          f"recall={acc.recall:.3f} hulls={result.carve.n_hulls}")
    print(render_comparison(truth, result.carved_flat, dims,
                            width=args.width))
    return 0


def cmd_check(args) -> int:
    from repro.analysis.engine import run_from_args

    return run_from_args(args)


def cmd_fsck(args) -> int:
    import json as _json

    from repro.resilience.durability import fsck_file

    report = fsck_file(args.path, check_journal=not args.no_journal)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return report.exit_code


def cmd_repair(args) -> int:
    import json as _json

    from repro.resilience.durability import repair_bundle

    report = repair_bundle(
        args.path, source_path=args.source,
        keep_generations=args.keep_generations,
    )
    if args.json:
        print(_json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return 0 if report.clean_after else 1


def cmd_rollback(args) -> int:
    from repro.resilience.durability import BundleJournal

    journal = BundleJournal.open(args.path)
    if args.list:
        current = journal.current_generation
        for gen in journal.generations():
            rec = journal.committed_record(gen) or {}
            mark = "*" if gen == current else " "
            print(f"{mark} gen {gen}  action={rec.get('action', '?')}"
                  + (f"  restored gen {rec['rolled_back_to']}"
                     if rec.get("rolled_back_to") is not None else ""))
        return 0
    gen = journal.rollback(to_gen=args.to)
    restored = args.to if args.to is not None else "previous generation"
    print(f"{args.path}: restored {restored} as generation {gen}")
    return 0


def cmd_serve(args) -> int:
    import signal as _signal
    import threading as _threading

    from repro.service import KondoService

    service = KondoService(
        args.state_dir,
        socket_path=args.socket,
        workers=args.workers,
        queue_limit=args.queue_limit,
        lease_ttl_s=args.lease_ttl,
        default_deadline_s=args.deadline,
        hedge_after_s=args.hedge_after,
        shared_dir=args.fleet,
        worker=args.worker_id,
        registry_ttl_s=args.registry_ttl,
    )
    service.start()

    def _on_signal(_signum, _frame):
        # Graceful drain off the signal context: stop admitting and let
        # the admitted work finish.
        _threading.Thread(target=service.drain, name="kondo-serve-drain",
                          daemon=True).start()

    _signal.signal(_signal.SIGTERM, _on_signal)
    _signal.signal(_signal.SIGINT, _on_signal)
    print(f"kondo serve: listening on {service.socket_path} "
          f"(worker {service.worker}, epoch {service.store.epoch}, "
          f"{args.workers} worker(s), queue limit {args.queue_limit}"
          + (f", shared store {args.fleet}" if args.fleet else "") + ")")
    sys.stdout.flush()
    while not service.wait(timeout_s=1.0):
        pass
    print("kondo serve: drained")
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.socket, timeout_s=args.timeout)


def cmd_submit(args) -> int:
    import json as _json

    from repro.service import JobSpec

    program = get_program(args.program)
    spec = JobSpec(
        program=args.program,
        dims=_parse_dims(args.dims, program),
        seed=args.seed,
        max_iter=args.max_iter,
        budget_s=args.budget,
        carver=args.carver,
        shards=args.shards,
        deadline_s=args.deadline,
    )
    client = _service_client(args)
    response = client.submit(spec)
    if not args.wait:
        print(_json.dumps(response, indent=2, sort_keys=True))
        return 0
    final = client.wait_for(response["job"], timeout_s=args.wait_timeout)
    print(_json.dumps(final, indent=2, sort_keys=True))
    return 0 if final["state"] == "done" else 1


def cmd_status(args) -> int:
    import json as _json

    client = _service_client(args)
    if args.follow:
        if not args.job:
            print("error: --follow needs a job id", file=sys.stderr)
            return 1
        final_state = None
        for event in client.follow(args.job, timeout_s=args.timeout):
            if event.get("kind") == "keepalive":
                continue
            if event.get("kind") == "end":
                final_state = event.get("state")
                print(_json.dumps(event, sort_keys=True))
                break
            print(_json.dumps(event, sort_keys=True))
            sys.stdout.flush()
        return 0 if final_state == "done" else 1
    response = client.status(args.job)
    if response.get("partitioned"):
        # Fleet daemon in degraded mode: what follows is its last good
        # local snapshot, not live shared-store state.
        print(f"warning: fleet daemon {response.get('worker', '?')} is "
              f"PARTITIONED from its shared store; status below is the "
              f"read-only local snapshot", file=sys.stderr)
    print(_json.dumps(response, indent=2, sort_keys=True))
    return 0


def cmd_cancel(args) -> int:
    import json as _json

    response = _service_client(args).cancel(args.job)
    print(_json.dumps(response, indent=2, sort_keys=True))
    return 0


def cmd_drain(args) -> int:
    client = _service_client(args)
    client.drain()
    print("drain requested")
    if not args.wait:
        return 0
    # The daemon removes its socket after the drain completes; poll the
    # ping until it stops answering, bounded by --timeout overall.
    import time as _time

    from repro.errors import ServiceProtocolError

    deadline = _time.monotonic() + args.wait_timeout
    while _time.monotonic() < deadline:
        try:
            client.ping()
        except ServiceProtocolError:
            print("drained")
            return 0
        _time.sleep(0.2)
    print("error: daemon still answering after drain timeout",
          file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kondo",
        description="Provenance-driven data debloating (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("programs", help="list available programs")

    p = sub.add_parser("analyze", help="fuzz + carve a program's data subset")
    p.add_argument("program")
    p.add_argument("--dims", help="array shape, e.g. 128x128")
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--carver", choices=("merge", "simple"), default="merge")
    p.add_argument("--score", action="store_true",
                   help="also report precision/recall vs ground truth")
    p.add_argument("--save", help="persist the analysis artifact (.npz)")
    p.add_argument("--checkpoint",
                   help="write periodic campaign checkpoints to this path")
    p.add_argument("--checkpoint-every", type=int, default=100,
                   help="iterations between checkpoints (default 100)")
    p.add_argument("--resume", action="store_true",
                   help="resume a crashed campaign from --checkpoint; the "
                        "resumed run completes exactly as the "
                        "uninterrupted one would have")
    p.add_argument("--run-timeout", type=float, metavar="SECONDS",
                   help="supervise every debloat test in its own child "
                        "process with this wall-clock budget (and a "
                        "matching CPU rlimit); killed runs are "
                        "quarantined with verdict TIMEOUT")
    p.add_argument("--run-memory", type=int, metavar="MIB",
                   help="address-space headroom per supervised run, "
                        "enforced by RLIMIT_AS in the child; overruns "
                        "are quarantined with verdict OOM")
    p.add_argument("--audit-data", metavar="KND",
                   help="run the debloat tests in audited mode against "
                        "this real KND file (offsets come from recorded "
                        "I/O events instead of direct offset replay)")

    p = sub.add_parser("debloat", help="write a debloated .knds subset")
    p.add_argument("program")
    p.add_argument("data", help="source .knd file")
    p.add_argument("out", help="destination .knds file")
    p.add_argument("--budget", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analysis", help="reuse a saved analysis artifact")
    p.add_argument("--granularity", choices=("element", "chunk"),
                   default="element")

    p = sub.add_parser("make-data", help="create a KND data file")
    p.add_argument("out")
    p.add_argument("--dims", required=True, help="e.g. 128x128")
    p.add_argument("--dtype", default="f8")
    p.add_argument("--chunks", help="e.g. 16x16")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="run a program against a data file")
    p.add_argument("program")
    p.add_argument("data", help=".knd or .knds file")
    p.add_argument("--value", required=True, help="comma-separated v")

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", help="e.g. fig7, table3, ablations, or 'all'")

    p = sub.add_parser("visualize",
                       help="ASCII overlay of carved subset vs ground truth")
    p.add_argument("program")
    p.add_argument("--dims", help="array shape, e.g. 128x128")
    p.add_argument("--budget", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=64)

    p = sub.add_parser("fsck",
                       help="deep-verify a KND/KNDS file (exit 0 clean, "
                            "1 span damage, 2 structural)")
    p.add_argument("path", help=".knd or .knds file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--no-journal", action="store_true",
                   help="skip journal inspection")

    p = sub.add_parser("repair",
                       help="re-fetch a bundle's corrupt spans from its "
                            "origin, journaled")
    p.add_argument("path", help="damaged .knds bundle")
    p.add_argument("--source",
                   help="origin .knd to re-fetch damaged spans from "
                        "(optional when a journal snapshot suffices)")
    p.add_argument("--keep-generations", type=int, default=0,
                   help="prune journal snapshots beyond the newest N "
                        "(0 = keep all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")

    p = sub.add_parser("rollback",
                       help="restore a prior journal generation of a bundle")
    p.add_argument("path", help=".knds bundle with a journal")
    p.add_argument("--to", type=int,
                   help="generation to restore (default: the previous one)")
    p.add_argument("--list", action="store_true",
                   help="list available generations and exit")

    p = sub.add_parser("serve",
                       help="run the campaign service daemon "
                            "(durable store, fenced leases, graceful "
                            "drain on SIGTERM)")
    p.add_argument("state_dir",
                   help="state directory: the daemon's socket, and its "
                        "campaign store unless --fleet names another")
    p.add_argument("--socket",
                   help="unix socket path (default STATE_DIR/kondo.sock)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads executing jobs (default 1)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="outstanding-job admission bound; submissions "
                        "beyond it are REJECTED-BUSY (default 16)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a worker lease survives without a "
                        "heartbeat before its job requeues (default 30)")
    p.add_argument("--deadline", type=float, default=600.0,
                   help="default per-attempt wall budget for jobs that "
                        "do not carry their own (default 600)")
    p.add_argument("--hedge-after", type=float,
                   help="straggler threshold in seconds: a unit leased "
                        "this long gets a speculative hedged duplicate "
                        "(default off)")
    p.add_argument("--fleet", metavar="SHARED_DIR",
                   help="keep the campaign store in this directory "
                        "shared with other daemons, on this host or "
                        "others, instead of in STATE_DIR")
    p.add_argument("--worker-id",
                   help="worker id, unique across the fleet (default: "
                        "'local' without --fleet, generated with it)")
    p.add_argument("--registry-ttl", type=float, default=10.0,
                   help="seconds without a heartbeat before fleet "
                        "peers treat this daemon as dead and reclaim "
                        "its shards (default 10)")

    def _client_args(p):
        p.add_argument("--socket", required=True,
                       help="the daemon's unix socket path")
        p.add_argument("--timeout", type=float, default=10.0,
                       help="per-request socket timeout (default 10s)")

    p = sub.add_parser("submit",
                       help="submit a debloat job to a running "
                            "kondo serve")
    _client_args(p)
    p.add_argument("program")
    p.add_argument("--dims", help="array shape, e.g. 128x128")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int,
                   help="fuzz iteration budget override")
    p.add_argument("--budget", type=float,
                   help="campaign time budget in seconds")
    p.add_argument("--carver", choices=("merge", "simple"),
                   default="merge")
    p.add_argument("--shards", type=int, default=0,
                   help="shard the campaign into N leasable units with "
                        "independent retry/hedging; the merged result "
                        "is bit-identical for every N (default 0 = "
                        "unsharded)")
    p.add_argument("--deadline", type=float,
                   help="per-attempt wall budget, propagated into the "
                        "supervised run timeout")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job reaches a terminal state")
    p.add_argument("--wait-timeout", type=float, default=300.0,
                   help="bound on --wait polling (default 300s)")

    p = sub.add_parser("status", help="query a kondo serve daemon")
    _client_args(p)
    p.add_argument("job", nargs="?",
                   help="job id (omit for the full table)")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's progress events as JSON lines "
                        "until it reaches a terminal state (exit 0 iff "
                        "done)")

    p = sub.add_parser("cancel", help="cancel a queued job")
    _client_args(p)
    p.add_argument("job", help="job id to cancel")

    p = sub.add_parser("drain",
                       help="gracefully drain a kondo serve daemon")
    _client_args(p)
    p.add_argument("--wait", action="store_true",
                   help="block until the daemon actually exits")
    p.add_argument("--wait-timeout", type=float, default=120.0,
                   help="bound on --wait (default 120s)")

    from repro.analysis.engine import add_arguments as add_check_arguments

    p = sub.add_parser("check",
                       help="static AST invariant linter (KND001-KND015)")
    add_check_arguments(p)

    return parser


_COMMANDS = {
    "programs": cmd_programs,
    "visualize": cmd_visualize,
    "analyze": cmd_analyze,
    "debloat": cmd_debloat,
    "make-data": cmd_make_data,
    "run": cmd_run,
    "experiment": cmd_experiment,
    "check": cmd_check,
    "fsck": cmd_fsck,
    "repair": cmd_repair,
    "rollback": cmd_rollback,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "cancel": cmd_cancel,
    "drain": cmd_drain,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KondoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
