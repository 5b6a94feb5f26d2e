"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``latency``
    Measure an ``SCU(q, s)`` algorithm under a scheduler and compare
    with the exact chain value and the paper's bound.
``classify``
    Run the Section 2.2 progress-classification battery on one of the
    built-in algorithms.
``ramanujan``
    Print the augmented-counter latency ladder: Z(n-1) = Q(n), the
    asymptotic, and the 2 sqrt(n) bound.
``lifting``
    Build and verify the paper's three Markov chain liftings.
``figure5``
    Reproduce Figure 5's completion-rate series (any zoo workload via
    ``--workload``).
``zoo``
    Measure latency vs. departure-from-uniform for every registered
    workload under the epsilon and contention scheduler dials.
``serve``
    Run the durable sweep job daemon (crash-safe queue, lease-based
    recovery, content-addressed dedupe) behind a local HTTP or
    unix-socket API.

Every command treats ``SIGTERM`` like Ctrl-C: active sweep stores are
flushed and the process exits with the conventional code 143 (``serve``
instead drains and exits 0 — its shutdown *is* the graceful path), so
``kill <pid>`` never drops the fsync batch of a long sweep.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

import numpy as np

#: The Figure 5 thread-count series; ``--points k`` takes the first k.
FIGURE5_THREAD_COUNTS = [2, 4, 8, 16, 32]


def _build_telemetry(path):
    """Build the ``--telemetry`` plumbing for a command.

    Returns ``(registry, finish)``: a :class:`MetricsRegistry` with a
    :class:`SchedulerUniformityObserver` attached (or ``None`` when no
    path was given — the zero-overhead default), and a ``finish(command)``
    callable that writes the JSON run report.
    """
    if path is None:
        return None, lambda command: None
    from repro.core.telemetry import (
        MetricsRegistry,
        SchedulerUniformityObserver,
        write_run_report,
    )

    registry = MetricsRegistry()
    observer = SchedulerUniformityObserver()
    observer.attach(registry)

    def finish(command: str) -> None:
        write_run_report(path, registry, command=command, observer=observer)
        print(f"telemetry report written to {path}", file=sys.stderr)

    return registry, finish


def _configure_memo(args: argparse.Namespace, telemetry=None) -> None:
    """Point the exact-chain disk memo at ``--memo-dir``, if given.

    With the flag (or the ``REPRO_MEMO_DIR`` environment variable) set,
    exact chain solves are computed once per ``(n, q, s)`` machine-wide
    and warm-started from disk in every later run.
    """
    memo_dir = getattr(args, "memo_dir", None)
    if memo_dir is not None:
        from repro.core.memo import configure_memo

        configure_memo(memo_dir, telemetry=telemetry)


#: ``--scheduler`` grammar shared by ``latency`` / ``figure5`` / ``zoo``.
SCHEDULER_HELP = (
    "'uniform', 'hardware', 'contention[:FOCUS]' (contention adversary, "
    "default focus 4), or 'epsilon:EPS' (the (1-eps)*uniform + "
    "eps*point-mass departure dial)"
)


def _make_scheduler(name: str):
    from repro.core.scheduler import (
        ContentionScheduler,
        EpsilonUniformScheduler,
        HardwareLikeScheduler,
        UniformStochasticScheduler,
    )

    if name == "uniform":
        return UniformStochasticScheduler()
    if name == "hardware":
        return HardwareLikeScheduler()
    if name == "contention":
        return ContentionScheduler()
    if name.startswith("contention:"):
        return ContentionScheduler(focus=float(name.split(":", 1)[1]))
    if name.startswith("epsilon:"):
        return EpsilonUniformScheduler(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown scheduler {name!r}; expected {SCHEDULER_HELP}")


def cmd_latency(args: argparse.Namespace) -> int:
    from repro.bench.formats import format_table
    from repro.core.scu import SCU

    if getattr(args, "workload", None) is not None:
        return _latency_workload(args)
    spec = SCU(q=args.q, s=args.s)
    telemetry, finish_telemetry = _build_telemetry(
        getattr(args, "telemetry", None)
    )
    _configure_memo(args, telemetry)
    measured = spec.measure(
        args.n,
        args.steps,
        scheduler=_make_scheduler(args.scheduler),
        rng=args.seed,
        batched=True,
        telemetry=telemetry,
    )
    finish_telemetry("latency")
    try:
        exact = spec.exact_system_latency(args.n)
    except (ValueError, MemoryError):
        exact = float("nan")
    rows = [
        (
            f"SCU({args.q},{args.s})",
            args.n,
            measured.system_latency,
            exact,
            spec.predicted_system_latency(args.n),
            measured.max_individual_latency,
            measured.fairness_ratio,
        )
    ]
    print(
        format_table(
            [
                "algorithm",
                "n",
                "measured W",
                "exact W",
                "bound",
                "max W_i",
                "Wi/(nW)",
            ],
            rows,
        )
    )
    return 0


def _latency_workload(args: argparse.Namespace) -> int:
    """``repro latency --workload NAME``: measure a registry workload.

    Any zoo member runs here — the exact-chain and bound columns are
    only populated when the workload is a strict SCU(q, s) member (the
    paper's analysis does not speak to the others).
    """
    from repro.algorithms.registry import get_workload, workload_names
    from repro.bench.formats import format_table
    from repro.core.latency import measure_latencies
    from repro.core.scu import SCU

    try:
        workload = get_workload(args.workload)
    except KeyError:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{list(workload_names())}",
            file=sys.stderr,
        )
        return 2
    telemetry, finish_telemetry = _build_telemetry(
        getattr(args, "telemetry", None)
    )
    _configure_memo(args, telemetry)
    measured = measure_latencies(
        workload.factory_builder(),
        _make_scheduler(args.scheduler),
        n_processes=args.n,
        steps=args.steps,
        memory=workload.memory_builder(),
        rng=args.seed,
        batched=True,
        telemetry=telemetry,
    )
    finish_telemetry("latency")
    exact = bound = float("nan")
    if workload.scu_shape is not None:
        spec = SCU(*workload.scu_shape)
        try:
            exact = spec.exact_system_latency(args.n)
        except (ValueError, MemoryError):
            pass
        bound = spec.predicted_system_latency(args.n)
    rows = [
        (
            workload.name,
            args.n,
            measured.system_latency,
            exact,
            bound,
            measured.max_individual_latency,
            measured.fairness_ratio,
        )
    ]
    print(
        format_table(
            [
                "algorithm",
                "n",
                "measured W",
                "exact W",
                "bound",
                "max W_i",
                "Wi/(nW)",
            ],
            rows,
        )
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.classify import classify_progress

    registry = _algorithm_registry()
    if args.algorithm not in registry:
        print(
            f"unknown algorithm {args.algorithm!r}; choose from "
            f"{sorted(registry)}",
            file=sys.stderr,
        )
        return 2
    factory_builder, memory_builder, crash_when = registry[args.algorithm]
    classification = classify_progress(
        factory_builder,
        memory_builder,
        steps=args.steps,
        crash_when=crash_when,
    )
    print(f"algorithm:                {args.algorithm}")
    print(f"tolerates crash:          {classification.tolerates_crash}")
    print(f"progress under collisions:{classification.progresses_under_collisions}")
    print(f"all progress (uniform):   {classification.all_progress_under_uniform}")
    print(f"all progress (round-robin):{classification.all_progress_under_round_robin}")
    print(f"classified as:            {classification.label}")
    return 0


def _algorithm_registry():
    from repro.algorithms import locks, obstruction
    from repro.algorithms.augmented_counter import (
        augmented_cas_counter,
        make_augmented_counter_memory,
    )
    from repro.algorithms.counter import cas_counter, make_counter_memory
    from repro.algorithms.parallel import parallel_code
    from repro.sim.memory import Memory
    from repro.sim.ops import CAS, Read, Write

    def holding_tas(sim, pid):
        op = sim.processes[pid].pending
        if isinstance(op, CAS):
            return False
        if isinstance(op, Read):
            return op.register == locks.COUNTER
        if isinstance(op, Write):
            return op.register in (locks.COUNTER, locks.LOCK)
        return False

    def holding_ticket(sim, pid):
        op = sim.processes[pid].pending
        if isinstance(op, Read):
            return op.register == locks.COUNTER
        if isinstance(op, Write):
            return op.register in (locks.COUNTER, locks.NOW_SERVING)
        return False

    # Note: Algorithm 1 (unbounded back-off) is deliberately absent: its
    # survivors need longer than any finite crash window to exit their
    # back-offs, so the empirical battery mislabels it as blocking.
    return {
        "cas-counter": (cas_counter, make_counter_memory, None),
        "augmented-counter": (
            augmented_cas_counter,
            make_augmented_counter_memory,
            None,
        ),
        "parallel": (lambda: parallel_code(3), Memory, None),
        "obstruction": (
            obstruction.obstruction_free_counter,
            obstruction.make_obstruction_memory,
            None,
        ),
        "tas-lock": (locks.tas_lock_counter, locks.make_tas_memory, holding_tas),
        "ticket-lock": (
            locks.ticket_lock_counter,
            locks.make_ticket_memory,
            holding_ticket,
        ),
    }


def cmd_ramanujan(args: argparse.Namespace) -> int:
    from repro.bench.formats import format_table
    from repro.stats.ramanujan import (
        counter_return_times,
        ramanujan_q,
        ramanujan_q_asymptotic,
    )

    rows = []
    n = 2
    while n <= args.max_n:
        rows.append(
            (
                n,
                counter_return_times(n)[-1],
                ramanujan_q(n),
                ramanujan_q_asymptotic(n),
                2 * np.sqrt(n),
            )
        )
        n *= 2
    print(
        format_table(
            ["n", "Z(n-1)", "Q(n)", "sqrt(pi n/2) expansion", "2 sqrt(n)"],
            rows,
        )
    )
    return 0


def cmd_lifting(args: argparse.Namespace) -> int:
    from repro.core.lifting import (
        verify_counter_lifting,
        verify_parallel_lifting,
        verify_scu_lifting,
    )

    for name, report in [
        ("Lemma 5  (scan-validate)", verify_scu_lifting(args.n)),
        ("Lemma 10 (parallel, q=3)", verify_parallel_lifting(args.n, 3)),
        ("Lemma 13 (counter)", verify_counter_lifting(args.n)),
    ]:
        status = "OK" if report.is_lifting else "FAILED"
        print(
            f"{name}: {status}  flow error {report.max_flow_error:.2e}, "
            f"stationary error {report.max_stationary_error:.2e}"
        )
    return 0


def cmd_gaps(args: argparse.Namespace) -> int:
    from repro.bench.formats import format_table
    from repro.chains.gaps import (
        counter_gap_mean,
        counter_gap_pmf,
        counter_gap_quantile,
        scu_gap_mean,
        scu_gap_pmf,
        scu_gap_quantile,
    )

    n = args.n
    scu_pmf = scu_gap_pmf(n, args.head)
    counter_pmf = counter_gap_pmf(n, args.head)
    rows = [
        (k + 1, scu_pmf[k], counter_pmf[k]) for k in range(args.head)
    ]
    print(format_table(
        ["gap k", "scan-validate P(gap=k)", "counter P(gap=k)"], rows,
        precision=4,
    ))
    print(f"\nscan-validate: mean {scu_gap_mean(n):.3f}  median "
          f"{scu_gap_quantile(n, 0.5)}  p99 {scu_gap_quantile(n, 0.99)}")
    print(f"counter:       mean {counter_gap_mean(n):.3f}  median "
          f"{counter_gap_quantile(n, 0.5)}  p99 {counter_gap_quantile(n, 0.99)}")
    return 0


def cmd_figure5(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import get_workload, workload_names
    from repro.bench.formats import format_table
    from repro.chains.scu import scu_system_latency_exact
    from repro.core.analysis import (
        completion_rate_prediction,
        worst_case_completion_rate,
    )
    from repro.core.checkpoint import sweep_fingerprint
    from repro.core.latency import measure_latencies, measure_latencies_ensemble
    from repro.core.sweep import select_engine

    try:
        workload = get_workload(args.workload)
    except KeyError:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{list(workload_names())}",
            file=sys.stderr,
        )
        return 2
    if not 1 <= args.points <= len(FIGURE5_THREAD_COUNTS):
        print(
            f"--points must be between 1 and {len(FIGURE5_THREAD_COUNTS)}: "
            f"the Figure 5 series measures thread counts "
            f"{FIGURE5_THREAD_COUNTS} and --points takes a prefix of them "
            f"(got --points {args.points})",
            file=sys.stderr,
        )
        return 2
    thread_counts = FIGURE5_THREAD_COUNTS[: args.points]
    telemetry, finish_telemetry = _build_telemetry(
        getattr(args, "telemetry", None)
    )
    _configure_memo(args, telemetry)
    scheduler = _make_scheduler(args.scheduler)
    engine = select_engine(workload.factory_builder(), scheduler)
    store = None
    if args.store is not None:
        from repro.core.store import ColumnarSweepStore

        # Each thread count is one deterministic measurement (seeded
        # rng=n), so the sweep records per (n, replicate=0) and a
        # resumed run re-measures only the missing thread counts.
        # repeats=1 keeps these stores apart from latency_sweep's,
        # which need at least two replicates.
        fingerprint = sweep_fingerprint(
            seed=0,
            steps=args.steps,
            scheduler=scheduler,
            n_values=thread_counts,
            repeats=1,
            burn_in=None,
            workload=workload.fingerprint,
        )
        store = ColumnarSweepStore.open(
            args.store, fingerprint, resume=args.resume, telemetry=telemetry
        )
    measured = []
    try:
        for n in thread_counts:
            if store is not None and (n, 0) in store.completed:
                measured.append(store.completed[(n, 0)][1])
                continue
            if engine == "ensemble":
                # One replicate, same rng=n seed: the same table either way.
                m = measure_latencies_ensemble(
                    workload.factory_builder(),
                    lambda: _make_scheduler(args.scheduler),
                    n_processes=n,
                    steps=args.steps,
                    seeds=[n],
                    telemetry=telemetry,
                )[0]
            else:
                m = measure_latencies(
                    workload.factory_builder(),
                    _make_scheduler(args.scheduler),
                    n_processes=n,
                    steps=args.steps,
                    memory=workload.memory_builder(),
                    rng=n,
                    batched=True,
                    telemetry=telemetry,
                )
            measured.append(m.completion_rate)
            if store is not None:
                store.record(
                    n, 0, (m.system_latency, m.completion_rate, m.fairness_ratio)
                )
    finally:
        if store is not None:
            store.close()
    predicted = completion_rate_prediction(thread_counts, measured_first=measured[0])
    worst = worst_case_completion_rate(thread_counts)
    # The exact chain models SCU(0,1); other zoo members get NaN here.
    if workload.scu_shape == (0, 1):
        exact = [1 / scu_system_latency_exact(n) for n in thread_counts]
    else:
        exact = [float("nan")] * len(thread_counts)
    rows = list(zip(thread_counts, measured, predicted, exact, worst))
    print(
        format_table(
            ["threads", "measured", "1/sqrt(n) scaled", "exact chain", "worst 1/n"],
            rows,
            precision=4,
        )
    )
    finish_telemetry("figure5")
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    """Latency vs. departure-from-uniform across the workload zoo."""
    import json

    from repro.algorithms.registry import workload_names
    from repro.bench.formats import format_table
    from repro.core.uniformity import (
        contention_family,
        epsilon_family,
        zoo_departure_table,
    )
    from repro.core.scheduler import UniformStochasticScheduler

    names = args.workload if args.workload else None
    if names is not None:
        unknown = sorted(set(names) - set(workload_names()))
        if unknown:
            print(
                f"unknown workload(s) {unknown}; choose from "
                f"{list(workload_names())}",
                file=sys.stderr,
            )
            return 2
    schedulers = [("uniform", UniformStochasticScheduler)]
    schedulers.extend(epsilon_family(args.epsilons))
    schedulers.extend(contention_family(args.focuses))
    table = zoo_departure_table(
        names,
        schedulers,
        n_processes=args.n,
        steps=args.steps,
        seed=args.seed,
        burn_in=args.burn_in,
    )
    for name, points in table["workloads"].items():
        print(f"\n{name} (n={args.n}, steps={args.steps}):")
        rows = [
            (
                p["scheduler"],
                p["tv_distance"],
                p["p50_latency"],
                p["p99_latency"],
                p["system_latency"],
                p["completion_rate"],
                p["fairness_ratio"],
            )
            for p in points
        ]
        print(
            format_table(
                ["scheduler", "TV", "p50", "p99", "W", "rate", "Wi/(nW)"],
                rows,
                precision=4,
            )
        )
    if args.out is not None:
        Path(args.out).write_text(json.dumps(table, indent=2, sort_keys=True))
        print(f"\nzoo table written to {args.out}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.core.checkpoint import flush_active_checkpoints
    from repro.core.runner import RetryPolicy
    from repro.core.telemetry import MetricsRegistry
    from repro.service import SweepService, make_server

    telemetry, finish_telemetry = _build_telemetry(
        getattr(args, "telemetry", None)
    )
    # The /metrics endpoint is part of the API, so the daemon always
    # runs with a live registry; --telemetry only adds the JSON report.
    registry = telemetry if telemetry is not None else MetricsRegistry()
    _configure_memo(args, registry)
    root = Path(args.root)
    service = SweepService(
        root,
        workers=args.workers,
        max_queue=args.max_queue,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        telemetry=registry,
    )
    service.start()
    try:
        server = make_server(
            service,
            host=args.host,
            port=args.port,
            socket_path=args.socket,
        )
    except OSError:
        service.shutdown()
        raise
    endpoint: dict = {"pid": os.getpid()}
    if args.socket is not None:
        endpoint["socket"] = str(args.socket)
        where = f"unix socket {args.socket}"
    else:
        endpoint["host"] = server.server_address[0]
        endpoint["port"] = server.server_address[1]
        where = f"http://{endpoint['host']}:{endpoint['port']}"
    endpoint_path = root / "endpoint.json"
    endpoint_path.write_text(json.dumps(endpoint, sort_keys=True))

    # serve_forever() runs on a background thread so the *main* thread
    # is free to take SIGTERM/SIGINT and drive the shutdown sequence —
    # a handler cannot call server.shutdown() from the serving thread.
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda *_: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    serving = threading.Thread(
        target=server.serve_forever, name="sweep-service-http", daemon=True
    )
    serving.start()
    print(
        f"sweep service on {where} (root {root}, {args.workers} workers, "
        f"queue limit {args.max_queue}); SIGTERM/Ctrl-C to drain and exit",
        file=sys.stderr,
    )
    try:
        stop.wait()
        print("draining sweep service...", file=sys.stderr)
    finally:
        server.shutdown()
        serving.join(timeout=10)
        server.server_close()
        service.shutdown(drain=True)
        flush_active_checkpoints()
        try:
            endpoint_path.unlink()
        except FileNotFoundError:
            pass
        if args.socket is not None:
            try:
                Path(args.socket).unlink()
            except FileNotFoundError:
                pass
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        finish_telemetry("serve")
    print("sweep service stopped cleanly", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Are Lock-Free Concurrent "
        "Algorithms Practically Wait-Free?'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("latency", help="measure SCU(q, s) latencies")
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheduler", default="uniform", help=SCHEDULER_HELP)
    p.add_argument(
        "--workload",
        metavar="NAME",
        default=None,
        help="measure a registered zoo workload instead of the SCU(q, s) "
        "spec (see repro.algorithms.registry; overrides --q/--s)",
    )
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write a structured JSON run report (metrics + scheduler "
        "uniformity) to this path",
    )
    p.add_argument(
        "--memo-dir",
        metavar="DIR",
        default=None,
        help="warm-start exact chain solves from this machine-wide "
        "on-disk memo (also honoured via REPRO_MEMO_DIR)",
    )
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("classify", help="classify an algorithm's progress")
    p.add_argument("algorithm")
    p.add_argument("--steps", type=int, default=30_000)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ramanujan", help="the counter latency ladder")
    p.add_argument("--max-n", type=int, default=1024)
    p.set_defaults(func=cmd_ramanujan)

    p = sub.add_parser("lifting", help="verify the three liftings")
    p.add_argument("-n", type=int, default=5)
    p.set_defaults(func=cmd_lifting)

    p = sub.add_parser("gaps", help="exact completion-gap distributions")
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--head", type=int, default=10)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("figure5", help="reproduce Figure 5's series")
    p.add_argument(
        "--points",
        type=int,
        default=len(FIGURE5_THREAD_COUNTS),
        help=f"how many thread counts to measure, a prefix of "
        f"{FIGURE5_THREAD_COUNTS} (1..{len(FIGURE5_THREAD_COUNTS)})",
    )
    p.add_argument("--steps", type=int, default=60_000)
    p.add_argument("--scheduler", default="uniform", help=SCHEDULER_HELP)
    p.add_argument(
        "--workload",
        metavar="NAME",
        default="cas-counter",
        help="which registered zoo workload to sweep (the workload name "
        "is folded into the store fingerprint)",
    )
    p.add_argument(
        "--store",
        "--checkpoint",
        dest="store",
        metavar="DIR",
        default=None,
        help="append finished thread counts to this columnar sweep "
        "store directory (--checkpoint is another spelling)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip thread counts already in --store "
        "(parameters must match the stored fingerprint)",
    )
    p.add_argument(
        "--memo-dir",
        metavar="DIR",
        default=None,
        help="warm-start exact chain solves from this machine-wide "
        "on-disk memo (also honoured via REPRO_MEMO_DIR)",
    )
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write a structured JSON run report (metrics + scheduler "
        "uniformity) to this path",
    )
    p.set_defaults(func=cmd_figure5)

    def _float_list(text: str) -> List[float]:
        return [float(part) for part in text.split(",") if part.strip()]

    p = sub.add_parser(
        "zoo",
        help="latency vs departure-from-uniform across the workload zoo",
    )
    p.add_argument(
        "--workload",
        metavar="NAME",
        action="append",
        default=None,
        help="zoo member to measure (repeatable; default: every "
        "registered workload)",
    )
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--burn-in",
        type=int,
        default=None,
        help="steps discarded before latency percentiles (default steps/10)",
    )
    p.add_argument(
        "--epsilons",
        type=_float_list,
        default=[0.0, 0.2, 0.4, 0.6, 0.8],
        metavar="E1,E2,...",
        help="epsilon-from-uniform departure dial",
    )
    p.add_argument(
        "--focuses",
        type=_float_list,
        default=[2.0, 4.0, 8.0],
        metavar="F1,F2,...",
        help="contention-adversary focus dial",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the JSON zoo table here",
    )
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "serve",
        help="run the durable sweep job daemon (HTTP or unix-socket API)",
    )
    p.add_argument(
        "--root",
        metavar="DIR",
        required=True,
        help="service root: the job ledger, the point journal and "
        "endpoint.json all live here",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = pick a free one; read it from "
        "<root>/endpoint.json)",
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on this unix socket instead of TCP",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads running jobs (each job is one sweep)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="admission limit: queued jobs beyond this are rejected "
        "with a structured 429",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a worker may go without heartbeating before its "
        "job is re-leased",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between lease renewals (default: lease-ttl / 3)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failed-job retries before quarantining it as poisoned",
    )
    p.add_argument(
        "--memo-dir",
        metavar="DIR",
        default=None,
        help="warm-start exact chain solves from this machine-wide "
        "on-disk memo (also honoured via REPRO_MEMO_DIR)",
    )
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="additionally write a JSON run report on shutdown "
        "(/metrics serves the live registry regardless)",
    )
    p.set_defaults(func=cmd_serve)

    return parser


class _Terminated(Exception):
    """Raised by the ``SIGTERM`` handler to unwind like Ctrl-C does."""


def _raise_terminated(signum, frame):
    raise _Terminated()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Ctrl-C exits with the conventional code 130, ``SIGTERM`` (a plain
    ``kill <pid>``) with 143 — both after flushing any active sweep
    store, so an interrupted long run can be resumed instead of
    losing its fsync batch to a traceback.  ``serve`` installs its own
    graceful-drain handlers and exits 0.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM parity with KeyboardInterrupt (signal handlers can only
    # be installed from the main thread; embedded callers keep theirs).
    previous_term = None
    if threading.current_thread() is threading.main_thread():
        try:
            previous_term = signal.signal(signal.SIGTERM, _raise_terminated)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            previous_term = None
    try:
        return args.func(args)
    except (KeyboardInterrupt, _Terminated) as exc:
        from repro.core.checkpoint import flush_active_checkpoints

        # Stores opened by a sweep are usually already closed by the
        # time the interrupt unwinds to here (the sweep's finally block
        # runs first), so "nothing left to flush" does NOT mean "nothing
        # was saved" — if the command was given a store path and it
        # exists, it is resumable.
        flushed = flush_active_checkpoints()
        store = getattr(args, "store", None)
        saved = flushed > 0 or (store is not None and Path(store).exists())
        note = " (checkpoint saved; rerun with --resume)" if saved else ""
        if isinstance(exc, _Terminated):
            print(f"terminated{note}", file=sys.stderr)
            return 143
        print(f"interrupted{note}", file=sys.stderr)
        return 130
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
