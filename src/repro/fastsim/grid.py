"""Parallel grid-sweep orchestration over the batched sweep engine.

The sweep engine (:mod:`repro.fastsim.sweep`) made the *replication* axis
batch-first; this module does the same for the *grid* axis.  Every
experiment is a family of parameter points — (deployment, protocol kind,
kwargs) — and those points are embarrassingly parallel, so they are
declared as data (:class:`GridSpec`) and executed by :func:`run_grid`:

* **seed spawning** — point ``i`` of a grid with master seed ``s`` draws
  its (deployment, derived-kwargs, sweep) seeds from
  ``SeedSequence(s).spawn(P)[i].spawn(3)``.  Seeds are fixed *before*
  execution and carried by the point, so ``jobs=1`` and ``jobs=N`` runs
  are result-identical bit for bit, and no two points can collide the way
  ad hoc ``seed + n`` arithmetic could.
* **process fan-out** — pending points run on a
  ``concurrent.futures.ProcessPoolExecutor`` with the ``fork`` start
  method.  The spec (closures included) reaches workers through fork
  inheritance; the only objects pickled are point indices going in and
  :class:`~repro.fastsim.sweep.SweepResult` payloads coming out.
* **fork inheritance** — before the pool starts, the parent builds
  each distinct deployment's gain structure exactly once, on its own
  :class:`~repro.network.network.Network` object
  (:attr:`~repro.network.network.Network.gain_operator`: the dense
  ``(n, n)`` matrix in dense mode, the sparse backend's CSR triple and
  cell index in sparse mode, DESIGN.md §2.2).  Workers inherit those
  objects copy-on-write and run every point on them with the same
  :func:`_execute` call as the in-process loop, so the gain pages are
  shared by ``fork`` and heavy arrays are never copied or pickled.
* **result cache** — with a cache directory configured, each point's
  result is stored content-addressed under
  :func:`repro.fastsim.cache.point_key`; re-runs (and ``--scale full``
  upgrades that share points with an earlier quick run) replay hits
  without touching the worker pool.
* **mobility descriptors** — a point whose kwargs carry a
  :class:`~repro.deploy.mobility.MobilityModel` runs over a moving
  deployment (DESIGN.md §7).  The model is a tiny seeded descriptor:
  it rides to workers through the fork payload next to the parent's
  networks, each worker rebuilds the identical trajectory
  deterministically inside ``run_sweep``, and the model's
  ``identity()`` participates in the cache key — so ``jobs=N`` stays
  bitwise equal to ``jobs=1`` for dynamic sweeps and dynamic results
  never collide with static ones.
* **remote execution** — ``run_grid(workers=[addr, ...])`` dispatches
  pending points as ``sweep`` requests to one or more resident-network
  query daemons (:mod:`repro.service`, DESIGN.md §8) instead of forking
  a pool: deployments stay hot in each daemon's pool across grid runs
  (and across interactive queries), rather than being rebuilt per run.
  A daemon rebuilds each network from the parent's
  ``Network.descriptor()`` into a bitwise identical gain structure,
  and ``run_sweep`` arguments travel verbatim;
  ``post`` hooks run client-side on the parent's network instance.
  Points are pulled from a shared queue by per-worker dispatch tasks
  (:mod:`repro.distrib`, DESIGN.md §9), coordinated through the on-disk
  cache as the result bus, with per-request timeouts, straggler
  re-dispatch guarded by worker-side lease files, reconnect with
  backoff, and transparent fallback of orphaned points to the local
  pool.  Cache keys are the ordinary
  :func:`~repro.fastsim.cache.point_key` on both sides, so a remote run
  and a CLI run replay each other's entries, and seeds are fixed at
  preparation time, so placement cannot change results: ``workers=N``
  output is bitwise identical to ``jobs=1``.

DESIGN.md §6.3 records the contracts; ``benchmarks/bench_grid.py`` tracks
the speedup and asserts parallel/serial result identity.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.errors import ProtocolError
from repro.fastsim.cache import ResultCache, point_key
from repro.fastsim.journal import SweepJournal, sweep_key
from repro.fastsim.sweep import SweepResult, run_sweep
from repro.network.network import Network


@dataclass(frozen=True)
class Derived:
    """A protocol kwarg computed from the deployed network.

    Some kwargs cannot be written down before the deployment exists (an
    adversarial wake-up schedule needs the station positions).  Wrapping
    ``fn(network, rng)`` in ``Derived`` defers them: the parent resolves
    every derived kwarg right after building the point's deployment,
    using the point's derive-rng, so resolved values are identical across
    serial and parallel execution and participate in the cache key.
    """

    fn: Callable[[Network, np.random.Generator], object]


@dataclass
class GridPoint:
    """One point of a grid sweep: a deployment, a protocol, its kwargs.

    :param kind: protocol kind, one of
        :func:`repro.fastsim.sweep.sweep_kinds`.
    :param deployment: factory ``rng -> Network``; deterministic factories
        may ignore the rng.
    :param n_replications: replications of the point's sweep.
    :param label: display label used in reports.
    :param constants: protocol constants (``None`` = practical defaults,
        resolved by ``run_sweep``).
    :param kwargs: protocol kwargs; values may be :class:`Derived`.
    :param post: optional ``(network, sweep) -> dict`` hook, executed
        where the sweep ran (i.e. inside the worker), so per-point
        analysis parallelizes with the simulation; its dict lands in
        :attr:`GridPointResult.extras` and is cached with the sweep.
    :param share_deployment: points carrying the same non-``None`` key
        share one deployment instance (built once, with the derive
        discipline of the first such point), one fingerprint and one
        gain structure — e.g. several protocols compared on the same
        random network.
    """

    kind: str
    deployment: Callable[[np.random.Generator], Network]
    n_replications: int
    label: str = ""
    constants: Optional[ProtocolConstants] = None
    kwargs: dict = field(default_factory=dict)
    post: Optional[Callable[[Network, SweepResult], dict]] = None
    share_deployment: Optional[str] = None


@dataclass
class GridSpec:
    """A declarative grid sweep: the points plus the master seed."""

    points: list
    seed: int
    name: str = "grid"


@dataclass
class GridPointResult:
    """Outcome of one grid point.

    :param point: the spec entry this result answers.
    :param network: the point's deployment (parent-side instance; its
        lazy caches are independent of any worker state).
    :param sweep: the point's :class:`SweepResult`.
    :param extras: output of the point's ``post`` hook (``{}`` if none).
    :param cached: whether the result was replayed from the on-disk cache.
    """

    point: GridPoint
    network: Network
    sweep: SweepResult
    extras: dict = field(default_factory=dict)
    cached: bool = False


@dataclass
class GridOptions:
    """Execution knobs for :func:`run_grid`, settable process-wide.

    :param jobs: worker processes (``<= 1`` = run in-process).
    :param cache_dir: result-cache directory (``None`` = caching off).
    :param workers: addresses of :mod:`repro.service` daemons
        (``"unix:<path>"`` / ``"tcp:<host>:<port>"``, typically one per
        host); pending points are sharded across them through the cache
        result bus (DESIGN.md §9), and whatever they cannot complete
        runs locally.
    :param request_timeout: per-request timeout in seconds for worker
        dispatch (``None`` = the client default,
        :data:`repro.service.client.DEFAULT_REQUEST_TIMEOUT`).
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    workers: Optional[list] = None
    request_timeout: Optional[float] = None


_DEFAULT_OPTIONS = GridOptions()


def set_default_grid_options(options: GridOptions) -> None:
    """Install process-wide defaults (the CLI's ``--jobs``/``--cache-dir``
    land here; experiment modules call :func:`run_grid` with no options
    and inherit them)."""
    global _DEFAULT_OPTIONS
    _DEFAULT_OPTIONS = options


def get_default_grid_options() -> GridOptions:
    """The process-wide execution defaults :func:`run_grid` inherits."""
    return _DEFAULT_OPTIONS


# ----------------------------------------------------------------------
# preparation (parent side)
# ----------------------------------------------------------------------
@dataclass
class _Prepared:
    """A point with its deployment built, kwargs resolved, seed fixed."""

    point: GridPoint
    network: Network
    dep_index: int
    kwargs: dict
    seed: np.random.SeedSequence
    key: str = ""


def _post_name(post) -> str:
    if post is None:
        return ""
    return f"{getattr(post, '__module__', '?')}.{getattr(post, '__qualname__', repr(post))}"


def _prepare(spec: GridSpec) -> tuple[list[_Prepared], list[Network]]:
    """Build deployments, resolve kwargs and fix seeds for every point.

    Deployment sharing: points with equal ``share_deployment`` keys get
    the network built for the first of them; distinct deployments are
    deduplicated by fingerprint as well, so a fork pool builds at most
    one gain structure per distinct fingerprint (``deployments`` holds
    the first network of each, ``dep_index`` points into it).
    """
    points = list(spec.points)
    if not points:
        raise ProtocolError(f"grid {spec.name!r} has no points")
    point_seqs = np.random.SeedSequence(spec.seed).spawn(len(points))
    shared: dict[str, Network] = {}
    deployments: list[Network] = []
    dep_index: dict[str, int] = {}
    prepared: list[_Prepared] = []
    for point, pseq in zip(points, point_seqs):
        deploy_seq, derive_seq, sweep_seq = pseq.spawn(3)
        group = point.share_deployment
        if group is not None and group in shared:
            net = shared[group]
        else:
            net = point.deployment(np.random.default_rng(deploy_seq))
            if not isinstance(net, Network):
                raise ProtocolError(
                    f"deployment factory of point {point.label!r} returned "
                    f"{type(net).__name__}, expected Network"
                )
            if group is not None:
                shared[group] = net
        fingerprint = net.fingerprint()
        if fingerprint not in dep_index:
            dep_index[fingerprint] = len(deployments)
            deployments.append(net)
        derive_rng = np.random.default_rng(derive_seq)
        kwargs = {
            k: (v.fn(net, derive_rng) if isinstance(v, Derived) else v)
            for k, v in point.kwargs.items()
        }
        prepared.append(
            _Prepared(
                point=point,
                network=net,
                dep_index=dep_index[fingerprint],
                kwargs=kwargs,
                seed=sweep_seq,
            )
        )
    for prep in prepared:
        prep.key = point_key(
            kind=prep.point.kind,
            network_fingerprint=prep.network.fingerprint(),
            constants=prep.point.constants,
            seed=prep.seed,
            n_replications=prep.point.n_replications,
            kwargs=prep.kwargs,
            post_name=_post_name(prep.point.post),
        )
    return prepared, deployments


def _execute(prep: _Prepared, network: Network) -> tuple[SweepResult, dict]:
    """Run one prepared point on ``network`` (worker or in-process)."""
    sweep = run_sweep(
        prep.point.kind,
        network,
        prep.point.n_replications,
        prep.seed,
        prep.point.constants,
        **prep.kwargs,
    )
    extras = prep.point.post(network, sweep) if prep.point.post else {}
    return sweep, extras


# ----------------------------------------------------------------------
# the fork worker protocol
# ----------------------------------------------------------------------
#: Set by the parent immediately before pool creation; workers inherit it
#: through ``fork`` (nothing here is ever pickled).  Layout:
#: ``(prepared, deployments)`` as returned by :func:`_prepare`.
_FORK_PAYLOAD: Optional[tuple] = None


def _worker_run(index: int) -> tuple[int, SweepResult, dict]:
    prepared, deployments = _FORK_PAYLOAD
    prep = prepared[index]
    sweep, extras = _execute(prep, deployments[prep.dep_index])
    return index, sweep, extras


def _fork_available() -> bool:
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------
def run_grid(
    spec: GridSpec,
    *,
    jobs: Optional[int] = None,
    cache_dir: "Optional[str | os.PathLike]" = None,
    cache: Optional[bool] = None,
    workers: Optional[Sequence[str]] = None,
    request_timeout: Optional[float] = None,
) -> list[GridPointResult]:
    """Execute a :class:`GridSpec`; results in point order.

    Parameters default to the process-wide :class:`GridOptions` (see
    :func:`set_default_grid_options`); pass ``cache=False`` to bypass a
    configured cache for one call.  Execution is result-identical across
    ``jobs`` values, cache states and execution backends (in-process,
    fork pool, ``workers=``): seeds are fixed at preparation time and
    cached payloads are the pickled originals.

    ``workers`` names running :mod:`repro.service` daemons
    (``"unix:<path>"`` / ``"tcp:<host>:<port>"``; one address or
    several hosts): pending points are sent as ``sweep`` requests
    against their resident-network pools, sharded through the cache
    result bus with fault-tolerant dispatch (DESIGN.md §8, §9) —
    bitwise identical to fork execution, with deployments kept hot
    across runs.  Points that outlive every worker fall back to the
    local pool transparently.  Remote dispatch drives its own asyncio
    event loop, so it must not be called from inside one.

    **Crash safety** (DESIGN.md §10.1): with a cache configured, every
    completed point is stored in the cache and then durably appended to
    a per-sweep journal (``<sweep_key>.journal`` beside the cache
    entries) before the run moves on, and the journal is removed on a
    clean finish.  A coordinator killed mid-sweep — SIGKILL, OOM, a
    dropped SSH session — is simply rerun: every run probes the cache
    for every point, so the points that completed replay from it and
    only the rest are recomputed, and the final results are bitwise
    identical to an uninterrupted run (seeds were fixed at preparation
    time either way).  The rerun loads the interrupted run's journal and
    counts the replayed points it lists (``journal_replays`` in
    :func:`last_grid_stats`).  SIGTERM is converted to
    ``KeyboardInterrupt`` for the duration of the run, so both interrupt
    signals drain gracefully: completed points are already journaled
    and worker processes are reaped on the way out.
    """
    options = get_default_grid_options()
    jobs = options.jobs if jobs is None else jobs
    cache_dir = options.cache_dir if cache_dir is None else cache_dir
    workers = options.workers if workers is None else workers
    request_timeout = (
        options.request_timeout
        if request_timeout is None
        else request_timeout
    )
    use_cache = (cache_dir is not None) if cache is None else (
        cache and cache_dir is not None
    )

    prepared, deployments = _prepare(spec)
    store = ResultCache(cache_dir) if use_cache else None

    journal: Optional[SweepJournal] = None
    journaled_before: dict = {}
    if store is not None:
        journal = SweepJournal(
            store.root,
            sweep_key(spec.name, spec.seed, [p.key for p in prepared]),
        )
        journaled_before = journal.load()

    results: list[Optional[GridPointResult]] = [None] * len(prepared)
    pending: list[int] = []
    journal_replays = 0
    for i, prep in enumerate(prepared):
        hit = store.get(prep.key) if store is not None else None
        if hit is not None:
            sweep, extras = hit
            results[i] = GridPointResult(
                point=prep.point,
                network=prep.network,
                sweep=sweep,
                extras=extras,
                cached=True,
            )
            if prep.key in journaled_before:
                journal_replays += 1
        else:
            pending.append(i)

    journal_appends = 0

    def finish(i: int, sweep: SweepResult, extras: dict) -> None:
        # Called per point as it completes (both paths), so an interrupt
        # or a failing later point never discards cached work.
        nonlocal journal_appends
        prep = prepared[i]
        results[i] = GridPointResult(
            point=prep.point,
            network=prep.network,
            sweep=sweep,
            extras=extras,
            cached=False,
        )
        if store is not None:
            try:
                store.put(prep.key, (sweep, extras))
            except OSError:
                # A full disk must not kill the sweep: the result is
                # in memory and the run proceeds — only the replay
                # (and this point's journal entry, which would
                # otherwise promise a cache entry that isn't there)
                # is lost.
                return
            if journal is not None:
                journal.append(prep.key)
                journal_appends += 1

    n_uncached = len(pending)
    with _interruptible_sigterm():
        if pending and workers:
            # Remote dispatch never raises on point failures: whatever
            # could not be completed remotely comes back and runs
            # locally.
            pending = _run_service(
                prepared, pending, list(workers), on_result=finish,
                store=store, request_timeout=request_timeout,
                grid_name=spec.name,
            )
        if pending:
            local_jobs = max(1, min(jobs, len(pending)))
            if local_jobs > 1 and not _fork_available():
                warnings.warn(
                    f"grid {spec.name!r}: jobs={jobs} requested but the "
                    "'fork' start method is unavailable on this "
                    "platform; running points in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if local_jobs > 1 and _fork_available():
                _run_parallel(
                    prepared, deployments, pending, local_jobs,
                    on_result=finish,
                )
            else:
                for i in pending:
                    finish(i, *_execute(prepared[i], prepared[i].network))
    if journal is not None:
        # Clean finish: the journal's job is done.  Any earlier exit
        # (exception, interrupt, SIGKILL) leaves it on disk for the
        # rerun to count.
        journal.complete()
    _LAST_RUN_STATS.update(
        name=spec.name,
        points=len(prepared),
        cached=len(prepared) - n_uncached,
        journaled=journal_appends,
        journal_replays=journal_replays,
    )
    return results  # type: ignore[return-value]


@contextlib.contextmanager
def _interruptible_sigterm():
    """Convert SIGTERM to ``KeyboardInterrupt`` for the block.

    A polite kill (``kill <pid>``, a job scheduler's preemption notice)
    then drains exactly like Ctrl-C: the fork pool is torn down,
    completed points stay journaled and cached, and the process exits
    by exception instead of vanishing mid-write.  Only effective on the
    main thread (signal handlers cannot be installed elsewhere — grids
    run from worker threads keep the process default); the previous
    handler is restored on exit either way.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


#: Filled after every :func:`run_grid` call; the CLI reads it to surface
#: how much of an experiment was replayed from cache (a replay of *every*
#: point after a code change means the cache is masking the change — see
#: the staleness note in :mod:`repro.fastsim.cache`) plus the crash-safety
#: accounting: ``journaled`` (points durably recorded this run) and
#: ``journal_replays`` (the cache hits that an interrupted earlier run
#: of the same sweep had journaled).
_LAST_RUN_STATS: dict = {
    "name": "", "points": 0, "cached": 0,
    "journaled": 0, "journal_replays": 0,
}


def last_grid_stats() -> dict:
    """Stats of the most recent :func:`run_grid` call in this process."""
    return dict(_LAST_RUN_STATS)


def _run_parallel(
    prepared: Sequence[_Prepared],
    deployments: Sequence[Network],
    pending: Sequence[int],
    workers: int,
    on_result: Callable[[int, SweepResult, dict], None],
) -> None:
    """Fan pending points out over a fork pool.

    ``on_result(index, sweep, extras)`` fires per completed point in
    completion order, so the caller caches incrementally — a failing
    point or an interrupt loses only in-flight work, matching the serial
    path's behavior.

    Fork inheritance: before the pool exists, the parent builds every
    needed deployment's gain structure on its own network object
    (:attr:`~repro.network.network.Network.gain_operator`), where it
    stays cached as on the in-process path.  Workers inherit those
    objects through ``fork`` (pages shared copy-on-write) and call
    :func:`_execute` on them exactly as the in-process loop does, so no
    worker rebuilds a network and the run holds no resource beyond its
    worker processes.  The teardown is interrupt-proof: on
    ``KeyboardInterrupt`` (or any other exception) the pool is shut
    down *without* waiting for in-flight points — queued work
    cancelled, worker processes terminated (``tests/test_chaos.py``
    interrupts a live grid and asserts it drains).
    """
    global _FORK_PAYLOAD
    for dep in {prepared[i].dep_index for i in pending}:
        deployments[dep].gain_operator
    _FORK_PAYLOAD = (prepared, deployments)
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("fork")
        )
        try:
            futures = [pool.submit(_worker_run, i) for i in pending]
            for future in as_completed(futures):
                on_result(*future.result())
        except BaseException:
            # Interrupt/failure: don't wait out in-flight points (the
            # `with` form would block on them) — cancel the queue and
            # terminate the workers.
            # Snapshot the worker handles first: shutdown() nulls the
            # executor's process table.
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                with contextlib.suppress(Exception):
                    proc.terminate()
            raise
        else:
            pool.shutdown(wait=True)
    finally:
        _FORK_PAYLOAD = None


def _run_service(
    prepared: Sequence[_Prepared],
    pending: Sequence[int],
    addresses: Sequence[str],
    on_result: Callable[[int, SweepResult, dict], None],
    store=None,
    request_timeout: Optional[float] = None,
    grid_name: str = "grid",
) -> list:
    """Shard pending points across :mod:`repro.service` daemons.

    One dispatch task per address pulls points from a shared queue
    (:func:`repro.distrib.shard.run_sharded`).  Each request carries
    both the deployment's fingerprint (a pool hit skips the rebuild
    entirely — the cross-run win) and its
    :meth:`~repro.network.network.Network.descriptor` (so an evicted or
    never-seen deployment is rebuilt server-side, bitwise-identically to
    the parent's own build).

    Failure handling is per point, never per run: a failed or timed-out
    point is retried (on another worker where one exists) and, if it
    keeps failing, *returned* for local execution — one bad point can
    no longer cancel its siblings' in-flight requests or discard their
    completed work.  ``on_result`` fires per completed point in
    completion order, same contract as :func:`_run_parallel`; the
    return value is the sorted list of indices still to execute.

    Post hooks run *client*-side, on the locally built network — hook
    closures are not picklable and need not be.  Hooked points are
    therefore dispatched *without* a cache key: a daemon can only store
    ``(sweep, {})``, and since ``post_name`` is part of the key, a
    server-side entry with empty extras under a hooked key would replay
    as the point's real result in later CLI runs.  Hookless points ship
    their key (server-side caching is exact for them); hooked points
    still land in the *client's* cache via ``on_result``, extras and
    all.
    """
    from repro.distrib.shard import PointRequest, run_sharded

    requests = [
        PointRequest(
            index=i,
            kind=prep.point.kind,
            n_replications=prep.point.n_replications,
            seed=prep.seed,
            constants=prep.point.constants,
            kwargs=prep.kwargs,
            fingerprint=prep.network.fingerprint(),
            descriptor=prep.network.descriptor(),
            key=(prep.key or None) if prep.point.post is None else None,
            label=prep.point.label,
        )
        for i, prep in ((i, prepared[i]) for i in pending)
    ]

    def on_sweep(index: int, sweep: SweepResult) -> None:
        prep = prepared[index]
        extras = (
            prep.point.post(prep.network, sweep) if prep.point.post else {}
        )
        on_result(index, sweep, extras)

    stats = run_sharded(
        requests,
        addresses,
        on_sweep=on_sweep,
        store=store,
        request_timeout=request_timeout,
    )
    if stats.leftover:
        detail = "; ".join(
            f"point {i}: {msgs[-1]}"
            for i, msgs in sorted(stats.errors.items())
        ) or "workers unreachable"
        warnings.warn(
            f"grid {grid_name!r}: {len(stats.leftover)} of "
            f"{len(requests)} dispatched points fall back to local "
            f"execution ({detail})",
            RuntimeWarning,
            stacklevel=3,
        )
    return stats.leftover
