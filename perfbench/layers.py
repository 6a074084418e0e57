"""Which program functions are traced, and the per-layer metrics.

:func:`install` wraps the public entry points of each layer — the
modules ``repro.deploy``/``repro.network``, ``repro.sinr`` (sparse and
dense), ``repro.fastsim`` (kernels, sweep, grid, cache, journal),
``repro.mac``, ``repro.traffic``, ``repro.service`` and
``repro.experiments`` — from outside the program.  :func:`layer_metrics`
reduces a merged span timeline to the ``per_layer`` metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import types
from collections import defaultdict

import numpy as np

from spans import Patcher, Tracer, self_times

#: Program modules that must be loaded before wrapping, so every
#: ``from ... import ...`` binding of a wrapped function is found.
MODULES = (
    "repro.deploy",
    "repro.deploy.perturb",
    "repro.network.network",
    "repro.sinr.reception",
    "repro.sinr.sparse",
    "repro.fastsim",
    "repro.fastsim.sweep",
    "repro.fastsim.grid",
    "repro.fastsim.cache",
    "repro.fastsim.journal",
    "repro.mac",
    "repro.traffic.engine",
    "repro.service.protocol",
    "repro.service.coalescer",
    "repro.service.server",
    "repro.service.client",
    "repro.experiments.base",
    "repro.experiments.registry",
)

#: Deployment factories of ``repro.deploy`` that build networks.
_DEPLOY_BUILDERS = (
    "uniform_square", "uniform_disk", "uniform_cube", "fractal_clusters",
    "corridor", "grid", "grid_chain", "jittered_grid", "uniform_chain",
    "geometric_chain", "exponential_chain", "clustered_chain",
    "cluster_network", "dumbbell", "perturb_within_balls",
    "same_graph_family",
)


def _is_sparse(gain) -> bool:
    return hasattr(gain, "resolve_reception_batch")


def _count(mask) -> int:
    return int(np.count_nonzero(mask))


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced entry point; returns the patcher that undoes it."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    patcher = Patcher()

    def wrap(fn, name, **kw):
        patcher.everywhere(fn, tracer.wrap(fn, name, **kw))

    def method(cls, attr, name, **kw):
        patcher.set(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))

    # repro.deploy / repro.network -----------------------------------
    deploy = mods["repro.deploy"]
    for fn_name in _DEPLOY_BUILDERS:
        wrap(getattr(deploy, fn_name), "network.build")
    wrap(mods["repro.deploy.perturb"].same_graph_family_sparse,
         "network.build")
    wrap(mods["repro.experiments.base"].connected_sparse_square,
         "network.build")
    network_cls = mods["repro.network.network"].Network
    method(network_cls, "__init__", "network.build")
    graph_prop = network_cls.__dict__["graph"]
    patcher.set(network_cls, "graph", property(tracer.wrap(
        graph_prop.fget, "network.graph",
        when=lambda args, kwargs: args[0]._graph is None,
    )))

    # repro.sinr ------------------------------------------------------
    sparse_cls = mods["repro.sinr.sparse"].SparseGainBackend
    method(sparse_cls, "__init__", "sinr.sparse.build",
           attrs=lambda a, k, r: {"nnz": int(a[0].data.size)})
    method(sparse_cls, "resolve_reception_batch", "sinr.sparse.resolve_batch",
           attrs=lambda a, k, r: {
               "sets": int(r.shape[0]), "tx": _count(a[1]),
           })
    method(sparse_cls, "far_band", "sinr.sparse.far_band")
    method(sparse_cls, "resolve_reception_sets", "sinr.sparse.resolve_sets",
           attrs=lambda a, k, r: {
               "sets": len(a[1]),
               "tx": sum(np.asarray(t).size for t in a[1]),
           })
    reception = mods["repro.sinr.reception"]
    wrap(reception.resolve_reception, "sinr.resolve")
    wrap(reception.resolve_reception_batch, "sinr.dense.resolve_batch",
         when=lambda a, k: not _is_sparse(a[0]))
    wrap(reception.resolve_reception_many, "service.kernel",
         attrs=lambda a, k, r: {"sets": len(a[1])})

    # repro.fastsim ---------------------------------------------------
    sweep = mods["repro.fastsim.sweep"]
    for kind, spec in list(sweep.SWEEP_KINDS.items()):
        if spec.batch is not None:
            patcher.item(sweep.SWEEP_KINDS, kind, dataclasses.replace(
                spec, batch=tracer.wrap(spec.batch, "fastsim.kernel")
            ))
    wrap(sweep.run_sweep, "fastsim.sweep")
    grid = mods["repro.fastsim.grid"]
    wrap(grid.run_grid, "fastsim.grid", attrs=lambda a, k, r: {
        "points": len(r), "cached": sum(1 for p in r if p.cached),
    })
    wrap(grid._execute, "fastsim.grid.point")
    cache_cls = mods["repro.fastsim.cache"].ResultCache
    method(cache_cls, "get", "fastsim.cache.get",
           attrs=lambda a, k, r: {"hit": int(r is not None)})
    method(cache_cls, "put", "fastsim.cache.put",
           attrs=lambda a, k, r: {
               "bytes": a[0]._path(a[1]).stat().st_size,
           })
    method(mods["repro.fastsim.journal"].SweepJournal, "append",
           "fastsim.journal.append")

    # repro.mac / repro.traffic ---------------------------------------
    mac = mods["repro.mac"]
    for cls in _subclasses(mac.MacModel):
        if "session" in cls.__dict__:
            method(cls, "session", "mac.session")
    for cls in _subclasses(mac.MacSession):
        if "transmit_mask" in cls.__dict__:
            method(cls, "transmit_mask", "mac.transmit_mask",
                   attrs=lambda a, k, r: {
                       "intents": _count(a[2]),
                       "passed": _count(np.asarray(r, dtype=bool) & a[2]),
                   })
    wrap(mods["repro.traffic.engine"].run_traffic, "traffic",
         attrs=lambda a, k, r: {
             "transmissions": r.transmissions, "collisions": r.collisions,
         })

    # repro.service ---------------------------------------------------
    protocol = mods["repro.service.protocol"]
    wrap(protocol.encode_frame, "service.protocol.encode")
    # read_frame awaits the socket before it decodes; time only the
    # decode by giving the protocol module a json whose loads is traced.
    patcher.set(protocol, "json", types.SimpleNamespace(
        loads=tracer.wrap(json.loads, "service.protocol.decode"),
        dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError,
    ))
    method(mods["repro.service.coalescer"].BatchCoalescer, "submit",
           "service.coalescer.submit")

    # repro.experiments -----------------------------------------------
    registry = mods["repro.experiments.registry"]
    for exp_id, run in list(registry._REGISTRY.items()):
        patcher.item(registry._REGISTRY, exp_id,
                    tracer.wrap(run, f"experiments.{exp_id}"))
    return patcher


def _subclasses(cls) -> list:
    out, stack = [], [cls]
    while stack:
        subs = stack.pop().__subclasses__()
        out.extend(subs)
        stack.extend(subs)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: ``per_layer`` metric name -> (unit, better), in report order.
EXPERIMENTS = tuple(f"E{i:02d}" for i in range(1, 17))
PER_LAYER: dict[str, tuple[str, str]] = {
    "network.build.s": ("s", "lower"),
    "network.graph.s": ("s", "lower"),
    "sinr.sparse.build.s": ("s", "lower"),
    "sinr.sparse.nnz": ("count", "lower"),
    "sinr.sparse.resolve_batch.calls": ("count", "lower"),
    "sinr.sparse.resolve_batch.self_s": ("s", "lower"),
    "sinr.sparse.far_band.calls": ("count", "lower"),
    "sinr.sparse.far_band.s": ("s", "lower"),
    "sinr.resolve.calls": ("count", "lower"),
    "sinr.resolve.s": ("s", "lower"),
    "sinr.sparse.tx_per_set": ("count", "lower"),
    "sinr.dense.resolve_batch.calls": ("count", "lower"),
    "sinr.dense.resolve_batch.s": ("s", "lower"),
    "fastsim.kernel.self_s": ("s", "lower"),
    "fastsim.sweep.calls": ("count", "lower"),
    "fastsim.sweep.s": ("s", "lower"),
    "fastsim.grid.points": ("count", "lower"),
    "fastsim.grid.self_s": ("s", "lower"),
    "fastsim.cache.get.calls": ("count", "lower"),
    "fastsim.cache.get.s": ("s", "lower"),
    "fastsim.cache.hit_ratio": ("ratio", "higher"),
    "fastsim.cache.put.calls": ("count", "lower"),
    "fastsim.cache.put.s": ("s", "lower"),
    "fastsim.cache.put.bytes": ("bytes", "lower"),
    "fastsim.journal.append.calls": ("count", "lower"),
    "fastsim.journal.append.s": ("s", "lower"),
    "mac.session.s": ("s", "lower"),
    "mac.transmit_mask.calls": ("count", "lower"),
    "mac.transmit_mask.s": ("s", "lower"),
    "mac.pass_ratio": ("ratio", "higher"),
    "traffic.self_s": ("s", "lower"),
    "traffic.transmissions": ("count", "higher"),
    "traffic.success_ratio": ("ratio", "higher"),
    "service.protocol.encode.s": ("s", "lower"),
    "service.protocol.decode.s": ("s", "lower"),
    "service.kernel.s": ("s", "lower"),
    "sinr.sparse.resolve_sets.calls": ("count", "lower"),
    "sinr.sparse.resolve_sets.self_s": ("s", "lower"),
    "sinr.sparse.resolve_sets.sets": ("count", "lower"),
    "service.coalescer.batches": ("count", "lower"),
    "service.coalescer.mean_batch": ("count", "higher"),
    "service.coalescer.wait_ms": ("ms", "lower"),
    **{f"experiments.{e}.s": ("s", "lower") for e in EXPERIMENTS},
    "bench.gen_late_p99_ms": ("ms", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}


def _outer(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], extra: dict) -> dict[str, float]:
    """Reduce a merged timeline to the :data:`PER_LAYER` values.

    A layer the workload never entered reads 0.  ``extra`` supplies the
    values that do not come from spans (coalescer statistics from the
    daemon's ``stats`` op, generator lateness, tracing overhead).
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attr = defaultdict(float)
    for span in spans:
        name = span["name"]
        calls[name] += 1
        self_s[name] += own[span["id"]] / 1e9
        for key, value in span.get("attrs", {}).items():
            if key == "nnz":
                attr[(name, key)] = max(attr[(name, key)], value)
            else:
                attr[(name, key)] += value

    def total(name: str) -> float:
        return sum((s["end"] - s["start"]) / 1e9 for s in _outer(spans, name))

    sets = (attr[("sinr.sparse.resolve_batch", "sets")]
            + attr[("sinr.sparse.resolve_sets", "sets")])
    txs = (attr[("sinr.sparse.resolve_batch", "tx")]
           + attr[("sinr.sparse.resolve_sets", "tx")])
    transmissions = attr[("traffic", "transmissions")]
    kernel_share = sum(
        (s["end"] - s["start"]) / 1e6 * s.get("attrs", {}).get("sets", 0)
        for s in spans if s["name"] == "service.kernel"
    )
    submits = calls["service.coalescer.submit"]
    out = {
        "network.build.s": total("network.build"),
        "network.graph.s": total("network.graph"),
        "sinr.sparse.build.s": total("sinr.sparse.build"),
        "sinr.sparse.nnz": attr[("sinr.sparse.build", "nnz")],
        "sinr.sparse.resolve_batch.calls":
            calls["sinr.sparse.resolve_batch"],
        "sinr.sparse.resolve_batch.self_s":
            self_s["sinr.sparse.resolve_batch"],
        "sinr.sparse.far_band.calls": calls["sinr.sparse.far_band"],
        "sinr.sparse.far_band.s": total("sinr.sparse.far_band"),
        "sinr.resolve.calls": calls["sinr.resolve"],
        "sinr.resolve.s": total("sinr.resolve"),
        "sinr.sparse.tx_per_set": _ratio(txs, sets),
        "sinr.dense.resolve_batch.calls": calls["sinr.dense.resolve_batch"],
        "sinr.dense.resolve_batch.s": total("sinr.dense.resolve_batch"),
        "fastsim.kernel.self_s": self_s["fastsim.kernel"],
        "fastsim.sweep.calls": calls["fastsim.sweep"],
        "fastsim.sweep.s": total("fastsim.sweep"),
        "fastsim.grid.points": attr[("fastsim.grid", "points")],
        "fastsim.grid.self_s": self_s["fastsim.grid"],
        "fastsim.cache.get.calls": calls["fastsim.cache.get"],
        "fastsim.cache.get.s": total("fastsim.cache.get"),
        "fastsim.cache.hit_ratio": _ratio(
            attr[("fastsim.cache.get", "hit")], calls["fastsim.cache.get"]
        ),
        "fastsim.cache.put.calls": calls["fastsim.cache.put"],
        "fastsim.cache.put.s": total("fastsim.cache.put"),
        "fastsim.cache.put.bytes": attr[("fastsim.cache.put", "bytes")],
        "fastsim.journal.append.calls": calls["fastsim.journal.append"],
        "fastsim.journal.append.s": total("fastsim.journal.append"),
        "mac.session.s": total("mac.session"),
        "mac.transmit_mask.calls": calls["mac.transmit_mask"],
        "mac.transmit_mask.s": total("mac.transmit_mask"),
        "mac.pass_ratio": _ratio(
            attr[("mac.transmit_mask", "passed")],
            attr[("mac.transmit_mask", "intents")],
        ),
        "traffic.self_s": self_s["traffic"],
        "traffic.transmissions": transmissions,
        "traffic.success_ratio": _ratio(
            transmissions - attr[("traffic", "collisions")], transmissions
        ),
        "service.protocol.encode.s": total("service.protocol.encode"),
        "service.protocol.decode.s": total("service.protocol.decode"),
        "service.kernel.s": total("service.kernel"),
        "sinr.sparse.resolve_sets.calls": calls["sinr.sparse.resolve_sets"],
        "sinr.sparse.resolve_sets.self_s":
            self_s["sinr.sparse.resolve_sets"],
        "sinr.sparse.resolve_sets.sets":
            attr[("sinr.sparse.resolve_sets", "sets")],
        "service.coalescer.batches": extra.get("coalescer_batches", 0),
        "service.coalescer.mean_batch": extra.get("coalescer_mean_batch", 0),
        "service.coalescer.wait_ms": _ratio(
            total("service.coalescer.submit") * 1e3 - kernel_share, submits
        ),
        "bench.gen_late_p99_ms": extra.get("gen_late_p99_ms", 0),
        "bench.trace_overhead_pct": extra.get("trace_overhead_pct", 0),
    }
    for exp in EXPERIMENTS:
        out[f"experiments.{exp}.s"] = total(f"experiments.{exp}")
    return {name: float(out[name]) for name in PER_LAYER}
