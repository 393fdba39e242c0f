"""Per-layer tracing installed from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
program with thin wrappers while a traced operation runs, and puts the
originals back afterwards.  Timed wrappers keep a stack of open calls, so
a layer's *self* time is its wrapped call's duration minus the wrapped
calls nested inside it.  Counting wrappers only bump a counter.  Nothing
inside ``src/`` is edited: every patched name is a public attribute of a
class or module, looked up by the program at call time.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from collections import defaultdict

from repro.browser import engine as engine_module
from repro.browser import real_loader as real_loader_module
from repro.browser.cache_layer import BrowserCache
from repro.browser.sw_host import ServiceWorkerHost
from repro.core import modes as modes_module
from repro.core.analysis_vec import VectorAnalyticModel
from repro.experiments import fleet as fleet_module
from repro.http import cache_control as cache_control_module
from repro.http.aclient import AsyncHttpClient
from repro.netsim.sim import Simulator
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer

#: per-layer metric names in the order ``BENCHMARK.json`` lists them
PER_LAYER_METRICS = (
    ("netsim.run.self_ms", "ms"),
    ("netsim.events", "count"),
    ("core.modes.build_mode_ms", "ms"),
    ("server.handle.self_ms", "ms"),
    ("server.site.respond_ms", "ms"),
    ("server.requests", "count"),
    ("server.not_modified", "count"),
    ("cache.plan_ms", "ms"),
    ("cache.absorb_ms", "ms"),
    ("cache.fresh_hit_ratio", "ratio"),
    ("sw.intercept_ms", "ms"),
    ("sw.on_response_ms", "ms"),
    ("sw.hit_ratio", "ratio"),
    ("html.extract_ms", "ms"),
    ("http.cache_control.parses", "count"),
    ("hashlib.sha256.calls", "count"),
    ("browser.bytes_down", "bytes"),
    ("core.analysis_vec.batch_visit_ms", "ms"),
    ("core.analysis_vec.compile_site_ms", "ms"),
    ("workload.population.delay_mixture_ms", "ms"),
    ("experiments.fleet.self_ms", "ms"),
    ("http.aclient.request_ms_p50", "ms"),
    ("http.async.self_ms", "ms"),
    ("http.aserver.requests", "count"),
    ("trace.overhead_ms_per_op", "ms"),
)

_SIM_EVENT_FACTORIES = ("timeout", "event", "process", "all_of", "any_of")

_MISSING = object()


class LayerTracer:
    """Wraps the program's layer entry points while ``installed``."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: wall time of wrapped calls that were not nested in another
        #: wrapped call (what ``http.async.self_ms`` subtracts)
        self.top_level_ns = 0
        #: await time of every ``AsyncHttpClient.request``
        self.request_ns: list[int] = []
        self.installed = False
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _timed(self, layer: str, fn, on_result=None):
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns

        def wrapper(*args, **kwargs):
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_ns += elapsed
            if on_result is not None:
                on_result(result, outermost)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_async(self, fn):
        clock = time.perf_counter_ns
        request_ns = self.request_ns

        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                request_ns.append(clock() - start)

        return wrapper

    # -- result hooks ---------------------------------------------------
    def _on_handle(self, response, outermost: bool) -> None:
        if outermost:
            self.counts["server.requests"] += 1
            if response.status == 304:
                self.counts["server.not_modified"] += 1

    def _on_plan(self, plan, _outermost: bool) -> None:
        self.counts["cache.plans"] += 1
        if plan.is_local_hit:
            self.counts["cache.local_hits"] += 1

    def _on_intercept(self, response, _outermost: bool) -> None:
        self.counts["sw.intercepts"] += 1
        if response is not None:
            self.counts["sw.hits"] += 1

    def count(self, name: str) -> None:
        """Count an event the benchmark itself observes (traced runs only)."""
        if self.installed:
            self.counts[name] += 1

    # -- install / uninstall --------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        # Save what the owner itself holds, so restoring never shadows an
        # inherited attribute.
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        if self.installed:
            return
        timed, counted = self._timed, self._counted
        self._patch(Simulator, "run_process",
                    timed("netsim.run", Simulator.run_process))
        for factory in _SIM_EVENT_FACTORIES:
            self._patch(Simulator, factory,
                        counted("netsim.events", getattr(Simulator, factory)))
        self._patch(modes_module, "build_mode",
                    timed("core.modes.build_mode", modes_module.build_mode))
        for server_cls in (CatalystServer, StaticServer):
            self._patch(server_cls, "handle",
                        timed("server.handle", server_cls.handle,
                              self._on_handle))
        self._patch(OriginSite, "respond",
                    timed("server.site.respond", OriginSite.respond))
        self._patch(BrowserCache, "plan",
                    timed("cache.plan", BrowserCache.plan, self._on_plan))
        self._patch(BrowserCache, "absorb",
                    timed("cache.absorb", BrowserCache.absorb))
        self._patch(ServiceWorkerHost, "intercept",
                    timed("sw.intercept", ServiceWorkerHost.intercept,
                          self._on_intercept))
        self._patch(ServiceWorkerHost, "on_response",
                    timed("sw.on_response", ServiceWorkerHost.on_response))
        for module, names in (
                (engine_module, ("extract_resources_cached",
                                 "extract_css_refs_cached",
                                 "extract_js_fetches")),
                (real_loader_module, ("parse_html", "extract_resources",
                                      "extract_css_refs",
                                      "extract_js_fetches"))):
            for name in names:
                self._patch(module, name,
                            timed("html.extract", getattr(module, name)))
        parse_cc = cache_control_module.parse_cache_control
        counted_cc = counted("http.cache_control.parses", parse_cc)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and \
                    getattr(module, "parse_cache_control", None) is parse_cc:
                self._patch(module, "parse_cache_control", counted_cc)
        self._patch(hashlib, "sha256",
                    counted("hashlib.sha256.calls", hashlib.sha256))
        self._patch(VectorAnalyticModel, "batch_visit",
                    timed("core.analysis_vec.batch_visit",
                          VectorAnalyticModel.batch_visit))
        self._patch(fleet_module, "compile_site",
                    timed("core.analysis_vec.compile_site",
                          fleet_module.compile_site))
        self._patch(fleet_module, "delay_mixture",
                    timed("workload.population.delay_mixture",
                          fleet_module.delay_mixture))
        self._patch(fleet_module, "run_fleet_analytic",
                    timed("experiments.fleet",
                          fleet_module.run_fleet_analytic))
        self._patch(AsyncHttpClient, "request",
                    self._timed_async(AsyncHttpClient.request))
        self.installed = True

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self.installed = False

    # -- report -----------------------------------------------------------
    def report(self, ops: int, cpu_ns: int, bytes_down: int,
               overhead_ms_per_op: float) -> dict[str, float]:
        """Per-operation values of every per-layer metric.

        A layer the workload never reaches reads 0.
        """
        per_op = 1.0 / max(ops, 1)

        def ms(layer: str) -> float:
            return self.self_ns.get(layer, 0) / 1e6 * per_op

        def ratio(hits: str, total: str) -> float:
            n = self.counts.get(total, 0)
            return self.counts.get(hits, 0) / n if n else 0.0

        counts = self.counts
        async_self_ms = 0.0
        if self.request_ns:
            async_self_ms = (cpu_ns - self.top_level_ns) / 1e6 * per_op
        values = {
            "netsim.run.self_ms": ms("netsim.run"),
            "netsim.events": counts.get("netsim.events", 0) * per_op,
            "core.modes.build_mode_ms": ms("core.modes.build_mode"),
            "server.handle.self_ms": ms("server.handle"),
            "server.site.respond_ms": ms("server.site.respond"),
            "server.requests": counts.get("server.requests", 0) * per_op,
            "server.not_modified":
                counts.get("server.not_modified", 0) * per_op,
            "cache.plan_ms": ms("cache.plan"),
            "cache.absorb_ms": ms("cache.absorb"),
            "cache.fresh_hit_ratio": ratio("cache.local_hits",
                                           "cache.plans"),
            "sw.intercept_ms": ms("sw.intercept"),
            "sw.on_response_ms": ms("sw.on_response"),
            "sw.hit_ratio": ratio("sw.hits", "sw.intercepts"),
            "html.extract_ms": ms("html.extract"),
            "http.cache_control.parses":
                counts.get("http.cache_control.parses", 0) * per_op,
            "hashlib.sha256.calls":
                counts.get("hashlib.sha256.calls", 0) * per_op,
            "browser.bytes_down": bytes_down * per_op,
            "core.analysis_vec.batch_visit_ms":
                ms("core.analysis_vec.batch_visit"),
            "core.analysis_vec.compile_site_ms":
                ms("core.analysis_vec.compile_site"),
            "workload.population.delay_mixture_ms":
                ms("workload.population.delay_mixture"),
            "experiments.fleet.self_ms": ms("experiments.fleet"),
            "http.aclient.request_ms_p50":
                statistics.median(self.request_ns) / 1e6
                if self.request_ns else 0.0,
            "http.async.self_ms": async_self_ms,
            "http.aserver.requests":
                counts.get("http.aserver.requests", 0) * per_op,
            "trace.overhead_ms_per_op": overhead_ms_per_op,
        }
        return values
