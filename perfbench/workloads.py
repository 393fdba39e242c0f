"""The benchmark's workloads: inputs from a seed, one operation at a time.

Every workload is a closed loop in this one process.  Its inputs come
from ``random.Random`` streams named after the workload and the seed; the
fixed warm-up uses seed-independent inputs so that set-up is the same
work on every run.  The program is driven only through public entry
points: ``make_corpus``, ``build_mode``, ``run_visit_sequence``,
``default_population``, ``run_fleet_analytic``, ``sample_visits``,
``estimate_plt``, ``RealBrowserSession``, ``AsyncHttpServer`` and
``as_async_handler``.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.browser.real_loader import RealBrowserSession, RealLoaderConfig
from repro.core import modes
from repro.core.analysis import estimate_plt
from repro.core.catalyst import run_visit_sequence
from repro.experiments import fleet
from repro.http.aserver import AsyncHttpServer
from repro.http.messages import Response
from repro.server.adapter import as_async_handler
from repro.workload.corpus import make_corpus
from repro.workload.population import sample_visits
from repro.workload.revisits import DEFAULT_REVISIT_MODEL

from checks import MAP_MISMATCH, check_fleet, check_load, stapled_map

STANDARD = modes.CachingMode.STANDARD
CATALYST = modes.CachingMode.CATALYST

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

#: corpus popularity ranks 0..7: the "small popular set"
POPULAR_SITES = 8
#: fixed warm-up operations per set-up (DES workloads)
WARMUP_OPS = 4


@dataclass
class OpResult:
    """One operation: its wall time, check verdict and outputs."""

    wall_s: float
    #: check failures; empty when the operation passed
    problems: list[str]
    #: downlink bytes its page loads moved (0 for analytic pricing)
    bytes_down: int
    #: the program's outputs the traced run must reproduce exactly
    signature: object


def _systematic(cdf: list[float], n: int, offset: float) -> list[int]:
    """``n`` draws from a discrete law, one per ``1/n`` quantile stratum."""
    last = len(cdf) - 1
    return [min(bisect.bisect_left(cdf, (offset + k) / n), last)
            for k in range(n)]


def _cohort_cycle(rng: random.Random, n: int) -> list:
    """Network conditions for ``n`` operations, in fleet-cohort proportion."""
    cohorts = fleet.DEFAULT_FLEET_COHORTS
    total = sum(c.weight for c in cohorts)
    cdf = list(itertools.accumulate(c.weight / total for c in cohorts))
    picks = _systematic(cdf, n, rng.random())
    rng.shuffle(picks)
    return [cohorts[index].conditions for index in picks]


def _failed(start: float, exc: Exception) -> OpResult:
    return OpResult(wall_s=time.perf_counter() - start,
                    problems=[f"exception: {type(exc).__name__}: {exc}"],
                    bytes_down=0, signature=None)


class Workload:
    """Base: ``setup`` once, then ``run_round`` on each of ``rounds()``."""

    name = ""
    #: failure kinds a run may count; any other kind makes it incorrect
    EXPECTED_FAILURES: frozenset = frozenset()

    def __init__(self, seed: int):
        self.seed = seed
        #: a LayerTracer during traced runs (the socket router counts
        #: requests through it); None otherwise
        self.tracer = None

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}|{stream}|{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self) -> Iterator[object]:
        """Endless seeded round inputs; a round is replayable."""
        raise NotImplementedError

    def run_round(self, spec) -> list[OpResult]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks, made once after the measured phase."""
        return []

    def close(self) -> None:
        pass


# -- discrete-event page loads ------------------------------------------------
class _MapCapture:
    """Stands in for a mode's server and keeps each document's stapled map."""

    def __init__(self, server, page_url: str):
        self.server = server
        self.page_url = page_url
        self.maps: list[Optional[dict[str, str]]] = []

    def handle(self, request, at_time):
        response = self.server.handle(request, at_time)
        if request.url == self.page_url:
            self.maps.append(stapled_map(response))
        return response


def des_revisit_op(site, mode, conditions, delay_s: float) -> OpResult:
    """A cold DES load at t=0 and a warm one ``delay_s`` later."""
    page = site.index
    start = time.perf_counter()
    try:
        setup = modes.build_mode(mode, site)
        capture = _MapCapture(setup.server, page.url)
        setup.server = capture
        outcomes = run_visit_sequence(setup, conditions, [0.0, delay_s],
                                      page_url=page.url)
    except Exception as exc:  # a crash is a failed operation, not a stop
        return _failed(start, exc)
    wall_s = time.perf_counter() - start
    catalyst = mode is CATALYST
    problems = []
    if len(capture.maps) != len(outcomes):
        problems.append(f"documents: {len(capture.maps)} document "
                        f"requests for {len(outcomes)} loads")
    for index, outcome in enumerate(outcomes):
        doc_map = capture.maps[index] if index < len(capture.maps) else None
        problems += check_load(outcome.result, page, cold=index == 0,
                               catalyst=catalyst, doc_map=doc_map)
    signature = tuple(
        (outcome.result.plt_ms, outcome.result.bytes_down,
         tuple((e.url, e.source.value, e.status, e.bytes_down, e.start_s,
                e.end_s, e.served_etag) for e in outcome.result.events))
        for outcome in outcomes)
    return OpResult(wall_s=wall_s, problems=problems,
                    bytes_down=sum(o.result.bytes_down for o in outcomes),
                    signature=signature)


class DesRevisit(Workload):
    """Popular sites, minutes-to-an-hour delays: the read path."""

    name = "des-revisit"

    def setup(self) -> None:
        self.corpus = make_corpus()
        warmup = random.Random(f"{self.name}|warmup")
        for spec in itertools.islice(self._inputs(warmup), WARMUP_OPS):
            self.run_round(spec)

    def rounds(self) -> Iterator[object]:
        return self._inputs(self.rng("inputs"))

    def run_round(self, spec) -> list[OpResult]:
        site_index, mode, conditions, delay_s = spec
        return [des_revisit_op(self.corpus[site_index], mode, conditions,
                               delay_s)]

    def _inputs(self, rng: random.Random):
        # Each cycle visits every popular site once per mode, modes
        # alternating, so the site mix is the same whatever the seed.
        while True:
            standard = rng.sample(range(POPULAR_SITES), POPULAR_SITES)
            catalyst = rng.sample(range(POPULAR_SITES), POPULAR_SITES)
            conditions = iter(_cohort_cycle(rng, 2 * POPULAR_SITES))
            for pair in zip(standard, catalyst):
                for site_index, mode in zip(pair, (STANDARD, CATALYST)):
                    yield (site_index, mode, next(conditions),
                           _short_delay(rng))


def _short_delay(rng: random.Random) -> float:
    """A DEFAULT_REVISIT_MODEL draw within one minute to one hour."""
    while True:
        delay = DEFAULT_REVISIT_MODEL.draw(rng)
        if MINUTE <= delay <= HOUR:
            return delay


# -- closed-form fleet pricing ----------------------------------------------
class AnalyticFleet(Workload):
    """One million users, 5e7 visits, priced closed-form on numpy."""

    name = "analytic-fleet"
    USERS = 1_000_000
    VISITS = 50_000_000
    #: visits priced one by one for the sampled cross-check
    SAMPLED_VISITS = 4000
    #: allowed distance of the sampled mean, in (clustered) standard errors
    SAMPLED_TOLERANCE_SE = 4.0

    def setup(self) -> None:
        self.corpus = make_corpus()
        self.run_round(self._spec(2024))

    def _spec(self, spec_seed: int):
        return fleet.default_population(users=self.USERS,
                                        measured=self.VISITS,
                                        seed=spec_seed)

    def rounds(self) -> Iterator[object]:
        rng = self.rng("specs")
        while True:
            yield self._spec(rng.getrandbits(32))

    def run_round(self, spec) -> list[OpResult]:
        start = time.perf_counter()
        try:
            result = fleet.run_fleet_analytic(spec, corpus=self.corpus,
                                              backend="numpy")
        except Exception as exc:
            return [_failed(start, exc)]
        wall_s = time.perf_counter() - start
        return [OpResult(wall_s=wall_s, problems=check_fleet(result),
                         bytes_down=0,
                         signature=replace(result, elapsed_s=0.0))]

    def finish(self) -> list[str]:
        spec = next(self.rounds())  # the first measured operation's spec
        problems = []
        vectorized = fleet.run_fleet_analytic(spec, corpus=self.corpus,
                                              backend="numpy")
        scalar_backend = fleet.run_fleet_analytic(spec, corpus=self.corpus,
                                                  backend="python")
        problems += _fleet_disagreement(vectorized, scalar_backend)
        visits = sample_visits(spec, self.SAMPLED_VISITS)
        by_mode = {stats.mode: stats for stats in vectorized.fleet}
        for mode in (STANDARD, CATALYST):
            plts = [1000.0 * estimate_plt(
                        self.corpus[visit.site], mode,
                        visit.delay_s if visit.delay_s is not None else 0.0,
                        spec.cohorts[visit.cohort].conditions,
                        cold=visit.delay_s is None)
                    for visit in visits]
            mean = statistics.fmean(plts)
            stderr = _clustered_stderr(visits, plts, mean)
            expected = by_mode[mode.value].mean_ms
            if abs(mean - expected) > self.SAMPLED_TOLERANCE_SE * stderr:
                problems.append(
                    f"sampled-mean: {mode.value} {mean:.1f}±{stderr:.1f} ms "
                    f"over {len(plts)} visits vs fleet {expected:.1f} ms")
        return problems


def _clustered_stderr(visits, values, mean: float) -> float:
    """Standard error of ``mean`` with each user's visits as one cluster.

    ``sample_visits`` takes whole user streams, and a user's visits share
    a cohort and so a network, so they are not independent draws; the
    i.i.d. formula understates the error several-fold.
    """
    totals: dict[int, list[float]] = {}
    for visit, value in zip(visits, values):
        total = totals.setdefault(visit.user, [0.0, 0])
        total[0] += value
        total[1] += 1
    return math.sqrt(sum((total - mean * count) ** 2
                         for total, count in totals.values())) / len(values)


def _fleet_disagreement(a, b, rel_tol: float = 1e-9) -> list[str]:
    """Numeric fields of two fleet pricings that differ beyond rel_tol."""
    problems = []
    pairs = list(zip(a.fleet, b.fleet))
    for cohort_a, cohort_b in zip(a.cohorts, b.cohorts):
        pairs += list(zip(cohort_a.modes, cohort_b.modes))
        for name in ("visits", "cold_share"):
            x, y = getattr(cohort_a, name), getattr(cohort_b, name)
            if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-12):
                problems.append(f"backends: {cohort_a.name}.{name} {x}!={y}")
    for stats_a, stats_b in pairs:
        for name in ("mean_ms", "p50_ms", "p90_ms", "p99_ms", "origin_rps",
                     "origin_mbps", "hit_ratio"):
            x, y = getattr(stats_a, name), getattr(stats_b, name)
            if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-12):
                problems.append(f"backends: {stats_a.mode}.{name} {x}!={y}")
    return problems


# -- real sockets -------------------------------------------------------------
class _SocketSession:
    """One browser session against one freshly built origin, on a route."""

    def __init__(self, workload: "SocketRevisit", mode, site):
        self.mode = mode
        self.page = site.index
        setup = modes.build_mode(mode, site, materialize_fully=True)
        #: virtual seconds since the session's first load
        self.clock = 0.0
        handler = as_async_handler(setup.server, clock=lambda: self.clock)
        self.maps: list[Optional[dict[str, str]]] = []
        page_url = self.page.url

        def route(request):
            response = handler(request)
            if request.url == page_url:
                self.maps.append(stapled_map(response))
            return response

        self.key = workload.add_route(route)
        self.base_url = f"{workload.base_url}/{self.key}"
        self.browser = RealBrowserSession(RealLoaderConfig(
            use_http_cache=True, use_service_worker=mode is CATALYST,
            connections_per_origin=2))

    async def load(self, cold: bool) -> OpResult:
        documents = len(self.maps)
        start = time.perf_counter()
        try:
            result = await self.browser.load(self.base_url, self.page.url,
                                             mode_label=self.mode.value)
        except Exception as exc:
            return _failed(start, exc)
        wall_s = time.perf_counter() - start
        catalyst = self.mode is CATALYST
        problems = []
        # Checked against the map this load's own document request got,
        # never one left over from an earlier load.
        if len(self.maps) != documents + 1:
            problems.append(f"documents: {len(self.maps) - documents} "
                            "document requests for one load")
        doc_map = self.maps[-1] if len(self.maps) > documents else None
        problems += check_load(result, self.page, cold=cold,
                               catalyst=catalyst, doc_map=doc_map)
        # Wall-clock timings are not outputs; where each resource came
        # from, its status and its bytes are.
        signature = tuple(sorted((e.url, e.source.value, e.status,
                                  e.bytes_down) for e in result.events))
        return OpResult(wall_s=wall_s, problems=problems,
                        bytes_down=result.bytes_down, signature=signature)


class SocketRevisit(Workload):
    """Real page loads over loopback through the asyncio server and client.

    A round is six loads: a standard session on a popular site (cold,
    then two warm loads after DEFAULT_REVISIT_MODEL delays), a cold
    Catalyst load of the same site, and the fixed Catalyst probe
    (site 0, cold, then warm one day later).  The probe's warm load is
    failed every time by the real loader fault README.md names.
    """

    name = "socket-revisit"
    EXPECTED_FAILURES = frozenset({MAP_MISMATCH})
    PROBE_SITE = 0
    PROBE_DELAY_S = DAY
    WARM_LOADS = 2

    def setup(self) -> None:
        self.corpus = make_corpus()
        self._routes: dict[str, object] = {}
        self._keys = itertools.count()
        self.loop = asyncio.new_event_loop()
        self.server = AsyncHttpServer(self._route)
        self.loop.run_until_complete(self.server.start())
        self.base_url = self.server.base_url
        self.run_round((self.PROBE_SITE, (10 * MINUTE, DAY)))

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def add_route(self, route) -> str:
        key = f"s{next(self._keys)}"
        self._routes[key] = route
        return key

    def _route(self, request) -> Response:
        if self.tracer is not None:
            self.tracer.count("http.aserver.requests")
        _, key, rest = request.url.split("/", 2)
        route = self._routes.get(key)
        if route is None:
            return Response(status=404, body=b"unknown session")
        forwarded = request.copy()
        forwarded.url = "/" + rest
        return route(forwarded)

    def rounds(self) -> Iterator[object]:
        rng = self.rng("inputs")
        while True:
            for site_index in rng.sample(range(POPULAR_SITES),
                                         POPULAR_SITES):
                yield (site_index,
                       tuple(DEFAULT_REVISIT_MODEL.draw(rng)
                             for _ in range(self.WARM_LOADS)))

    def run_round(self, spec) -> list[OpResult]:
        return self.loop.run_until_complete(self._round(*spec))

    async def _round(self, site_index: int, delays) -> list[OpResult]:
        site = self.corpus[site_index]
        sessions = []
        results = []
        try:
            standard = _SocketSession(self, STANDARD, site)
            sessions.append(standard)
            results.append(await standard.load(cold=True))
            for delay in delays:
                standard.clock += delay
                results.append(await standard.load(cold=False))
            catalyst = _SocketSession(self, CATALYST, site)
            sessions.append(catalyst)
            results.append(await catalyst.load(cold=True))
            probe = _SocketSession(self, CATALYST,
                                   self.corpus[self.PROBE_SITE])
            sessions.append(probe)
            results.append(await probe.load(cold=True))
            probe.clock += self.PROBE_DELAY_S
            results.append(await probe.load(cold=False))
        finally:
            for session in sessions:
                del self._routes[session.key]
        return results


WORKLOADS = {cls.name: cls
             for cls in (DesRevisit, AnalyticFleet, SocketRevisit)}
