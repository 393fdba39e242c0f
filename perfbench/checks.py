"""Output checks, made against the input spec or a property of the method.

Nothing here compares with recorded output: a page load must acquire
exactly the resource set its :class:`~repro.workload.sitegen.PageSpec`
lists, a cold load must come from the network, and a Catalyst load must
not serve a cached resource under an ETag other than the one the origin
stapled to that load's HTML.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.browser.metrics import FetchSource, PageLoadResult
from repro.workload.sitegen import PageSpec

#: response header carrying the stapled URL -> opaque-ETag map (JSON)
ETAG_MAP_HEADER = "X-Etag-Config"

#: the one failure kind the socket workload expects (see README.md)
MAP_MISMATCH = "catalyst-cache-serve-against-map"

_CACHE_SOURCES = (FetchSource.SW_CACHE, FetchSource.HTTP_CACHE)


def stapled_map(response) -> Optional[dict[str, str]]:
    """The map a document response carries, or None without one."""
    raw = response.headers.get(ETAG_MAP_HEADER)
    if raw is None:
        return None
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise ValueError(f"{ETAG_MAP_HEADER} is not a JSON object")
    return payload


def check_load(result: PageLoadResult, page: PageSpec, cold: bool,
               catalyst: bool,
               doc_map: Optional[dict[str, str]]) -> list[str]:
    """Problems with one page load; an empty list means it passed.

    Problems are ``(kind, detail)`` strings joined by ``": "`` so the
    caller can tell the expected socket-path fault from anything else.
    """
    problems = []
    urls = [event.url for event in result.events]
    expected = {page.url, *page.resources}
    if len(urls) != len(set(urls)) or set(urls) != expected:
        missing = sorted(expected - set(urls))[:3]
        extra = sorted(set(urls) - expected)[:3]
        problems.append(f"resource-set: {len(urls)} fetches for "
                        f"{len(expected)} resources, missing {missing}, "
                        f"unexpected {extra}")
    statuses = sorted({event.status for event in result.events
                       if event.status not in (200, 304)})
    if statuses:
        problems.append(f"status: {statuses}")
    if cold:
        sources = sorted({event.source.value for event in result.events
                          if event.source is not FetchSource.NETWORK})
        if sources:
            problems.append(f"cold-load-source: {sources}")
    if catalyst:
        if doc_map is None:
            problems.append("no-map: the document response carried no "
                            f"{ETAG_MAP_HEADER}")
        else:
            stale = [event.url for event in result.events
                     if event.source in _CACHE_SOURCES
                     and event.url in doc_map
                     and doc_map[event.url] != event.served_etag]
            if stale:
                problems.append(f"{MAP_MISMATCH}: {len(stale)} resources, "
                                f"e.g. {stale[0]}")
    if not math.isfinite(result.plt_ms) or result.plt_ms <= 0:
        problems.append(f"plt: {result.plt_ms}")
    return problems


def check_fleet(result) -> list[str]:
    """Properties every closed-form fleet pricing must have."""
    problems = []
    reduction = result.reduction()
    if not 0.0 < reduction < 1.0:
        problems.append(f"reduction: {reduction} outside (0, 1)")
    for stats in result.fleet + tuple(
            mode for cohort in result.cohorts for mode in cohort.modes):
        values = (stats.mean_ms, stats.p50_ms, stats.p90_ms, stats.p99_ms)
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"plt: {stats.mode} {values}")
        if not stats.p50_ms <= stats.p90_ms <= stats.p99_ms:
            problems.append(f"percentile-order: {stats.mode} {values}")
        if not 0.0 <= stats.hit_ratio <= 1.0:
            problems.append(f"hit-ratio: {stats.mode} {stats.hit_ratio}")
    return problems
