"""Deterministic multi-process sweep executor with a result cache.

Every row of the sweep table (``repro.bench.sweeps``) is a grid of
independent **cells** — one ``(figure, series, x)`` measurement each,
every cell building its own fresh :class:`~repro.mpi.world.Cluster`.
The simulation is deterministic and cells share no mutable state, so
cells can be fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merged back in
canonical cell order: the resulting CSV/JSON output is byte-identical
to the serial path, whatever the worker count or completion order.

On top of the executor sits the one result cache, content-addressed
under ``.repro-cache/`` (override with ``$REPRO_CACHE_DIR``): the key
(:func:`cell_key`) hashes everything a cell's value depends on, so
unchanged cells are skipped on re-runs and a cost-model recalibration, an
edit to any source file of the package, or a different fault profile
forces re-measurement.  ``--fresh`` (:func:`set_cache_enabled`) or
``$REPRO_BENCH_CACHE=0`` switches the cache off.

Worker count resolution order: explicit ``jobs=`` argument, then
:func:`set_jobs` (the CLI's ``-j``), then ``$REPRO_BENCH_JOBS``, then 1
(serial).  ``jobs <= 0`` means "all cores".
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "Cell",
    "SweepStats",
    "STATS",
    "cache_dir",
    "cell_key",
    "evaluate_cell",
    "resolve_jobs",
    "run_cells",
    "set_cache_enabled",
    "set_jobs",
    "source_digest",
]

JOBS_ENV = "REPRO_BENCH_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_ENV = "REPRO_BENCH_CACHE"
DEFAULT_CACHE_DIR = ".repro-cache"

#: the package whose sources a cached value is only as fresh as
_SOURCES = Path(__file__).resolve().parents[1]

#: process-wide defaults installed by the CLIs (None = consult the env)
_default_jobs: Optional[int] = None
_cache_enabled: Optional[bool] = None


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a single measurement of ``series`` at ``x``.

    ``figure`` names a row of :data:`repro.bench.sweeps.SWEEPS` and
    ``x`` a point on its axis — a name where the axis is one
    (``network``'s preset).  ``extra`` carries further kwargs as a
    sorted tuple of ``(name, value)`` pairs (e.g. ``(("nranks", 8),)``
    for fig11), hashable and picklable.
    """

    figure: str
    series: str
    x: int | str
    extra: tuple = ()


@dataclass
class SweepStats:
    """Cumulative counters across :func:`run_cells` calls."""

    cells: int = 0
    cache_hits: int = 0
    executed: int = 0

    def reset(self) -> None:
        self.cells = self.cache_hits = self.executed = 0


#: module-wide counters — tests and the selftest read (and reset) these
STATS = SweepStats()


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def set_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (the CLI ``-j``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, CLI default, env, then 1."""
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"${JOBS_ENV}={env!r} is not an integer")
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def set_cache_enabled(enabled: Optional[bool]) -> None:
    """Force the result cache on/off process-wide (None = consult env)."""
    global _cache_enabled
    _cache_enabled = enabled


def cache_enabled() -> bool:
    if _cache_enabled is not None:
        return _cache_enabled
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in ("0", "false", "no")


def cache_dir() -> Path:
    """Root of the content-addressed result cache."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


# ----------------------------------------------------------------------
# cache keying
# ----------------------------------------------------------------------

@functools.cache
def source_digest() -> str:
    """SHA-256 over every ``*.py`` of the package (relative path and
    bytes, in sorted order), computed once per process: the part of a
    cell's key that makes any source edit a cache miss."""
    digest = hashlib.sha256()
    for path in sorted(_SOURCES.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(_SOURCES).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cell_key(cell: Cell) -> str:
    """Content hash of everything the cell's value depends on: its
    coordinates, the workload its row derives from ``x``, every
    cost-model parameter, the package's sources (:func:`source_digest`)
    and the fault environment."""
    from repro.bench.sweeps import SWEEPS
    from repro.ib.costmodel import CostModel

    material = {
        **asdict(cell),
        "workload": SWEEPS[cell.figure].layout(cell.x).name,
        "cost_model": asdict(CostModel.mellanox_2003()),
        "sources": source_digest(),
        "fault_env": {
            "profile": os.environ.get("REPRO_FAULT_PROFILE", ""),
            "seed": os.environ.get("REPRO_FAULT_SEED", ""),
        },
    }
    blob = json.dumps(material, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(key: str) -> Path:
    return cache_dir() / key[:2] / f"{key}.json"


def _cache_load(key: str) -> Optional[float]:
    path = _cache_path(key)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    value = payload.get("value")
    return float(value) if isinstance(value, (int, float)) else None


def _cache_store(key: str, cell: Cell, value: float) -> None:
    path = _cache_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {**asdict(cell), "value": value}
    # atomic publish: concurrent sweeps may race on the same key, and a
    # torn write must never be readable as a (corrupt) cached value
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate_cell(cell: Cell) -> float:
    """Measure one cell in the current process (the worker entry point):
    its row says which probe runs, on what layout, under which scheme and
    options."""
    from repro.bench.sweeps import SWEEPS

    row = SWEEPS[cell.figure]
    probe, scheme, options, cluster, kwargs = row.config(
        cell.series, cell.x, dict(cell.extra)
    )
    return probe(
        scheme, row.layout(cell.x).datatype,
        cluster_kwargs=cluster, scheme_options=options, **kwargs,
    )


def run_cells(cells: Sequence[Cell], jobs: Optional[int] = None) -> dict:
    """Evaluate every cell; returns ``{cell: value}``.

    Cached cells are skipped; misses run serially (``jobs == 1``) or on a
    process pool.  The returned mapping is complete regardless of worker
    count or completion order, so callers assembling output in canonical
    cell order produce byte-identical files either way.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    caching = cache_enabled()

    results: dict = {}
    misses: list[Cell] = []
    keys: dict = {}
    for cell in cells:
        if caching:
            key = cell_key(cell)
            keys[cell] = key
            value = _cache_load(key)
            if value is not None:
                results[cell] = value
                continue
        misses.append(cell)

    STATS.cells += len(cells)
    STATS.cache_hits += len(cells) - len(misses)

    def record(cell: Cell, value: float) -> None:
        results[cell] = value
        if caching:
            _cache_store(keys[cell], cell, value)
        STATS.executed += 1

    if jobs > 1 and len(misses) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            futures = {pool.submit(evaluate_cell, cell): cell for cell in misses}
            for fut in as_completed(futures):
                record(futures[fut], fut.result())
    else:
        for cell in misses:
            record(cell, evaluate_cell(cell))

    return results
