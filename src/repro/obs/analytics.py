"""Fleet-scale run analytics: an indexed view across hundreds of runs.

The run registry (:mod:`repro.obs.runs`) made every optimization run a
durable artifact; this module makes the *fleet* of them legible without
replaying every journal on every question.  Three layers:

* :class:`RunIndex` — a durable, incremental index of one runs root.
  Each run's journal is reduced once to a compact *index entry* (the
  :class:`~repro.obs.compare.RunSummary` facts plus failure taxonomy,
  decision tallies, and a warm-start marker) and appended to
  ``<runs_root>/_index.jsonl``.  Every line is CRC-framed like the
  checkpoint store frames its payloads, so a torn append or a flipped
  sector is *detected* and the line simply re-derived from its journal
  — the index is a cache, never a source of truth.  Staleness is
  decided per run from the journal's ``(mtime_ns, size)`` fingerprint:
  an in-flight run whose journal grew, a resumed run, or a deleted run
  directory each invalidate exactly their own entry.  Summarizing 500
  runs therefore replays 0 journals on the warm path: one index read
  plus 500 ``stat`` calls.
* :class:`FleetView` — queries over the indexed entries: filters by
  algorithm / experiment / config fingerprint / outcome, fleet
  roll-ups (failure taxonomy, guard violations, cache-hit and
  Woodbury-engagement and equilibrated-rescue rates, backend
  decision tallies), aggregate convergence envelopes (per-generation
  median/IQR resampled onto a common grid), and ``nearest_runs`` —
  config-distance matching that powers warm starts.
* **Warm starts** — :func:`warm_start_population` finds the nearest
  archived run that journaled a ``final_population`` event (the
  optimizers emit one at completion), loads that population through the
  bounded tail reader, journals a ``warmstart_decision`` event into the
  *current* run's journal, and returns the seed rows for the
  ``initial_population=`` parameter of DE / PSO / NSGA-II / improved
  goal attainment.

Everything here is stdlib + numpy, mirroring the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import journal as _obs_journal
from repro.obs.compare import summarize_replay
from repro.obs.journal import read_tail_events, replay_journal
from repro.obs.runs import JOURNAL_NAME, RunRegistry

__all__ = [
    "INDEX_NAME",
    "INDEX_VERSION",
    "RunIndex",
    "FleetView",
    "index_entry_from_journal",
    "journal_fingerprint",
    "config_distance",
    "load_final_population",
    "warm_start_population",
]

#: Bump when the index-entry layout changes; stale versions are
#: re-derived from their journals on the next refresh.
INDEX_VERSION = 1

#: Index file name under the runs root.  Starts with ``_`` so the run
#: registry never mistakes it for a run directory.
INDEX_NAME = "_index.jsonl"

#: Decision events tallied into each entry (all carry a categorical
#: outcome field — ``chosen`` for the backend, ``mode`` for the
#: surrogate screen, ``accepted`` for warm starts).
_DECISION_EVENTS = ("backend_decision", "screen_decision",
                    "warmstart_decision")

#: Rewrite (compact) the index once dead lines — superseded entries of
#: reindexed runs, entries of deleted runs, corrupt lines — outnumber
#: the live entries by this factor.
_COMPACT_SLACK = 2


def journal_fingerprint(path: str) -> Optional[Dict[str, int]]:
    """The staleness fingerprint of one journal file.

    ``(mtime_ns, size)`` changes whenever the journal is appended to,
    truncated (torn-tail repair), or rewritten — exactly the cases that
    invalidate an index entry.  ``None`` when the file is missing.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return {"mtime_ns": int(stat.st_mtime_ns), "size": int(stat.st_size)}


def _decision_key(name: str, event: dict) -> str:
    if name == "warmstart_decision":
        return "accepted" if event.get("accepted") else "rejected"
    if name == "screen_decision":
        return str(event.get("mode", "unknown"))
    return str(event.get("chosen", "unknown"))


def index_entry_from_journal(journal_path: str, run_id: str) -> dict:
    """Reduce one journal to its index entry (the only replaying path)."""
    replay = replay_journal(journal_path)
    summary = summarize_replay(replay)
    start = replay.run_start or {}
    end = replay.run_end or {}
    config = start.get("config")
    if not isinstance(config, dict):
        config = None

    decisions: Dict[str, Dict[str, int]] = {}
    for name in _DECISION_EVENTS:
        for event in replay.select(name):
            key = _decision_key(name, event)
            bucket = decisions.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + 1

    # Failure taxonomy: the last health event is authoritative (it is
    # the run's own RunHealth record); counters absorbed under
    # health.failures.* are the fallback for journals without one.
    failures: Dict[str, int] = {}
    for event in replay.select("health"):
        failures = {
            key[len("failures."):]: int(value)
            for key, value in event.items()
            if key.startswith("failures.")
        }
    if not failures:
        failures = {
            key[len("health.failures."):]: int(value)
            for key, value in summary.counters.items()
            if key.startswith("health.failures.")
        }

    final_population = None
    for event in reversed(replay.select("final_population")):
        population = event.get("population")
        if isinstance(population, list) and population:
            final_population = {
                "algorithm": str(event.get("algorithm", "")),
                "n": len(population),
            }
            break

    experiment = None
    if config is not None and isinstance(config.get("experiment"), str):
        experiment = config["experiment"]

    return {
        "run_id": str(run_id),
        "index_version": INDEX_VERSION,
        "fingerprint": journal_fingerprint(journal_path),
        "status": summary.status,
        "algorithms": list(summary.algorithms),
        "experiment": experiment,
        "config": config,
        "config_fingerprint": start.get("config_fingerprint"),
        "started_at": start.get("t"),
        "ended_at": end.get("t"),
        "n_generations": summary.n_generations,
        "best_per_generation": list(summary.best_per_generation),
        "final_best": summary.final_best,
        "total_nfev": summary.total_nfev,
        "n_failures": summary.n_failures,
        "guard_violations": summary.guard_violations,
        "cache_hit_rate": summary.cache_hit_rate,
        "wall_time_s": summary.wall_time_s,
        "yield_fraction": summary.yield_fraction,
        "worst_case_nf_db": summary.worst_case_nf_db,
        "counters": dict(summary.counters),
        "failures": failures,
        "decisions": decisions,
        "n_resumes": summary.n_resumes,
        "truncated_tail": summary.truncated_tail,
        "n_corrupt": summary.n_corrupt,
        "final_population": final_population,
    }


def _frame_line(entry: dict) -> bytes:
    """One CRC-framed index line: ``header \\t body`` (both JSON).

    The CRC is computed over the body's *bytes*, so verification on
    read is one ``crc32`` plus one parse — never a re-serialization.
    A line missing the tab, failing the CRC, or torn mid-write simply
    fails :func:`_parse_line` and the entry is re-derived from its
    journal.
    """
    body = json.dumps(entry, sort_keys=True, separators=(",", ":"),
                      allow_nan=True).encode("utf-8")
    header = json.dumps(
        {"v": INDEX_VERSION,
         "crc": zlib.crc32(body) & 0xFFFFFFFF,
         "run_id": entry["run_id"]},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return header + b"\t" + body + b"\n"


def _parse_line(raw: bytes) -> Optional[dict]:
    """Decode + CRC-verify one framed line; ``None`` on any damage."""
    header_raw, tab, body = raw.partition(b"\t")
    if not tab:
        return None
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict) or header.get("v") != INDEX_VERSION:
        return None
    if (zlib.crc32(body) & 0xFFFFFFFF) != header.get("crc"):
        return None
    try:
        entry = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(entry, dict) or "run_id" not in entry:
        return None
    return entry


class RunIndex:
    """The durable incremental index of one runs root.

    The index is *self-rebuilding*: :meth:`refresh` reconciles the file
    against reality (journal fingerprints) on every call, so deleting
    the file, truncating it mid-line (SIGKILL during an append), or
    flipping bits in it costs one re-derivation, never wrong answers.
    Appends go through the same temp-file-free append+fsync discipline
    as the journal itself; compaction rewrites through a temp file +
    ``os.replace`` so a crash leaves either the old or the new index.
    """

    def __init__(self, root: Optional[str] = None,
                 registry: Optional[RunRegistry] = None):
        self.registry = (registry if registry is not None
                         else root if isinstance(root, RunRegistry)
                         else RunRegistry(root))
        self.root = self.registry.root
        self.path = os.path.join(self.root, INDEX_NAME)
        #: Statistics of the last :meth:`refresh` (for tests/CLI).
        self.last_refresh: Dict[str, int] = {}

    # -- file io ------------------------------------------------------------
    def _load_file(self) -> Tuple[Dict[str, dict], int, int]:
        """``(entries by run id, n_corrupt_lines, n_total_lines)``.

        Later lines supersede earlier ones for the same run id — the
        append-per-refresh discipline makes the newest line the truth.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            return {}, 0, 0
        entries: Dict[str, dict] = {}
        n_corrupt = 0
        lines = [line for line in data.split(b"\n") if line]
        for raw in lines:
            entry = _parse_line(raw)
            if entry is None:
                n_corrupt += 1
                continue
            entries[str(entry["run_id"])] = entry
        return entries, n_corrupt, len(lines)

    def _append(self, entries: Iterable[dict]) -> None:
        blob = b"".join(_frame_line(entry) for entry in entries)
        if not blob:
            return
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())

    def _rewrite(self, entries: Dict[str, dict]) -> None:
        """Compact: one line per live run, sorted, via temp + replace."""
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".index.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                for run_id in sorted(entries):
                    handle.write(_frame_line(entries[run_id]))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- the reconcile loop -------------------------------------------------
    def refresh(self, force: bool = False) -> Dict[str, dict]:
        """Reconcile the index with the runs root; returns live entries.

        Incremental: a run is re-derived from its journal only when it
        is new, its stored fingerprint disagrees with the journal's
        current ``(mtime_ns, size)``, its entry predates the current
        entry layout, or *force* is set.  Entries of deleted runs are
        dropped; the file is compacted when dead lines pile up.
        """
        entries, n_corrupt, n_lines = self._load_file()
        live: Dict[str, dict] = {}
        fresh: List[dict] = []
        n_reindexed = 0
        for run_id in self.registry.list_runs():
            journal_path = os.path.join(self.root, run_id, JOURNAL_NAME)
            fingerprint = journal_fingerprint(journal_path)
            if fingerprint is None:
                continue  # no journal yet: nothing to index
            entry = entries.get(run_id)
            stale = (
                force
                or entry is None
                or entry.get("index_version") != INDEX_VERSION
                or entry.get("fingerprint") != fingerprint
            )
            if stale:
                entry = index_entry_from_journal(journal_path, run_id)
                fresh.append(entry)
                n_reindexed += 1
            live[run_id] = entry
        self._append(fresh)
        n_removed = len(set(entries) - set(live))
        n_dead = (n_lines + len(fresh)) - len(live)
        if n_corrupt or n_removed \
                or n_dead > _COMPACT_SLACK * max(len(live), 1):
            self._rewrite(live)
        self.last_refresh = {
            "n_runs": len(live),
            "n_reindexed": n_reindexed,
            "n_removed": n_removed,
            "n_corrupt": n_corrupt,
        }
        return live

    def rebuild(self) -> Dict[str, dict]:
        """Drop the file and re-derive every entry from its journal."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
        return self.refresh(force=True)

    def entries(self, refresh: bool = True) -> Dict[str, dict]:
        """Live entries — refreshed (default) or as stored on disk."""
        if refresh:
            return self.refresh()
        entries, _, _ = self._load_file()
        return entries


# ----------------------------------------------------------------------
# fleet queries
# ----------------------------------------------------------------------

def _resample_curve(curve: Sequence[float], grid: np.ndarray) -> np.ndarray:
    """One best-per-generation curve on the normalized progress grid."""
    values = np.asarray(curve, dtype=float)
    if values.size == 1:
        return np.full(grid.size, values[0])
    x = np.linspace(0.0, 1.0, values.size)
    return np.interp(grid, x, values)


def config_distance(a: Optional[dict], b: Optional[dict]) -> float:
    """Similarity of two run configurations (0 = identical keys/values).

    Numeric values contribute a normalized absolute difference, equal
    non-numeric values contribute 0, differing ones 1, and keys present
    on only one side 0.25 each; the sum is averaged over the key union
    so the distance is comparable across configs of different sizes.
    Missing configs are infinitely far — they can never be "nearest".
    """
    if a is None or b is None:
        return float("inf")
    keys = set(a) | set(b)
    if not keys:
        return 0.0
    score = 0.0
    for key in keys:
        if key not in a or key not in b:
            score += 0.25
            continue
        va, vb = a[key], b[key]
        num_a = isinstance(va, (int, float)) and not isinstance(va, bool)
        num_b = isinstance(vb, (int, float)) and not isinstance(vb, bool)
        if num_a and num_b:
            score += abs(float(va) - float(vb)) / (
                1.0 + abs(float(va)) + abs(float(vb))
            )
        elif va != vb:
            score += 1.0
    return score / len(keys)


def _rate(numerator: float, denominator: float) -> Optional[float]:
    return None if denominator <= 0 else numerator / denominator


class FleetView:
    """Queries over an indexed runs root.

    Construction refreshes the index once (cheap on the warm path);
    every query then works from the in-memory entries, so a CLI call or
    a dashboard render touches each journal file's *metadata* once and
    its contents never.
    """

    def __init__(self, root: Optional[str] = None,
                 index: Optional[RunIndex] = None, refresh: bool = True):
        self.index = index if index is not None else RunIndex(root)
        self._entries = self.index.entries(refresh=refresh)

    # -- selection ----------------------------------------------------------
    def runs(self, algorithm: Optional[str] = None,
             experiment: Optional[str] = None,
             config_fingerprint: Optional[str] = None,
             status: Optional[str] = None) -> List[dict]:
        """Entries matching every given filter, in creation order."""
        selected = []
        for entry in self._entries.values():
            if algorithm is not None \
                    and algorithm not in entry.get("algorithms", []):
                continue
            if experiment is not None \
                    and entry.get("experiment") != experiment:
                continue
            if config_fingerprint is not None \
                    and entry.get("config_fingerprint") != config_fingerprint:
                continue
            if status is not None and entry.get("status") != status:
                continue
            selected.append(entry)
        selected.sort(key=lambda e: (e.get("started_at") or 0.0,
                                     e["run_id"]))
        return selected

    # -- roll-ups -----------------------------------------------------------
    def summary(self, **filters) -> dict:
        """The fleet's headline numbers under the given filters."""
        entries = self.runs(**filters)
        by_status: Dict[str, int] = {}
        by_algorithm: Dict[str, int] = {}
        by_experiment: Dict[str, int] = {}
        total_nfev = 0
        total_wall = 0.0
        n_resumes = 0
        n_truncated = 0
        best_entry = None
        for entry in entries:
            by_status[entry.get("status", "incomplete")] = \
                by_status.get(entry.get("status", "incomplete"), 0) + 1
            for algorithm in entry.get("algorithms", []):
                by_algorithm[algorithm] = by_algorithm.get(algorithm, 0) + 1
            experiment = entry.get("experiment")
            if experiment:
                by_experiment[experiment] = \
                    by_experiment.get(experiment, 0) + 1
            total_nfev += int(entry.get("total_nfev") or 0)
            total_wall += float(entry.get("wall_time_s") or 0.0)
            n_resumes += int(entry.get("n_resumes") or 0)
            n_truncated += int(bool(entry.get("truncated_tail")))
            final_best = entry.get("final_best")
            if final_best is not None and np.isfinite(final_best) \
                    and entry.get("status") == "completed" \
                    and (best_entry is None
                         or final_best < best_entry["final_best"]):
                best_entry = {"run_id": entry["run_id"],
                              "final_best": float(final_best)}
        return {
            "n_runs": len(entries),
            "by_status": by_status,
            "by_algorithm": by_algorithm,
            "by_experiment": by_experiment,
            "total_nfev": total_nfev,
            "total_wall_time_s": total_wall,
            "n_resumes": n_resumes,
            "n_truncated_tails": n_truncated,
            "best": best_entry,
            "failures": self.failures(**filters),
            "rates": self.rates(**filters),
        }

    def failures(self, **filters) -> dict:
        """Fleet-wide failure taxonomy and guard-violation roll-up."""
        entries = self.runs(**filters)
        by_category: Dict[str, int] = {}
        total = 0
        guard_violations = 0.0
        runs_with_failures = 0
        worst: List[Tuple[int, str]] = []
        for entry in entries:
            n_failures = int(entry.get("n_failures") or 0)
            total += n_failures
            if n_failures:
                runs_with_failures += 1
                worst.append((n_failures, entry["run_id"]))
            for category, count in (entry.get("failures") or {}).items():
                by_category[category] = by_category.get(category, 0) \
                    + int(count)
            guard_violations += float(entry.get("guard_violations") or 0.0)
        worst.sort(key=lambda pair: (-pair[0], pair[1]))
        return {
            "total": total,
            "by_category": by_category,
            "guard_violations": guard_violations,
            "runs_with_failures": runs_with_failures,
            "worst_runs": [
                {"run_id": run_id, "n_failures": count}
                for count, run_id in worst[:5]
            ],
        }

    def rates(self, **filters) -> dict:
        """Cache / solver-economics rates summed over the fleet.

        Every rate is computed from fleet-wide totals (not averaged per
        run), so a handful of tiny runs cannot drown the economics of
        the big ones.
        """
        entries = self.runs(**filters)

        def total(counter: str) -> float:
            return float(sum(
                (entry.get("counters") or {}).get(counter, 0.0)
                for entry in entries
            ))

        decisions: Dict[str, Dict[str, int]] = {}
        for entry in entries:
            for name, tallies in (entry.get("decisions") or {}).items():
                bucket = decisions.setdefault(name, {})
                for key, count in tallies.items():
                    bucket[key] = bucket.get(key, 0) + int(count)

        cache_hits = total("evaluator.cache_hits")
        cache_misses = total("evaluator.cache_misses")
        woodbury = total("mna.woodbury_solves")
        woodbury_fallbacks = total("mna.woodbury_fallbacks")
        batch_solves = total("engine.batch_solves")
        screened = total("robust.screened")
        corner_evals = total("robust.corner_evals")
        return {
            "cache_hit_rate": _rate(cache_hits,
                                    cache_hits + cache_misses),
            "woodbury_engagement": _rate(
                woodbury, woodbury + woodbury_fallbacks + batch_solves),
            "equilibrated_rescues": total("mna.equilibrated_rescues")
            + total("dc.equilibrated_rescues"),
            "screen_fraction": _rate(screened, screened + corner_evals),
            "decisions": decisions,
        }

    def envelopes(self, n_grid: int = 24, **filters) -> dict:
        """Aggregate convergence envelopes per algorithm signature.

        Each run's best-per-generation curve is resampled onto a common
        normalized-progress grid (0 = initialization, 1 = final
        generation), then summarized pointwise as median and
        interquartile range.  Runs of different lengths therefore
        contribute on equal footing — the envelope answers "how far
        along is a run at X% of its budget", not "what happens at
        generation k".
        """
        grid = np.linspace(0.0, 1.0, max(int(n_grid), 2))
        curves: Dict[str, List[np.ndarray]] = {}
        for entry in self.runs(**filters):
            curve = entry.get("best_per_generation") or []
            finite = [v for v in curve if np.isfinite(v)]
            if not finite or len(finite) != len(curve):
                continue
            label = ",".join(entry.get("algorithms", [])) or "unknown"
            curves.setdefault(label, []).append(
                _resample_curve(curve, grid))
        envelopes = {}
        for label, resampled in sorted(curves.items()):
            stack = np.vstack(resampled)
            envelopes[label] = {
                "grid": grid.tolist(),
                "median": np.median(stack, axis=0).tolist(),
                "q25": np.percentile(stack, 25, axis=0).tolist(),
                "q75": np.percentile(stack, 75, axis=0).tolist(),
                "n_runs": int(stack.shape[0]),
            }
        return envelopes

    def top(self, n: int = 10, key: str = "final_best",
            **filters) -> List[dict]:
        """The *n* best runs by *key* (ascending; all objectives minimize)."""
        rows = []
        for entry in self.runs(**filters):
            value = entry.get(key)
            if value is None or not np.isfinite(value):
                continue
            rows.append({
                "run_id": entry["run_id"],
                key: float(value),
                "status": entry.get("status"),
                "algorithms": list(entry.get("algorithms", [])),
                "total_nfev": entry.get("total_nfev"),
                "n_failures": entry.get("n_failures"),
            })
        rows.sort(key=lambda row: (row[key], row["run_id"]))
        return rows[:max(int(n), 0)]

    # -- warm-start plumbing ------------------------------------------------
    def nearest_runs(self, config: Optional[dict], n: int = 5,
                     algorithm: Optional[str] = None,
                     require_population: bool = False,
                     status: str = "completed") -> List[Tuple[float, dict]]:
        """Archived runs nearest to *config*, as ``(distance, entry)``.

        An exact ``config_fingerprint`` match is distance 0; otherwise
        the normalized key-wise distance of :func:`config_distance`.
        Ties break on run id, so the ranking is deterministic across
        refreshes and rebuilds.
        """
        fingerprint = _obs_journal.config_fingerprint(config)
        scored: List[Tuple[float, str, dict]] = []
        for entry in self.runs(status=status):
            if algorithm is not None:
                population = entry.get("final_population") or {}
                entry_algorithms = set(entry.get("algorithms", []))
                entry_algorithms.add(population.get("algorithm"))
                if algorithm not in entry_algorithms:
                    continue
            if require_population and not entry.get("final_population"):
                continue
            if fingerprint is not None \
                    and entry.get("config_fingerprint") == fingerprint:
                distance = 0.0
            else:
                distance = config_distance(config, entry.get("config"))
            if not np.isfinite(distance):
                continue
            scored.append((distance, entry["run_id"], entry))
        scored.sort(key=lambda item: (item[0], item[1]))
        return [(distance, entry)
                for distance, _, entry in scored[:max(int(n), 0)]]


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------

def load_final_population(journal_path: str) -> Optional[dict]:
    """The last ``final_population`` event of a journal, decoded.

    Reads the file backwards in bounded blocks (the event is among the
    last lines of a finished run), so probing a candidate costs tail
    I/O, not a replay.  Returns ``{"algorithm", "population", "fitness"}``
    with numpy arrays, or ``None`` when the run never journaled one.
    """
    try:
        events, _ = read_tail_events(journal_path, 1,
                                     event="final_population")
    except OSError:
        return None
    if not events:
        return None
    event = events[0]
    population = event.get("population")
    if not isinstance(population, list) or not population:
        return None
    try:
        matrix = np.asarray(population, dtype=float)
    except (TypeError, ValueError):
        return None
    if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
        return None
    fitness = event.get("fitness")
    fitness_arr = None
    if isinstance(fitness, list) and len(fitness) == matrix.shape[0]:
        try:
            fitness_arr = np.asarray(fitness, dtype=float)
        except (TypeError, ValueError):
            fitness_arr = None
    return {
        "algorithm": str(event.get("algorithm", "")),
        "population": matrix,
        "fitness": fitness_arr,
    }


def warm_start_population(config: Optional[dict],
                          root: Optional[str] = None,
                          algorithm: Optional[str] = None,
                          population_size: Optional[int] = None,
                          max_distance: float = 1.0,
                          view: Optional[FleetView] = None,
                          ) -> Optional[np.ndarray]:
    """Seed rows from the nearest archived run's final population.

    Consults the fleet index for *root* (refreshing it), ranks archived
    completed runs by config distance, and loads the first candidate
    within *max_distance* that journaled a usable ``final_population``.
    Rows are ordered best-fitness-first and truncated to
    *population_size* when given, so partially seeding a larger cold
    population keeps the strongest archive members.

    Every outcome — accepted or not — is journaled as a
    ``warmstart_decision`` event through the ambient hook, so the new
    run's own journal records where its initial population came from
    (and the fleet index tallies the decision).  Returns ``None`` when
    no archive qualifies: the caller simply starts cold.
    """
    try:
        if view is None:
            view = FleetView(root)
        candidates = view.nearest_runs(config, n=8, algorithm=algorithm,
                                       require_population=True)
    except OSError as exc:
        _obs_journal.emit("warmstart_decision", accepted=False,
                          reason=f"index unavailable: {exc}")
        return None
    for distance, entry in candidates:
        if distance > max_distance:
            break  # candidates are sorted; everything after is farther
        journal_path = os.path.join(view.index.root, entry["run_id"],
                                    JOURNAL_NAME)
        payload = load_final_population(journal_path)
        if payload is None:
            continue
        population = payload["population"]
        fitness = payload["fitness"]
        if fitness is not None:
            order = np.argsort(fitness, kind="stable")
            population = population[order]
        if population_size is not None:
            population = population[:max(int(population_size), 1)]
        _obs_journal.emit(
            "warmstart_decision",
            accepted=True,
            source_run=entry["run_id"],
            source_algorithm=payload["algorithm"],
            distance=float(distance),
            n_seeded=int(population.shape[0]),
        )
        return np.array(population, dtype=float)
    _obs_journal.emit(
        "warmstart_decision",
        accepted=False,
        reason="no archived run within distance"
        if candidates else "no archived final_population",
        n_candidates=len(candidates),
    )
    return None
