"""Closed-loop driver, cell outcomes, end-to-end metrics and span tracing.

Everything here runs in one process and one thread.  A workload hands the
loop an iterator of units (one cell, or one batch call that yields many
cells); the loop runs them back to back until the time budget is spent, so
a slower program simply finishes fewer cells.
"""

import json
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

# Units of every end-to-end metric the detail line prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "cell_wall_s.p50": "s",
    "cell_wall_s.p75": "s",
    "optimal_frac": "ratio",
    "mean_gap": "ratio",
    "overrun_s": "s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one (instance, n, objective) cell produced, as seen from outside.

    ``record`` holds the fields that must repeat exactly for the same seed;
    ``time_limited`` marks cells whose answer may change with machine speed.
    """

    cell_id: str
    wall_s: float
    proven: bool = False
    time_limited: bool = False
    soft: bool = False
    gap: float | None = None
    overrun_s: float = 0.0
    problems: list = field(default_factory=list)
    record: object = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def soft_gap(objective, best_bound, proven):
    """(best_bound - objective) / best_bound; 0 when proven, 1 with no incumbent."""
    if proven:
        return 0.0
    if objective is None or not best_bound:
        return 1.0
    return (best_bound - objective) / best_bound


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(setup, repeats):
    """Run ``setup(i)`` ``repeats`` times; return (median seconds, results)."""
    times, results = [], []
    for i in range(repeats):
        start = time.perf_counter()
        results.append(setup(i))
        times.append(time.perf_counter() - start)
    return statistics.median(times), results


def run_loop(units, seconds):
    """Run units back to back until ``seconds`` have elapsed (at least one).

    A unit that raises becomes one failed outcome, and the loop goes on.
    Returns (outcomes, wall seconds of the timed phase, units run).
    """
    outcomes = []
    ran = 0
    start = time.perf_counter()
    for unit in units:
        t0 = time.perf_counter()
        try:
            outcomes.extend(unit())
        except Exception as exc:
            wall = time.perf_counter() - t0
            problem = f"unit {ran} raised {exc!r}\n{traceback.format_exc()}"
            outcomes.append(Outcome(f"unit{ran}", wall, problems=[problem]))
        ran += 1
        if time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, ran


def p75(values):
    """The 75th percentile, or None while fewer than ten samples lie beyond it."""
    if len(values) < 40:
        return None
    return statistics.quantiles(values, n=4)[2]


def end_to_end(outcomes, wall, setup_s):
    walls = [o.wall_s for o in outcomes]
    soft = [o for o in outcomes if o.soft]
    attempted = len(outcomes)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cells_per_s": attempted / wall,
        "cell_wall_s.p50": statistics.median(walls),
        "cell_wall_s.p75": p75(walls),
        "optimal_frac": sum(o.proven for o in outcomes) / attempted,
        "mean_gap": sum(o.gap for o in soft) / len(soft) if soft else None,
        "overrun_s": sum(o.overrun_s for o in outcomes),
        "failed_frac": sum(o.failed for o in outcomes) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- tracing ----------------------------------------------------------------


class NullTracer:
    """Untraced runs: every call goes straight through."""

    enabled = False
    # the current cell id is only kept while tracing
    cell = property(lambda self: None, lambda self, value: None)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, value):
        pass

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """In-memory spans around calls into the package's layers.

    A span is (name, start, end, parent index, cell id).  Counters are
    summed per key.  Nothing is written until :meth:`write_jsonl`.
    ``solved`` holds the (model, limits) pairs of the current unit, for the
    root replay.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.cell = None
        self.solved = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        entry = [name, time.perf_counter(), None, parent, self.cell]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            entry[2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self, exclude=()):
        """Seconds per span name, each span minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            if name in exclude:
                continue
            out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, cell in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "cell": cell}
                    )
                    + "\n"
                )
