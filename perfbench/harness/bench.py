"""Set-up, the timed phase, the traced pass and the metrics of one run.

The timed phase repeats one cycle of distinct items until
``MIN_REPEATS`` cycles and ``seconds`` of item time are done.  A traced
run skips it and measures one traced pass instead.

Times are reported at *reference speed*.  On a shared virtual machine
the same pure-Python work runs up to 1.6x slower in phases that last
from a second to many minutes, caused by other tenants, and a whole run
can fall inside one.  So every item is bracketed by :func:`probe`, a
fixed stdlib-only Fraction workload, and its wall time is scaled by
``REFERENCE_PROBE_S`` over the mean of the two probes.  An item's time
is the median of its scaled repeats.  Raw wall-clock figures are kept
in the run record beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from .trace import Tracer
from .workloads import WORKLOADS

MODULES = ("scalar", "linalg", "params", "modrep", "analysis", "sampling", "cli")
SETUP_REPS = 5
MIN_REPEATS = 3  # the timed phase never stops before this many cycles
# The probe's uncontended time on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7): there, scaled times equal uncontended wall times.
REFERENCE_PROBE_S = 0.82e-3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {
        "self_ms": "ms",
        "insert_ratio": "ratio",
        "overhead_ratio": "ratio",
        "rows": "entries",
        "det_tries": "count/call",
    }.get(stat, "count")


def load_daha(src: str) -> SimpleNamespace:
    """Import ``daha`` afresh from ``src`` and return its modules."""
    for name in [n for n in sys.modules if n == "daha" or n.startswith("daha.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("daha")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"daha was imported from {where}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"daha.{m}") for m in MODULES})


def probe() -> float:
    """Seconds taken by a fixed Fraction workload: the machine's current speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - start


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n items beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


@dataclass
class Phase:
    """What passes over one cycle measured."""

    times: list  # per item of the cycle: wall seconds of every repeat
    probes: list = field(default_factory=list)  # per item: mean probe beside every repeat
    repeats: int = 0
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)  # per item, from the first repeat
    messages: list = field(default_factory=list)

    @classmethod
    def for_cycle(cls, cycle) -> "Phase":
        return cls(times=[[] for _ in cycle], probes=[[] for _ in cycle])

    @property
    def best(self) -> list:
        """Per item, the least wall time of its repeats."""
        return [min(ts) for ts in self.times]

    @property
    def scaled(self) -> list:
        """Per item, the median of its repeats at reference speed."""
        return [
            statistics.median(t * REFERENCE_PROBE_S / p for t, p in zip(ts, ps))
            for ts, ps in zip(self.times, self.probes)
        ]

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def attempt(wl, dh, item, index: int, phase: Phase, tracer=None) -> None:
    """Run one item (timed), then gate its output (untimed).  A tracer's
    wrappers are installed for the run only, outside the timer."""
    if tracer is not None:
        tracer.install(dh)
    start = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run(dh, item)
        else:
            with tracer.span_item(item.id):
                output = wl.run(dh, item)
    except Exception as exc:  # an item that raises is a failure, not a crash
        error = exc
    else:
        error = None
    finally:
        phase.times[index].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        ok, digest, why = False, "raised", f"raised {type(error).__name__}: {error}"
    else:
        try:
            ok = bool(wl.check(dh, item, output))
            digest = wl.digest(dh, item, output)
            why = "output differs from the expected value"
        except Exception as exc:  # a malformed output fails its gate
            ok, digest, why = False, "unreadable", f"gate raised {type(exc).__name__}: {exc}"
    phase.attempted += 1
    if not ok:
        phase.failed += 1
        phase.messages.append(f"item {item.id} ({item.cls.label}): {why}")
    if phase.repeats == 0:
        phase.digests.append(digest)


def probed_attempt(wl, dh, item, index: int, phase: Phase, last: float, tracer=None) -> float:
    """:func:`attempt`, then record beside it the mean of the probes
    taken just before (``last``) and just after it.  Returns the latter."""
    attempt(wl, dh, item, index, phase, tracer)
    now = probe()
    phase.probes[index].append((last + now) / 2)
    return now


def setup(wl, seed, src: str, workdir: str):
    """Import, seeded input generation and warm-up, ``SETUP_REPS`` times over.

    Returns the last repetition's modules and cycle, the wall time of
    every repetition and the mean probe beside it.
    """
    times = []
    probes = []
    dh = cycle = None
    for r in range(SETUP_REPS):
        gc.collect()
        rep_dir = os.path.join(workdir, f"setup{r}")
        before = probe()
        start = time.perf_counter()
        dh = load_daha(src)
        os.makedirs(rep_dir)
        cycle = wl.generate(dh, seed, rep_dir)
        for cls in wl.classes:  # warm-up: one item of each class with d <= 1
            if cls.d <= 1:
                wl.run(dh, next(it for it in cycle if it.cls is cls))
        times.append(time.perf_counter() - start)
        probes.append((before + probe()) / 2)
        if r + 1 < SETUP_REPS:
            shutil.rmtree(rep_dir)
    return dh, cycle, times, probes


def timed_phase(wl, dh, cycle, seconds: float) -> Phase:
    """Repeat the cycle until ``MIN_REPEATS`` whole cycles and ``seconds``
    of item time are done; the last cycle may stop part way, which gives
    its first items one more repeat."""
    gc.collect()
    phase = Phase.for_cycle(cycle)
    spent = 0.0
    last = probe()
    while phase.repeats < MIN_REPEATS or spent < seconds:
        for index, item in enumerate(cycle):
            last = probed_attempt(wl, dh, item, index, phase, last)
            spent += phase.times[index][-1]
            if phase.repeats >= MIN_REPEATS and spent >= seconds:
                return phase
        phase.repeats += 1
    return phase


def traced_pass(wl, dh, cycle):
    """``MIN_REPEATS`` cycles, each item run untraced and traced one
    after the other, so the overhead compares the two under the same
    machine phase; both are probed like the timed phase.  Which side runs
    first alternates from item to item, so that any advantage of running
    second cancels out.  Every cycle has a fresh tracer; the first
    cycle's spans are returned, the later cycles only steady the
    overhead."""
    gc.collect()
    plain = Phase.for_cycle(cycle)
    traced = Phase.for_cycle(cycle)
    first = None
    last = probe()
    for _ in range(MIN_REPEATS):
        tracer = Tracer()
        sides = ((plain, None), (traced, tracer))
        for index, item in enumerate(cycle):
            for phase, tr in sides if index % 2 else sides[::-1]:
                last = probed_attempt(wl, dh, item, index, phase, last, tr)
        if first is None:
            first = tracer
        plain.repeats += 1
        traced.repeats += 1
    return first, plain, traced


def _class_medians(cycle, best) -> dict:
    by_class = {}
    for item, t in zip(cycle, best):
        by_class.setdefault(item.cls.label, []).append(t)
    return {label: statistics.median(ts) * 1000.0 for label, ts in sorted(by_class.items())}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(name, seed, seconds, trace, root, classes=None, mutate=None, spans_path=None):
    """One run of one workload.  Returns (result, record).

    ``classes`` replaces the workload's item classes (tests use tiny
    ones).  ``mutate``, when given, is applied to the generated cycle
    before anything is timed; tests use it to corrupt an expected value.
    """
    wl = WORKLOADS[name](classes)
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        dh, cycle, setup_times, setup_probes = setup(wl, seed, src, workdir)
        if mutate is not None:
            mutate(cycle)
        if trace:
            tracer, phase, traced = traced_pass(wl, dh, cycle)
        else:
            phase = timed_phase(wl, dh, cycle, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(cycle)
    scaled_setup = [t * REFERENCE_PROBE_S / p for t, p in zip(setup_times, setup_probes)]
    attempted, failed = phase.attempted, phase.failed
    messages = list(phase.messages)
    record = {
        "workload": name,
        "seed": str(seed),
        "trace": int(bool(trace)),
        "seconds": seconds,
        "items": n,
        "items_per_class": {c.label: c.count for c in wl.classes},
        "reducible_per_class": {c.label: c.reducible for c in wl.classes if c.reducible},
        "reducible_share": sum(c.reducible for c in wl.classes) / n,
        "ladder_index": wl.LADDER_INDEX,
        "setup_reps_s": scaled_setup,
        "digest": phase.digest,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }

    if trace:
        attempted += traced.attempted
        failed += traced.failed
        messages += traced.messages
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = sum(traced.scaled) / sum(phase.scaled)
        metrics = {k: _metric(v, per_layer_unit(k)) for k, v in metrics.items()}
        record["traced_digest"] = traced.digest
        record["spans"] = len(tracer)
        if spans_path:
            tracer.write(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, root)
    else:
        scaled, best = phase.scaled, phase.best
        tail_p = tail_percentile(n)
        all_probes = [p for ps in phase.probes for p in ps]
        record.update({
            "repeats": phase.repeats,
            "tail": {"percentile": tail_p, "items": n, "beyond": n - math.ceil(tail_p / 100.0 * n)},
            "class_p50_ms": _class_medians(cycle, scaled),
            "timed_s": sum(sum(ts) for ts in phase.times),
            "probe_ms": {"reference": REFERENCE_PROBE_S * 1000.0,
                         "median": statistics.median(all_probes) * 1000.0,
                         "min": min(all_probes) * 1000.0},
            "wall": {
                "setup_s": statistics.median(setup_times),
                "items_per_s": n / sum(best),
                "item_p50_ms": statistics.median(best) * 1000.0,
                "item_tail_ms": nearest_rank(sorted(best), tail_p) * 1000.0,
            },
        })
        metrics = {
            "setup_s": statistics.median(scaled_setup),
            "items_per_s": n / sum(scaled),
            "item_p50_ms": statistics.median(scaled) * 1000.0,
            "item_tail_ms": nearest_rank(sorted(scaled), tail_p) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    record["fail_ratio"] = failed / attempted
    record["failures"] = messages[:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record
