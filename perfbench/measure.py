"""Timed phases, correctness checks and the traced per-layer split.

Load comes from one closed-loop client in one process: each call is issued
when the previous one returns.  Every end-to-end timing but ``setup_s`` is
scaled to a reference host speed by a control that the benchmark times
alongside the program (see :func:`end_to_end`).  Lookups are timed in
fixed-size chunks; each chunk's outcomes are checked against
``np.searchsorted`` after its clock stops.  A call into the program that
raises counts as failed work, so a broken program still gets its result
line with ``correct`` false.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from espc import bench, cli, core, data, index, search, stats
from tracing import Spans, Tracer
from workloads import Setup, Workload, bench_argv, bench_config, set_up, spot_queries

CHUNK = 256  # lookups per timed chunk
TRACED_QUERIES = 16_384  # pool prefix replayed in the traced and reference passes
MIN_REPS = 30  # fewest calls behind the low percentile of a whole-call timing
MIN_CHUNKS = 1_000  # fewest chunks per lookup phase, so that ten lie below its 1st percentile
MIN_SETUPS = 9  # fewest set-ups behind the setup_s median, the first included
PREDICT_BATCH = 8_192  # queries per timed predict_many call
# Per-query time of :func:`reference_rank` on the host this was tuned on, a
# shared 2-vCPU Xeon VM.  Every end-to-end timing but setup_s is scaled by
# REFERENCE_NS over the run's own reference time (see :func:`end_to_end`).
REFERENCE_NS = 4_500.0
EXACT_COLUMNS = ("dataset", "n", "k", "mean_error", "bound", "mean_comparisons",
                 "p50_comparisons", "p99_comparisons", "space_bytes", "rho", "seed")


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(what)
        return ok

    def guarded(self, what: str, weight: int, fn, *args):
        """``fn(*args)``, or None with ``weight`` failed operations if it raises."""
        try:
            return fn(*args)
        except Exception as exc:
            self.check(False, f"{what} raised {type(exc).__name__}: {exc}", weight=weight)
            return None


def _checked_ranks(outs, expected, tally: Tally, what: str):
    ranks = np.fromiter((o.rank for o in outs), dtype=np.int64, count=len(outs))
    bad = int(np.count_nonzero(ranks != expected))
    tally.attempted += len(outs)
    if bad:
        tally.failed += bad
        tally.problems.append(f"{what}: {bad} of {len(outs)} ranks differ from searchsorted")


class Lookups:
    """Closed-loop lookups over the pool, one timed chunk per step.

    An untimed first pass over the pool checks every rank and keeps each
    query's comparison count (``first_pass``, in pool order).  Chunk ``c``
    then holds every ``per_pass``-th query in order of that count, so every
    chunk carries the same mix of cheap and expensive queries and the
    spread over chunks follows the machine, not the chunk's queries.
    Each timed chunk's ranks are checked again after its clock stops.
    ``starts`` holds each chunk's start time in seconds.
    """

    def __init__(self, lookup, structure, s: Setup, tally: Tally, what: str):
        self.lookup, self.structure, self.s = lookup, structure, s
        self.tally, self.what = tally, what
        self.per_pass = len(s.pool) // CHUNK
        self.chunk_ns: list[float] = []
        self.starts: list[float] = []
        self.first_pass = np.zeros(len(s.pool), dtype=np.int64)
        outs = tally.guarded(f"{what} first pass", len(s.pool),
                             lambda: [lookup(structure, s.keys, q) for q in s.pool])
        if outs is not None:
            _checked_ranks(outs, s.expected, tally, f"{what} first pass")
            self.first_pass[:] = [o.comparisons for o in outs]
        order = np.argsort(self.first_pass, kind="stable")
        self.chunks = [order[c::self.per_pass] for c in range(self.per_pass)]

    def step(self):
        picks = self.chunks[len(self.chunk_ns) % self.per_pass]
        qs = self.s.pool[picks]
        lookup, structure, keys = self.lookup, self.structure, self.s.keys
        self.starts.append(time.perf_counter())
        t0 = time.perf_counter_ns()
        outs = self.tally.guarded(self.what, len(qs),
                                  lambda: [lookup(structure, keys, q) for q in qs])
        self.chunk_ns.append((time.perf_counter_ns() - t0) / len(qs))
        if outs is not None:
            _checked_ranks(outs, self.s.expected[picks], self.tally, self.what)


@dataclass(frozen=True)
class Ranked:
    """What :func:`reference_rank` gives, with the fields :class:`Lookups` reads."""

    rank: int
    comparisons: int


def reference_rank(_, keys: core.KeyArray, q) -> Ranked:
    """Plain binary search written in the benchmark: the machine-speed control.

    It does the same kind of work as a lookup (interpreted steps that read
    scattered slots of the key array) but no program code, so its time
    moves only with the speed of the host.
    """
    a = keys.keys
    lo, hi, steps = 0, len(a), 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if q < a[mid]:
            hi = mid
        else:
            lo = mid + 1
    return Ranked(lo, steps)


class Calls:
    """Repeated whole calls ``fn(x)``, one per step; ``check(x, out)`` sees each result.

    Step ``i`` calls ``fn`` on ``inputs[i % len(inputs)]``.  A call that
    raises counts as ``weight`` failed operations.  With ``warm``, each step
    first makes one untimed call on the same input, so that the timed one
    finds its data in cache whatever phase ran before it.  ``starts`` holds
    each timed call's start time.
    """

    def __init__(self, fn, check, tally: Tally, what: str, weight: int = 1, warm=False,
                 inputs=(None,)):
        self.fn, self.check, self.inputs = fn, check, inputs
        self.tally, self.what, self.weight, self.warm = tally, what, weight, warm
        self.seconds: list[float] = []
        self.starts: list[float] = []

    def step(self):
        x = self.inputs[len(self.seconds) % len(self.inputs)]
        if self.warm:
            with contextlib.suppress(Exception):  # the timed call reports it
                self.fn(x)
        t0 = time.perf_counter()
        self.starts.append(t0)
        out = self.tally.guarded(self.what, self.weight, self.fn, x)
        self.seconds.append(time.perf_counter() - t0)
        if out is not None:
            self.check(x, out)


def interleave(phases: dict, shares: dict, minimum: dict, seconds: float):
    """Step the phases round-robin, each kept near its share of ``seconds``.

    The next step goes to the phase furthest below its share, so every
    phase samples the whole run and a slow spell of the machine lands on
    all metrics alike.  Runs until ``seconds`` pass and every phase has
    made its minimum number of steps.
    """
    spent = dict.fromkeys(phases, 0.0)
    steps = dict.fromkeys(phases, 0)
    start = time.perf_counter()
    while True:
        candidates = list(phases)
        if time.perf_counter() - start >= seconds:
            candidates = [p for p in phases if steps[p] < minimum[p]]
            if not candidates:
                break
        name = min(candidates, key=lambda p: spent[p] / shares[p])
        t0 = time.perf_counter()
        phases[name].step()
        spent[name] += time.perf_counter() - t0
        steps[name] += 1


def open_stored(s: Setup):
    """What ``espc query`` does before its lookup: read the keys, load the index."""
    return data.read_sosd(s.indexed_path, core.FLOAT_MODE), index.load_index(s.index_path)


def check_stored(s: Setup, out, tally: Tally):
    keys, idx = out
    tally.check(np.array_equal(keys.keys, s.keys.keys), "key file read back differs")
    tally.check(np.array_equal(idx.r, s.idx.r), "index loaded back differs")


def run_bench(argv: list[str]) -> int:
    """``espc bench`` in-process through ``cli.dispatch``, output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def read_rows(csv_path: Path) -> list[dict]:
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_bench_rows(w: Workload, s: Setup, seed: int, rows: list[dict], tally: Tally):
    """Replay ``espc bench``'s keys and queries through the scalar public API.

    Each row's n, k, space, mean error and mean comparison count must equal
    what :func:`espc.index.evaluate_rank`, :func:`espc.index.predict_many`
    and the serialized index give on the same inputs.
    """
    cfg = bench_config(w, s, seed)
    keys = tally.guarded("bench.prepare_keys", len(w.grid), bench.prepare_keys, cfg)
    if keys is None:
        return
    queries = bench.draw_queries(cfg, keys)
    ranks = np.searchsorted(keys.keys, queries, side="right")
    tally.check([int(r["k"]) for r in rows] == list(w.grid), f"bench rows cover K={w.grid}")
    for row in rows:
        k = int(row["k"])
        replayed = tally.guarded(f"bench replay K={k}", len(queries),
                                 _replay, keys, queries, ranks, k)
        if replayed is None:
            continue
        outs, replay = replayed
        _checked_ranks(outs, ranks, tally, f"bench replay K={k}")
        for col, want in replay.items():
            got = type(want)(row[col])
            tally.check(got == want, f"bench row K={k} {col}={got!r}, replay gives {want!r}")


def _replay(keys, queries, ranks, k: int):
    """Scalar lookups at ``k``, and the exact values of that bench row."""
    idx = index.build_espc(keys, k)
    outs = [index.evaluate_rank(idx, keys, q) for q in queries]
    counts = np.array([o.comparisons for o in outs], dtype=np.int64)
    return outs, {
        "n": keys.n,
        "space_bytes": len(index.serialize_index(idx)),
        "mean_error": float(np.mean(np.abs(ranks - index.predict_many(idx, queries)))),
        "mean_comparisons": float(np.mean(counts)),
    }


def spot_check(s: Setup, seed: int, tally: Tally):
    """Every lookup path against the linear-scan oracle on a fixed sample."""
    lookups = (("evaluate_rank", lambda q: index.evaluate_rank(s.idx, s.keys, q)),
               ("evaluate_rank_hier", lambda q: index.evaluate_rank_hier(s.hier, s.keys, q)),
               ("binary_search_rank", lambda q: search.binary_search_rank(s.keys, q)))
    for q in spot_queries(s, seed):
        truth = core.rank_bruteforce(s.keys, q)
        for name, lookup in lookups:
            out = tally.guarded(f"{name}({q!r})", 1, lookup, q)
            if out is not None:
                tally.check(out.rank == truth, f"{name}({q!r})={out.rank}, oracle {truth}")
        if s.idx.x_first <= q <= s.idx.x_last:
            pair = tally.guarded(f"predict({q!r})", 1, lambda: (
                float(index.predict_many(s.idx, [q])[0]), index.predict(s.idx, q)))
            if pair is not None:
                tally.check(pair[0] == pair[1], f"predict_many({q!r})={pair[0]}, predict {pair[1]}")


def low(values) -> float:
    """The 1st percentile, or the lowest one with three samples below it."""
    return float(np.percentile(values, max(1.0, 300.0 / len(values))))


def scaled_low(values, reference: Lookups) -> float:
    """``low(values)`` times REFERENCE_NS over the reference's low percentile.

    For numpy calls, whose slow moments do not follow the interpreted
    reference step by step, but whose fast moments drift with it.
    """
    return low(values) * REFERENCE_NS / low(reference.chunk_ns)


def scaled_median(values, starts, reference: Lookups) -> float:
    """Median over samples of value times REFERENCE_NS over the reference around it.

    For interpreted work, which slows with the reference step by step: each
    sample is divided by the mean of the two reference chunks that started
    last before it and first after it.
    """
    ref_starts = np.asarray(reference.starts)
    ref_ns = np.asarray(reference.chunk_ns)
    after = np.searchsorted(ref_starts, starts).clip(1, len(ref_ns) - 1)
    around = (ref_ns[after - 1] + ref_ns[after]) / 2.0
    return float(np.median(np.asarray(values) / around)) * REFERENCE_NS


def end_to_end(w: Workload, s: Setup, setup_seconds: float, seed: int, seconds: float,
               workdir: Path, tally: Tally):
    """Interleaved untraced phases, then the checks; returns (metrics, samples).

    ``s`` is the run's first set-up, which took ``setup_seconds``.  Repeat
    set-ups are one more phase, so that ``setup_s`` samples the whole run
    as the other timings do.

    The shared 2-vCPU Xeon VM this was tuned on alternates, for seconds to
    minutes at a time, between a fast state and one up to twice as slow,
    and its fast state drifts by up to a fifth over minutes, moving every
    timing together.  Raw medians and low percentiles of the same code
    then differ between runs by 0.1-0.5 of themselves.  So the reference
    phase times :func:`reference_rank`, which runs no program code, among
    the others, and every timing but ``setup_s`` is scaled to a host on
    which it takes ``REFERENCE_NS`` per query: by :func:`scaled_median`
    for interpreted work (lookups, bench calls) and by :func:`scaled_low`
    for numpy calls.  Every raw quantile goes in the report.  ``setup_s``
    stays as measured: it is the set-up time itself.
    """
    first = index.predict_many(s.idx, s.pool)
    batches = list(zip(np.split(s.pool, len(s.pool) // PREDICT_BATCH),
                       np.split(first, len(s.pool) // PREDICT_BATCH)))
    fingerprint = s.fingerprint()
    again = workdir / "again"
    again.mkdir(exist_ok=True)
    csv_path = workdir / "bench.csv"
    argv = bench_argv(w, s, seed, csv_path)
    grid_rows = len(w.grid)
    runs: list[list[dict]] = []

    def bench_check(_, rc):
        if tally.check(rc == 0, f"espc bench exited {rc}", weight=grid_rows):
            runs.append([{c: r[c] for c in EXACT_COLUMNS} for r in read_rows(csv_path)])
            tally.check(runs[-1] == runs[0], "espc bench rows differ between calls")

    phases = {
        "lookup": Lookups(index.evaluate_rank, s.idx, s, tally, "flat"),
        "hier": Lookups(index.evaluate_rank_hier, s.hier, s, tally, "hier"),
        "reference": Lookups(reference_rank, None, s, tally, "reference"),
        "predict_many": Calls(
            lambda b: index.predict_many(s.idx, b[0]),
            lambda b, out: tally.check(np.array_equal(out, b[1]), "predict_many repeat"),
            tally, "predict_many", weight=PREDICT_BATCH, warm=True, inputs=batches),
        "build": Calls(
            lambda _: index.build_espc(s.keys, w.k),
            lambda _, out: tally.check(np.array_equal(out.r, s.idx.r), "rebuild"),
            tally, "build_espc"),
        "bench": Calls(lambda _: run_bench(argv), bench_check, tally, "espc bench",
                       weight=grid_rows),
        # Repeats write their files apart from the ones load and bench read.
        "setup": Calls(
            lambda _: set_up(w, seed, again),
            lambda _, out: tally.check(out.fingerprint() == fingerprint,
                                       "set-up outputs differ between repetitions"),
            tally, "set_up"),
    }
    minimum = {name: MIN_REPS for name in phases}
    minimum["setup"] = MIN_SETUPS - 1
    minimum["lookup"] = minimum["hier"] = minimum["reference"] = max(
        phases["lookup"].per_pass, MIN_CHUNKS)
    interleave(phases, w.shares, minimum, seconds)

    flat, hier = phases["lookup"], phases["hier"]
    ref, bench_calls = phases["reference"], phases["bench"]
    metrics = {
        "lookup_ns_p50": scaled_median(flat.chunk_ns, flat.starts, ref),
        "hier_lookup_ns_p50": scaled_median(hier.chunk_ns, hier.starts, ref),
        "predict_many_ns": scaled_low(phases["predict_many"].seconds, ref) * 1e9 / PREDICT_BATCH,
        "build_ms": scaled_low(phases["build"].seconds, ref) * 1e3,
        "bench_s": scaled_median(bench_calls.seconds, bench_calls.starts, ref),
        "setup_s": statistics.median([setup_seconds, *phases["setup"].seconds]),
    }
    samples = {
        "reference": {"chunks": len(ref.chunk_ns), "chunk_size": CHUNK,
                      "ns_p1": low(ref.chunk_ns), "ns_p50": float(np.median(ref.chunk_ns))},
        "lookup": {"chunks": len(flat.chunk_ns), "chunk_size": CHUNK,
                   "queries": len(flat.chunk_ns) * CHUNK, "pool": len(s.pool)},
        "hier_lookup": {"chunks": len(hier.chunk_ns), "chunk_size": CHUNK,
                        "queries": len(hier.chunk_ns) * CHUNK},
        "predict_many": {"calls": len(phases["predict_many"].seconds),
                         "queries_per_call": PREDICT_BATCH},
        "build": {"calls": len(phases["build"].seconds), "k": w.k},
        "bench": {"calls": len(phases["bench"].seconds), "argv": argv[1:],
                  "queries": w.bench_queries},
        "setup": {"calls": 1 + len(phases["setup"].seconds)},
    }

    series = {"lookup_ns": flat.chunk_ns, "hier_lookup_ns": hier.chunk_ns,
              "reference_ns": phases["reference"].chunk_ns}
    series.update({f"{name}_s": phases[name].seconds
                   for name in ("predict_many", "build", "bench", "setup")})
    samples["quantiles"] = {
        name: {f"p{q}": float(np.percentile(v, q)) for q in (1, 5, 10, 25, 50, 75, 90, 99)}
        for name, v in series.items()}

    stored = tally.guarded("load", 1, open_stored, s)
    if stored is not None:
        check_stored(s, stored, tally)
    rows = runs[0] if runs else []
    check_bench_rows(w, s, seed, rows, tally)
    spot_check(s, seed, tally)

    space = len(index.serialize_index(s.idx))
    tally.check(space == bench.measure_space(s.idx), "serialized size != measure_space")
    if w.k_grid is None:
        mean_error = float(np.mean(np.abs(s.expected - first)))
        bound = stats.error_bound_rho(s.keys.n, w.k, 0.0, 1.0, s.rho.value)
        metrics["mean_comparisons"] = float(np.mean(flat.first_pass))
        metrics["mean_error"] = mean_error
        metrics["error_bound_ratio"] = mean_error / bound
        metrics["space_bytes"] = space
        samples["exact_counts"] = {"queries": len(flat.first_pass)}
    elif rows:
        # The paper's experiment: exact counts are the bench's own rows.
        top = rows[-1]
        metrics["mean_comparisons"] = float(top["mean_comparisons"])
        metrics["mean_error"] = float(top["mean_error"])
        metrics["error_bound_ratio"] = max(float(r["mean_error"]) / float(r["bound"]) for r in rows)
        metrics["space_bytes"] = int(top["space_bytes"])
        samples["exact_counts"] = {"queries": w.bench_queries, "k": int(top["k"])}
    return metrics, samples


# A span the program no longer makes reads as 0 rather than failing the run.
def _median_ns(spans: Spans, idx, use_self=False) -> float:
    values = spans.self_time[idx] if use_self else spans.duration[idx]
    return float(np.median(values)) if len(idx) else 0.0


def _stat(values, fn=np.mean) -> float:
    return float(fn(values)) if len(values) else 0.0


def _sum_ms(spans: Spans, name: str, parent: str | None = None, use_self=False) -> float:
    idx = spans.select(name, parent=parent)
    values = spans.self_time[idx] if use_self else spans.duration[idx]
    return float(np.sum(values)) / 1e6


def traced(w: Workload, s_factory, seed: int, workdir: Path, tally: Tally, trace_path: Path):
    """Traced set-up and one traced pass of each phase; returns per-layer metrics."""
    tracer = Tracer()
    tracer.current_request = 0
    with tracer.patched():
        s = s_factory()
    csv_path = workdir / "bench.csv"
    argv = bench_argv(w, s, seed, csv_path)
    grid_rows = len(w.grid)

    # Untraced and traced chunks alternate so that both meet the same
    # machine state; their time ratio is the tracing overhead.
    keys = s.keys
    plain_ns = traced_ns = 0
    for lo in range(0, TRACED_QUERIES, CHUNK):
        qs, want = s.pool[lo:lo + CHUNK], s.expected[lo:lo + CHUNK]
        for attr, structure, request in (("evaluate_rank", s.idx, 1 << 20),
                                         ("evaluate_rank_hier", s.hier, 2 << 20)):
            lookup = getattr(index, attr)
            t0 = time.perf_counter_ns()
            plain = tally.guarded(attr, len(qs), lambda: [lookup(structure, keys, q) for q in qs])
            plain_ns += time.perf_counter_ns() - t0
            with tracer.patched():
                t0 = time.perf_counter_ns()
                outs = tally.guarded(f"traced {attr}", len(qs), _traced_lookups, tracer,
                                     getattr(index, attr), structure, keys, qs, request + lo)
                traced_ns += time.perf_counter_ns() - t0
            for what, got in ((attr, plain), (f"traced {attr}", outs)):
                if got is not None:
                    _checked_ranks(got, want, tally, what)
    t0 = time.perf_counter_ns()
    rc = tally.guarded("espc bench", grid_rows, run_bench, argv)
    plain_ns += time.perf_counter_ns() - t0
    if rc is not None:
        tally.check(rc == 0, f"espc bench exited {rc}", weight=grid_rows)
    with tracer.patched():
        tracer.current_request = 3 << 20
        t0 = time.perf_counter_ns()
        rc = tally.guarded("traced espc bench", grid_rows, run_bench, argv)
        traced_ns += time.perf_counter_ns() - t0
        for j, q in enumerate(s.pool[:TRACED_QUERIES]):
            tracer.current_request = (4 << 20) + j
            index.predict(s.idx, q)
        tracer.current_request = 5 << 20
        index.build_espc(s.keys, w.k)
        index.save_index(s.idx, s.index_path)
        index.load_index(s.index_path)
    if rc is not None:
        tally.check(rc == 0, f"traced espc bench exited {rc}", weight=grid_rows)
    spot_check(s, seed, tally)

    inside, outside = Tracer.calibrate()
    spans = tracer.arrays(inside, outside)
    spans.save(trace_path)
    m = {}
    roots = spans.select("index.evaluate_rank", roots=[-1])
    m["index.locate_ns"] = _median_ns(spans, spans.select("index.locate_interval", roots=roots))
    predicts = spans.select("index.predict", roots=[-1])
    m["index.predict_ns"] = _median_ns(spans, predicts, use_self=True)
    m["index.lookup_self_ns"] = _median_ns(spans, roots, use_self=True)
    corr = spans.select("search.exponential_search", roots=roots)
    m["search.correct_ns"] = _median_ns(spans, corr)
    m["search.comparisons_mean"] = _stat(spans.count[corr])
    m["search.comparisons_p99"] = _stat(spans.count[corr], lambda v: np.percentile(v, 99))
    m["search.displacement_mean"] = _stat(np.abs(spans.shift[corr]))

    hroots = spans.select("index.evaluate_rank_hier", roots=[-1])
    m["index.hier_top_ns"] = _median_ns(spans, spans.select("index.evaluate_rank", roots=hroots))
    m["search.hier_correct_ns"] = _median_ns(
        spans, spans.select("search.exponential_search", roots=hroots))
    m["search.hier_comparisons_mean"] = _stat(spans.count[hroots])

    m["index.assign_intervals_ms"] = _sum_ms(spans, "index.assign_intervals", "index.build_espc")
    m["index.serialize_ms"] = _sum_ms(spans, "index.serialize_index")
    m["index.deserialize_ms"] = _sum_ms(spans, "index.deserialize_index")
    m["bench.measure_comparisons_ms"] = _sum_ms(spans, "bench.measure_comparisons")
    m["bench.measure_errors_ms"] = _sum_ms(spans, "bench.measure_errors")
    m["bench.build_ms"] = _sum_ms(spans, "index.build_espc", "bench.run_error_experiment")
    m["bench.prepare_keys_ms"] = _sum_ms(spans, "bench.prepare_keys")
    m["cli.dispatch_self_ms"] = _sum_ms(spans, "cli.dispatch", use_self=True)
    m["stats.estimate_rho_ms"] = _sum_ms(spans, "stats.estimate_rho")

    p = s.profile.p
    m["stats.max_cell_keys"] = round(float(np.max(p)) * s.keys.n)
    m["stats.empty_cell_frac"] = float(np.mean(p == 0.0))
    m["stats.collision_probability"] = s.profile.collision_probability
    m["stats.rho"] = s.rho.value

    for name in ("generate", "write_sosd", "read_sosd", "subsample"):
        m[f"data.{name}_ms"] = _sum_ms(spans, f"data.{name}")
    m["data.rescale_ms"] = _sum_ms(spans, "data.rescale_unit")

    binary_ns, binary_counts = _binary_baseline(s, tally)
    m["search.binary_ns"] = binary_ns
    m["search.binary_comparisons_mean"] = binary_counts
    searchsorted = Calls(lambda _: np.searchsorted(s.keys.keys, s.pool, side="right"),
                         lambda _, out: tally.check(np.array_equal(out, s.expected),
                                                    "searchsorted"),
                         tally, "searchsorted")
    for _ in range(21):
        searchsorted.step()
    m["baseline.searchsorted_ns"] = statistics.median(searchsorted.seconds) * 1e9 / len(s.pool)
    m["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    return m, {"spans": len(spans.name), "lookups_traced": TRACED_QUERIES,
               "wrapper_ns": {"inside": inside, "outside": outside},
               "trace_file": trace_path.name}


def _traced_lookups(tracer: Tracer, lookup, structure, keys, qs, first_request: int):
    """One chunk of lookups, each query's spans tagged with its own request id."""
    outs = []
    for j, q in enumerate(qs):
        tracer.current_request = first_request + j
        outs.append(lookup(structure, keys, q))
    return outs


def _binary_baseline(s: Setup, tally: Tally):
    keys, pool = s.keys, s.pool
    chunk_ns, counts = [], []
    for lo in range(0, len(pool), CHUNK):
        qs = pool[lo:lo + CHUNK]
        t0 = time.perf_counter_ns()
        outs = tally.guarded("binary_search_rank", len(qs),
                             lambda: [search.binary_search_rank(keys, q) for q in qs])
        chunk_ns.append((time.perf_counter_ns() - t0) / len(qs))
        if outs is not None:
            _checked_ranks(outs, s.expected[lo:lo + CHUNK], tally, "binary")
            counts.extend(o.comparisons for o in outs)
    return float(np.median(chunk_ns)), _stat(counts)
