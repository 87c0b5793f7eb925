"""The five workloads: what each sets up, what one timed operation is,
how its answers are checked, and which layer probes apply to it.

Every workload is a closed loop driven from this one process (callers of
a query engine wait for their reply): one client in-process, two
keep-alive connections for ``serve_closed`` because ``nproc`` is 2.  The
``--seed`` argument drives only the order of the figure queries within a
round and the constants of the ``adhoc_cold`` texts; the engine sees
generated SQL, never the seed.  The TPC-H data itself is always datagen
seed 2005, so every run of a workload queries the same database.

Sizes are set by the driver's budget of about 30 s per run including
three set-ups: see README.md, "Sizing".
"""

from __future__ import annotations

import asyncio
import datetime
import gc
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import geometric_mean, median

import repro
from repro.core.optimizer import choose
from repro.engine.colstore import load_stored_database, store_size_bytes
from repro.errors import ReproError
from repro.oracle.diff import canonical_row
from repro.serve.http import response_bytes
from repro.tpch import TpchConfig, generate, generate_stored, query1, query2, query3

import layers
from calibrate import cpu_speed, interp_speed, io_speed
from layers import MS

DATAGEN_SEED = 2005
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FIGURE_IDS = ("fig4_q1", "fig5_q2a", "fig6_q2b", "fig7_q3a", "fig8_q3b", "fig9_q3c")


def figure_texts(dates, q23, q3b=None):
    """The six figure queries (Figures 4-9) at the given constants."""
    q3b = q3b or q23
    return {
        "fig4_q1": query1(*dates),
        "fig5_q2a": query2("any", *q23),
        "fig6_q2b": query2("all", *q23),
        "fig7_q3a": query3("all", "exists", "a", *q23),
        "fig8_q3b": query3("all", "not exists", "b", *q3b),
        "fig9_q3c": query3("any", "exists", "c", *q23),
    }


#: the constants of scripts/bench_planner.py
PLANNER_TEXTS = figure_texts(("1992-01-01", "1994-06-01"), (1, 30, 6000, 25))

# stored_spill: calibrated once on the SF 0.01 / seed 2005 store and
# frozen.  Under SPILL_CAP_MB every query completes; the four in
# SPILLING record one kind='spill' span each (a Grace join over 2
# partitions, 136 temp files) and cost the same to within 3 %, while
# fig4_q1 and fig8_q3b fit in the budget.  So the median and the 90th
# percentile both fall inside one homogeneous group of ops.  (The planner
# constants die at the non-spillable outer-join output under any cap
# that spills; a cap of 1 MB makes fig4_q1 a lone 2x outlier that alone
# sets the p90, and its cost follows the file system's mood.)
SPILL_TEXTS = figure_texts(
    ("1992-01-01", "1992-05-01"), (1, 15, 4000, 25), q3b=(1, 3, 1000, 25)
)
SPILL_CAP_MB = 2.0
SPILLING = ("fig5_q2a", "fig6_q2b", "fig7_q3a", "fig9_q3c")
#: share of a spilling op's time that is temp-file traffic (traced: spill
#: self time / op time).  Frozen: it weights the file kernel in the op's
#: speed factor and must not move with the code under test.
SPILL_IO_SHARE = 2 / 3
#: the share the traced pass may find before the run is refused.  The
#: file system's slow phase alone moves the raw share to 0.8 and past
#: it; at either end the frozen weight misstates a spilling op's factor
#: by about a tenth when the file kernel reads x2, well inside the
#: latency bound.
SPILL_IO_SHARE_RANGE = (0.5, 0.9)

VECTOR_FAMILY = ("nested-relational-vectorized", "nested-relational-parallel")
ROW_FAMILY = ("nested-relational", "nested-relational-optimized")


@dataclass
class Window:
    """What one timed window observed: raw times, each with the speed
    factor (see calibrate.py) of the two kernel samples that bracket its
    round.  run.py reports time / factor as the declared metric and the
    raw time beside it."""

    ops: list = field(default_factory=list)  # (query id, raw latency ms, factor)
    rounds: list = field(default_factory=list)  # (raw wall s, raw cpu s, factor)
    errors: int = 0
    peak_rss_mb: float = 0.0

    def add_round(self, raw_samples, wall_s, cpu_s, factor_of):
        """*factor_of(qid)* is the speed factor of that op in this round;
        the round's wall and CPU time shrink by the same share as the
        sum of its op times."""
        if not raw_samples:
            return
        ops = [(qid, ms, factor_of(qid)) for qid, ms in raw_samples]
        factor = (sum(ms for _q, ms, _f in ops)
                  / sum(ms / f for _q, ms, f in ops))
        self.ops += ops
        self.rounds.append((wall_s, cpu_s, factor))


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bag(rows):
    """The canonical bag of *rows*: NULL/None, bool/int/float and
    date/text unified as repro.oracle.diff does."""
    return Counter(map(canonical_row, rows))


def digest(rows):
    """The canonical bag of *rows* as one number (equal within a process)."""
    return hash(frozenset(bag(rows).items()))


def hit_ratios(before, after):
    """``core.plancache.*`` from two CacheStats snapshots.  A memo that
    was not consulted in between reads 0."""
    delta = Counter(after)
    delta.subtract(before)
    metrics = {"core.plancache.evictions": delta["evictions"]}
    for memo in ("plan", "strategy", "reduce"):
        hits, misses = delta[f"{memo}_hits"], delta[f"{memo}_misses"]
        lookups = hits + misses
        metrics[f"core.plancache.{memo}_hit_ratio"] = hits / lookups if lookups else 0.0
    return metrics


class Workload:
    """Base: the protocol run.py drives."""

    name = ""
    #: scale factor in --quick mode
    QUICK_SF = 0.001

    def __init__(self, seed, quick, workdir):
        self.rng = random.Random(seed)
        self.quick = quick
        self.workdir = workdir
        #: the speed factor of every round of the traced pass
        self.speeds = []
        if quick:
            self.sf = self.QUICK_SF

    #: what runs between rounds, outside the clocks
    pause = staticmethod(gc.collect)
    #: the CPU kernel that slows down as this workload's engine does
    cpu_speed = staticmethod(cpu_speed)

    def speed(self):
        """The machine's speed right now (see calibrate.py), sampled
        between rounds after pause(): one factor, or a tuple op_factor()
        can weigh."""
        return self.cpu_speed()

    def op_factor(self, speed, qid):
        """The speed factor that applies to operation *qid*."""
        return speed

    def timed_setup(self):
        """Run ``setup()`` between CPU speed samples (datagen, imports and
        warm-up are CPU-bound on every workload): (raw seconds, speed
        factor).  The factor stays on the workload for the durations
        set-up itself records (first round, store write)."""
        samples = [self.cpu_speed(), self.cpu_speed()]
        start = time.perf_counter()
        self.setup()
        raw = time.perf_counter() - start
        samples += [self.cpu_speed(), self.cpu_speed()]
        self.setup_factor = sum(samples) / len(samples)
        return raw, self.setup_factor

    def setup(self):
        raise NotImplementedError

    def teardown(self):
        raise NotImplementedError

    def window(self, seconds):
        raise NotImplementedError

    def check(self, window):
        """Number of timed operations whose answer was wrong."""
        raise NotImplementedError

    def layers(self, seconds, probes, rounds):
        """Measured per-layer metrics (name -> value); run.py reports 0
        for every declared metric a workload does not measure.  Spans
        around single public calls go to the *probes* log, the traced
        rounds to *rounds*."""
        raise NotImplementedError


class InProcess(Workload):
    """Shared traced pass of the workloads that call the engine directly.

    Subclasses provide ``round_ids()``, ``execute(qid, **overrides)``,
    ``trace(qid, log)``, ``sql(qid)``, ``cache_counts()`` and the
    ``family`` of fixed strategies ``auto`` is compared against.
    """

    family = VECTOR_FAMILY
    choose_kwargs = {}

    def closed_loop(self, seconds, rounds, run_op):
        """One in-process client: run rounds of operations for *seconds*.
        Between rounds, outside the clocks, ``pause()`` runs
        (``gc.collect()``, so a full collection is not billed to
        whichever query it happens to interrupt) and the machine's speed
        is sampled."""
        window = Window()
        deadline = time.perf_counter() + seconds
        self.pause()
        before = self.speed()
        for ids in rounds:
            raw = []
            cpu0, t0 = time.process_time(), time.perf_counter()
            for qid in ids:
                start = time.perf_counter()
                try:
                    run_op(qid)
                except ReproError:
                    window.errors += 1
                    continue
                raw.append((qid, (time.perf_counter() - start) * MS))
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            self.pause()
            after = self.speed()
            window.add_round(
                raw, wall, cpu,
                lambda qid: (self.op_factor(before, qid)
                             + self.op_factor(after, qid)) / 2)
            before = after
            if time.perf_counter() >= deadline:
                break
        window.peak_rss_mb = self_rss_mb()
        return window

    def round_speed(self):
        """The speed factor of a whole round right now: its ops', unweighted."""
        speed, ids = self.speed(), self.round_ids()
        return sum(self.op_factor(speed, qid) for qid in ids) / len(ids)

    def round_times(self, run_round, repeats):
        """(raw ms, speed factor) of each of *repeats* rounds, bracketed
        by speed samples like the rounds of the timed window."""
        out = []
        self.pause()
        before = self.round_speed()
        for _ in range(repeats):
            start = time.perf_counter()
            run_round()
            raw = (time.perf_counter() - start) * MS
            self.pause()
            after = self.round_speed()
            out.append((raw, (before + after) / 2))
            before = after
        self.speeds += [factor for _raw, factor in out]
        return out

    def round_ms(self, run_round, repeats):
        """Median time of one round in ms, over its speed factor."""
        return median(
            raw / factor for raw, factor in self.round_times(run_round, repeats))

    def run_round(self, **overrides):
        for qid in self.round_ids():
            self.execute(qid, **overrides)

    def layers(self, seconds, probes, rounds):
        ids = self.round_ids()
        # six round measurements share the --seconds budget
        estimate_ms = self.round_ms(self.run_round, 1)
        repeats = max(3, min(15, int(seconds * MS / 6 / estimate_ms)))
        # 1. untraced reference rounds; the cache counters move here
        before = dict(self.cache_counts())
        untraced = self.round_ms(self.run_round, repeats)
        metrics = hit_ratios(before, self.cache_counts())
        # 2. probes of single public functions (spans, not rounds)
        speed_before = self.cpu_speed()
        texts = [self.sql(qid) for qid in ids]
        probed = layers_frontend(probes, self.db, texts)
        results = [self.execute(qid) for qid in ids]
        for result in results:
            with probes.span("Relation.rows", "session"):
                for _row in result.rows:
                    pass
        probed["session.result_rows_ms"] = probes.median_ms("Relation.rows")
        candidates = []
        for sql in texts:
            query = repro.connect(self.db).prepare(sql).query
            with probes.span("core.optimizer.choose", "core.optimizer"):
                decision = choose(query, self.db, **self.choose_kwargs)
            candidates.append(len(decision.candidates))
        probed["core.optimizer.choose_ms"] = probes.median_ms("core.optimizer.choose")
        factor = (speed_before + self.cpu_speed()) / 2
        metrics.update({name: ms / factor for name, ms in probed.items()})
        metrics["core.optimizer.candidates"] = median(candidates)
        best_fixed = min(
            self.round_ms(lambda s=name: self.run_round(strategy=s), repeats)
            for name in self.family
        )
        metrics["core.optimizer.regret_ratio"] = untraced / best_fixed
        metrics.update(self.extra_layers(untraced, repeats))
        # 3. traced rounds last: trace() feeds the planner's feedback
        # store, which would re-cost the untraced rounds above
        traced = self.round_times(
            lambda: [self.trace(qid, rounds) for qid in ids], repeats)
        spans = layers.engine_layer_metrics(rounds, repeats)
        accounted = sum(spans[name] for name in layers.SELF_TIME_METRICS)
        self.accounted_ratio = accounted / (
            sum(raw for raw, _factor in traced) / repeats)
        # span times are raw; divide them by the speed factor like the rest
        factor = median(factor for _raw, factor in traced)
        for name in spans:
            if name.endswith(("_ms", ".ms")):
                spans[name] /= factor
        metrics.update(spans)
        metrics["engine.trace.overhead_ratio"] = (
            median(raw / factor for raw, factor in traced) / untraced)
        self.check_trace(rounds)
        return metrics

    def check_trace(self, rounds):
        """Raise when the traced rounds break something the workload's
        numbers rest on."""

    def extra_layers(self, untraced_ms, repeats):
        return {}


def layers_frontend(log, db, texts):
    """``sql.*`` and ``session.prepare_*``: each public front-end
    function timed once per text."""
    from repro.sql import analyze, parse, tokenize

    for sql in texts:
        with log.span("sql.lexer.tokenize", "sql"):
            tokenize(sql)
        with log.span("sql.parse", "sql"):
            stmt = parse(sql)
        with log.span("sql.analyzer.analyze", "sql"):
            analyze(stmt, db)
        session = repro.connect(db)
        with log.span("Session.prepare[cold]", "session"):
            session.prepare(sql)
        with log.span("Session.prepare[memo]", "session"):
            session.prepare(sql)
    return {
        "sql.lex_ms": log.median_ms("sql.lexer.tokenize"),
        "sql.parse_ms": log.median_ms("sql.parse"),
        "sql.analyze_ms": log.median_ms("sql.analyzer.analyze"),
        "session.prepare_cold_ms": log.median_ms("Session.prepare[cold]"),
        "session.prepare_memo_ms": log.median_ms("Session.prepare[memo]"),
    }


class FigureLoop(InProcess):
    """The six figure queries, prepared once in one Session, round-robin
    in an order the seed shuffles per round."""

    sf = 0.01
    texts = PLANNER_TEXTS
    warm_rounds = 3
    execute_kwargs = {}
    #: strategy/backend whose bags the timed answers must equal
    reference = {}

    def session_kwargs(self):
        return {}

    def make_db(self):
        return generate(TpchConfig(scale_factor=self.sf, seed=DATAGEN_SEED))

    def setup(self):
        self.db = self.make_db()
        self.session = repro.connect(self.db, **self.session_kwargs())
        self.prepared = {
            qid: self.session.prepare(sql) for qid, sql in self.texts.items()
        }
        self.pending, self.digests = [], []
        self.first_round_ms = 0.0
        for index in range(1 if self.quick else self.warm_rounds):
            start = time.perf_counter()
            for qid in FIGURE_IDS:
                self.execute(qid)
            if index == 0:
                self.first_round_ms = (time.perf_counter() - start) * MS

    def teardown(self):
        self.db = self.session = self.prepared = None
        gc.collect()

    def round_ids(self):
        return FIGURE_IDS

    def sql(self, qid):
        return self.texts[qid]

    def cache_counts(self):
        return self.session.cache_stats.snapshot()

    def execute(self, qid, **overrides):
        return self.prepared[qid].execute(**{**self.execute_kwargs, **overrides})

    def timed_op(self, qid):
        self.pending.append((qid, self.execute(qid).rows))

    def pause(self):
        # every timed answer is digested, here between rounds so that the
        # window never holds more than one round of rows (a whole
        # window's would add 40 MB to peak_rss_mb)
        self.digests += [(qid, digest(rows)) for qid, rows in self.pending]
        self.pending.clear()
        gc.collect()

    def trace(self, qid, log):
        with log.span(qid, "session"):
            with log.span("PreparedQuery.trace", "session"):
                _result, trace = self.prepared[qid].trace(**self.execute_kwargs)
                log.graft(trace)

    def window(self, seconds):
        def rounds():
            while True:
                yield self.rng.sample(FIGURE_IDS, len(FIGURE_IDS))

        return self.closed_loop(seconds, rounds(), self.timed_op)

    def reference_digests(self):
        session = repro.connect(self.db)
        return {
            qid: digest(session.prepare(sql).execute(**self.reference).rows)
            for qid, sql in self.texts.items()
        }

    def round_in(self, **session_kwargs):
        """A callable that runs one round in another Session over the
        same database (already run once, so its memos are warm)."""
        session = repro.connect(self.db, **session_kwargs)
        prepared = [session.prepare(sql) for sql in self.texts.values()]
        run = lambda: [q.execute(**self.execute_kwargs) for q in prepared]
        run()
        return run

    def check(self, window):
        expected = self.reference_digests()
        return sum(1 for qid, found in self.digests if found != expected[qid])


class FigWarmVector(FigureLoop):
    name = "fig_warm_vector"
    reference = {"strategy": "nested-relational", "backend": "row"}

    def extra_layers(self, untraced_ms, repeats):
        governed_ms = self.round_ms(
            self.round_in(timeout_ms=60_000, memory_limit_mb=4096), repeats)
        parallel = {"strategy": "nested-relational-parallel", "threads": 2}
        self.run_round(**parallel)
        parallel_ms = self.round_ms(lambda: self.run_round(**parallel), repeats)
        morsels = 0
        for qid in FIGURE_IDS:
            _result, trace = self.prepared[qid].trace(**parallel)
            morsels += sum(1 for span in trace.spans() if span.kind == "morsel")
        return {
            "engine.vector.first_touch_encode_ms": (
                self.first_round_ms / self.setup_factor - untraced_ms),
            "engine.governor.overhead_ratio": governed_ms / untraced_ms,
            "engine.parallel.round_ms_t2": parallel_ms,
            "engine.parallel.morsels": morsels,
            "engine.parallel.speedup_vs_vector": untraced_ms / parallel_ms,
        }

    def check_trace(self, rounds):
        if self.accounted_ratio < 0.9:
            raise RuntimeError(
                f"layer self times account for {self.accounted_ratio:.3f} of "
                f"the traced round, under 0.9: some span is in no layer metric")


class FigWarmRow(FigureLoop):
    name = "fig_warm_row"
    sf = 0.001
    warm_rounds = 2
    execute_kwargs = {"backend": "row"}
    reference = {"strategy": "nested-relational-vectorized"}
    family = ROW_FAMILY
    choose_kwargs = {"backend": "row"}
    # under a busy neighbour the row engine slows about twice as much as
    # the numpy-heavy kernel does and as much as the interpreter kernel
    cpu_speed = staticmethod(interp_speed)


class StoredSpill(FigureLoop):
    name = "stored_spill"
    texts = SPILL_TEXTS
    warm_rounds = 1
    execute_kwargs = {"strategy": "nested-relational-vectorized"}
    #: capped vs uncapped on the same store
    reference = execute_kwargs
    family = ("nested-relational-vectorized",)

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.spill_dir = os.path.join(workdir, "spill")
        os.makedirs(self.spill_dir, exist_ok=True)

    def speed(self):
        return self.cpu_speed(), io_speed(self.spill_dir)

    def op_factor(self, speed, qid):
        cpu, io = speed
        share = SPILL_IO_SHARE if qid in SPILLING else 0.0
        return (1 - share) * cpu + share * io

    def pause(self):
        # Flush policy.  Creating spill files on this sandbox's ext4
        # costs twice as much once a few seconds of unflushed creates
        # and unlinks have piled up, so without a sync between rounds
        # (outside the clocks) a run's latency depends on how much I/O
        # the previous run left behind.
        super().pause()
        os.sync()

    @property
    def cap_mb(self):
        # block sizes scale with the store, so the calibration holds for
        # the --quick store at a proportionally smaller cap
        return SPILL_CAP_MB * self.sf / StoredSpill.sf

    @property
    def choose_kwargs(self):
        return {"memory_limit_mb": self.cap_mb}

    def session_kwargs(self):
        return {"memory_limit_mb": self.cap_mb, "spill_dir": self.spill_dir}

    def make_db(self):
        self.store_dir = os.path.join(self.workdir, "store")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        start = time.perf_counter()
        generate_stored(
            self.store_dir, TpchConfig(scale_factor=self.sf, seed=DATAGEN_SEED)
        )
        self.write_s = time.perf_counter() - start
        start = time.perf_counter()
        db = load_stored_database(self.store_dir)
        self.open_ms = (time.perf_counter() - start) * MS
        return db

    def check(self, window):
        spilling = set()
        for qid, prepared in self.prepared.items():
            _result, trace = prepared.trace(**self.execute_kwargs)
            if any(span.kind == "spill" for span in trace.spans()):
                spilling.add(qid)
        if spilling != set(SPILLING):
            raise RuntimeError(
                f"stored_spill: {sorted(spilling)} spill under {self.cap_mb} MB, "
                f"not {sorted(SPILLING)}: the window's speed factors weighed the "
                f"file kernel on the wrong ops; recalibrate SPILL_TEXTS / SPILLING")
        return super().check(window)

    def check_trace(self, rounds):
        """The file kernel's weight in a spilling op's speed factor is
        frozen; refuse the run when the op no longer looks like that."""
        qid_of = {r["op"]: r["name"] for r in rounds.records if r["parent"] is None}
        spill_s, op_s = Counter(), Counter()
        for record, own_s in zip(rounds.records, rounds.self_seconds()):
            qid = qid_of[record["op"]]
            if record["parent"] is None:
                op_s[qid] += record["end"] - record["start"]
            if record["layer"] == "engine.spill":
                spill_s[qid] += own_s
        share = sum(spill_s.values()) / sum(op_s[qid] for qid in spill_s)
        low, high = SPILL_IO_SHARE_RANGE
        if set(spill_s) != set(SPILLING) or not low <= share <= high:
            raise RuntimeError(
                f"stored_spill: {sorted(spill_s)} spill and spend {share:.2f} of "
                f"their time under spill spans; calibrate.py weighs the file "
                f"kernel {SPILL_IO_SHARE:.2f} on {sorted(SPILLING)}.  Recalibrate "
                f"SPILLING / SPILL_IO_SHARE in workloads.py")

    def extra_layers(self, untraced_ms, repeats):
        uncapped_ms = self.round_ms(self.round_in(), repeats)
        return {
            "engine.colstore.write_s": self.write_s / self.setup_factor,
            "engine.colstore.store_mb": store_size_bytes(self.store_dir) / 1e6,
            "engine.colstore.open_ms": self.open_ms / self.setup_factor,
            "engine.colstore.first_scan_ms": self.first_round_ms / self.setup_factor,
            "engine.spill.slowdown_ratio": untraced_ms / uncapped_ms,
        }


# --------------------------------------------------------------------- #
# adhoc_cold
# --------------------------------------------------------------------- #

TEMPLATES = ("query1", "query2", "query3")
#: o_orderdate spans about 2400 days from here; 45 days is under 2 %
DATE_ORIGIN = datetime.date(1992, 1, 1)


def adhoc_text(rng, template):
    """One narrow-window instance of *template*: the outer block selects
    at most about 2 % of its table (one p_size value, or 14-45 days)."""
    if template == "query1":
        start = DATE_ORIGIN + datetime.timedelta(days=rng.randrange(0, 2300))
        end = start + datetime.timedelta(days=rng.randrange(14, 46))
        return query1(start.isoformat(), end.isoformat())
    size = rng.randrange(1, 51)
    constants = (size, size, rng.randrange(1000, 10000), rng.randrange(1, 51))
    quantifier = rng.choice(("any", "all"))
    if template == "query2":
        return query2(quantifier, *constants)
    return query3(
        quantifier, rng.choice(("exists", "not exists")), rng.choice("abc"),
        *constants,
    )


class AdhocCold(InProcess):
    name = "adhoc_cold"
    sf = 0.01
    #: ops between gc.collect() calls; a multiple of len(TEMPLATES)
    BATCH = 30
    #: every Nth timed op keeps its result for the correctness pass ...
    KEEP_EVERY = 20
    #: ... which re-runs this many of them on the row engine (each costs
    #: ~0.5 s there, forty times the op itself)
    MAX_CHECKS = 6
    reference = {"strategy": "nested-relational-optimized", "backend": "row"}

    def setup(self):
        self.db = generate(TpchConfig(scale_factor=self.sf, seed=DATAGEN_SEED))
        self.seen = set()
        self.cache_totals = Counter()
        self.kept = []
        self.ops = 0
        # the probe round: one fixed set of texts, reused by every
        # measurement of the traced pass (sessions are fresh per op, so
        # reuse does not warm anything the workload keeps cold)
        self.sample = [self.fresh_text(t) for t in TEMPLATES * 4]
        for index in range(6):  # first touch encodes the four tables
            self.execute(index)

    def teardown(self):
        self.db = self.kept = self.sample = None
        gc.collect()

    def fresh_text(self, template):
        while True:
            sql = adhoc_text(self.rng, template)
            if sql not in self.seen:
                self.seen.add(sql)
                return sql

    def run_text(self, sql, **overrides):
        session = repro.connect(self.db)
        result = session.prepare(sql).execute(**overrides)
        self.cache_totals.update(session.cache_stats.snapshot())
        return result

    def round_ids(self):
        return range(len(self.sample))

    def sql(self, qid):
        return self.sample[qid]

    def cache_counts(self):
        return self.cache_totals

    def execute(self, qid, **overrides):
        return self.run_text(self.sample[qid], **overrides)

    def trace(self, qid, log):
        with log.span(TEMPLATES[qid % len(TEMPLATES)], "session"):
            with log.span("repro.connect", "session"):
                session = repro.connect(self.db)
            with log.span("Session.prepare", "session"):
                prepared = session.prepare(self.sample[qid])
            with log.span("PreparedQuery.trace", "session"):
                _result, trace = prepared.trace()
                log.graft(trace)

    def timed_op(self, template):
        sql = self.fresh_text(template)
        result = self.run_text(sql)
        self.ops += 1
        if self.ops % self.KEEP_EVERY == 0:
            self.kept.append((sql, result))

    def window(self, seconds):
        def rounds():
            while True:
                yield TEMPLATES * (self.BATCH // len(TEMPLATES))

        return self.closed_loop(seconds, rounds(), self.timed_op)

    def check(self, window):
        step = max(1, len(self.kept) // self.MAX_CHECKS)
        wrong = 0
        for sql, result in self.kept[::step][: self.MAX_CHECKS]:
            expected = repro.connect(self.db).prepare(sql).execute(**self.reference)
            if bag(result.rows) != bag(expected.rows):
                wrong += 1
        return wrong


# --------------------------------------------------------------------- #
# serve_closed
# --------------------------------------------------------------------- #


def request_bytes(method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


async def read_response(reader):
    """(status, decoded JSON payload, body bytes)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, (json.loads(body) if body else None), len(body)


async def roundtrip(reader, writer, method, path, payload=None):
    writer.write(request_bytes(method, path, payload))
    await writer.drain()
    return await read_response(reader)


def proc_cpu_s(pid):
    """user+sys CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ServeClosed(Workload):
    name = "serve_closed"
    sf = 0.01
    CONNECTIONS = 2
    WORKERS = 2
    WARMUP_REQUESTS = 12
    HOST = "127.0.0.1"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.proc = None
        # the same engine work in-process: reference bags, and the
        # denominator of serve.inflation_ratio
        self.inproc = FigWarmVector(seed, quick, workdir)

    def setup(self):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        self.log_path = os.path.join(self.workdir, "serve.log")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--host", self.HOST, "--tpch", str(self.sf),
                 "--seed", str(DATAGEN_SEED), "--workers", str(self.WORKERS)],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            )
        line = self.proc.stdout.readline()
        if "serving on http://" not in line:
            self.teardown()
            raise RuntimeError(f"repro serve did not start: {line!r}; see {self.log_path}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        asyncio.run(self.warm_up())

    async def warm_up(self):
        reader, writer = await asyncio.open_connection(self.HOST, self.port)
        try:
            for index in range(6 if self.quick else self.WARMUP_REQUESTS):
                qid = FIGURE_IDS[index % len(FIGURE_IDS)]
                status, payload, _size = await roundtrip(
                    reader, writer, "POST", "/query",
                    {"sql": PLANNER_TEXTS[qid], "tenant": f"t{index % 2}"})
                if status != 200:
                    raise RuntimeError(f"warm-up {qid} answered {status}: {payload}")
        finally:
            writer.close()

    def teardown(self):
        """Stop the server and wait until it has ended."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    async def connection_round(self, index, streams, order, raw, window, responses):
        """One connection's share of a round: its six texts, each sent
        when the previous reply has arrived."""
        for qid in order:
            reader, writer = streams[index]
            start = time.perf_counter()
            status, payload, size = await roundtrip(
                reader, writer, "POST", "/query",
                {"sql": PLANNER_TEXTS[qid], "tenant": f"t{index}"})
            end = time.perf_counter()
            if status != 200:
                window.errors += 1
                if status >= 500:  # the server closes after a 5xx
                    writer.close()
                    streams[index] = await asyncio.open_connection(
                        self.HOST, self.port)
                continue
            raw.append((qid, (end - start) * MS))
            responses.append((len(window.rounds), qid, start, end, payload, size))

    async def closed_loop(self, seconds):
        """Rounds of CONNECTIONS x 6 concurrent closed-loop requests for
        *seconds*; the calibration kernel runs between rounds, when no
        request is in flight."""
        window, responses = Window(), []
        streams = [
            await asyncio.open_connection(self.HOST, self.port)
            for _ in range(self.CONNECTIONS)
        ]
        orders = [list(FIGURE_IDS) for _ in streams]
        pid = self.proc.pid
        deadline = time.perf_counter() + seconds
        before = self.speed()
        try:
            while time.perf_counter() < deadline:
                for order in orders:
                    self.rng.shuffle(order)
                raw = []
                cpu0, t0 = proc_cpu_s(pid), time.perf_counter()
                await asyncio.gather(*(
                    self.connection_round(
                        index, streams, orders[index], raw, window, responses)
                    for index in range(self.CONNECTIONS)
                ))
                wall, cpu = time.perf_counter() - t0, proc_cpu_s(pid) - cpu0
                after = self.speed()
                window.add_round(
                    raw, wall, cpu, lambda _qid: (before + after) / 2)
                before = after
        finally:
            for _reader, writer in streams:
                writer.close()
        window.peak_rss_mb = proc_peak_rss_mb(pid)
        return window, responses

    def window(self, seconds):
        window, self.responses = asyncio.run(self.closed_loop(seconds))
        return window

    def check(self, window):
        self.inproc.setup()
        expected = {
            qid: bag(self.inproc.execute(qid).rows) for qid in FIGURE_IDS
        }
        return sum(
            1 for _round, qid, _start, _end, payload, _size in self.responses
            if bag(payload["rows"]) != expected[qid]
        )

    # -- traced pass ---------------------------------------------------- #

    async def health_loop(self, requests):
        reader, writer = await asyncio.open_connection(self.HOST, self.port)
        times = []
        try:
            cpu0 = time.process_time()
            for _ in range(requests):
                start = time.perf_counter()
                await roundtrip(reader, writer, "GET", "/health")
                times.append((time.perf_counter() - start) * MS)
            client_cpu_ms = (time.process_time() - cpu0) * MS / requests
            _status, stats, _size = await roundtrip(reader, writer, "GET", "/stats")
        finally:
            writer.close()
        return median(times), client_cpu_ms, stats

    def layers(self, seconds, probes, rounds):
        _ms, _cpu, before = asyncio.run(self.health_loop(1))
        window, responses = asyncio.run(self.closed_loop(seconds / 2))
        factors = [factor for _wall, _cpu, factor in window.rounds]
        roundtrip_ms, client_ms, stats = asyncio.run(
            self.health_loop(20 if self.quick else 300))
        self.teardown()
        exec_ms, payloads = {}, {}
        overhead = []
        for index, qid, start, end, payload, size in responses:
            # one client-side span per request with the server's own
            # elapsed_ms (centred) as its child: self time is the
            # serving overhead
            elapsed = payload["elapsed_ms"]
            margin = ((end - start) - elapsed / MS) / 2
            request = probes.add(qid, "serve", start, end)
            probes.add("serve.exec", "engine", start + margin, end - margin,
                       parent=request)
            factor = factors[index]
            overhead.append(((end - start) * MS - elapsed) / factor)
            exec_ms.setdefault(qid, []).append(elapsed / factor)
            payloads[qid] = (payload, size)
        for payload, _size in payloads.values():
            with probes.span("serve.http.response_bytes", "serve"):
                response_bytes(200, payload)
        # the same SQL in-process: the inflation base, then the engine
        # layers (whose traced rounds must come last, see InProcess)
        self.inproc.timed_setup()
        inflation = []
        for qid, served in exec_ms.items():
            run = lambda: self.inproc.execute(qid)
            inflation.append(median(served) / self.inproc.round_ms(run, 5))
        metrics = self.inproc.layers(seconds, probes, rounds)
        self.accounted_ratio = self.inproc.accounted_ratio
        self.speeds = self.inproc.speeds + factors
        tenants = stats["tenants"].values()
        factor = median(factors)
        metrics.update(hit_ratios(before["cache"], stats["cache"]))
        metrics.update({
            "serve.exec_ms_p50": median(
                ms for values in exec_ms.values() for ms in values),
            "serve.overhead_ms_p50": median(overhead),
            "serve.http_roundtrip_ms": roundtrip_ms / factor,
            "serve.client_self_ms": client_ms / factor,
            "serve.encode_ms": (
                probes.median_ms("serve.http.response_bytes") / factor),
            "serve.response_kb": median(
                size for _p, size in payloads.values()) / 1024.0,
            "serve.inflation_ratio": geometric_mean(inflation),
            "serve.rejected": (
                stats["server"]["rejected_overload"]
                + stats["server"]["rejected_draining"]
                + sum(t["rejected_quota"] for t in tenants)
            ),
        })
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (FigWarmVector, FigWarmRow, AdhocCold, StoredSpill, ServeClosed)
}
