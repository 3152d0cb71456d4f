"""Spans recorded from the benchmark's side of each layer boundary.

``Tracer.install`` wraps the public functions of every repfn layer and
rebinds each name a caller uses: the defining module, every module that
imported it with ``from .x import f`` and the package namespace, plus the two
``BlockSet`` methods on the class.  Each call records a span (id, parent id,
name, start, end, operation index, counters) in memory; ``uninstall`` puts the
original objects back.  Self time is a span's duration minus the part of it
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from statistics import quantiles
from time import perf_counter_ns

# (module, function) pairs wrapped as plain calls; spans are named
# "<module>.<function>" without the package prefix.
FUNCTIONS = (
    ("repcount", "count_weighted"),
    ("repcount", "count_classic"),
    ("structure", "decompose"),
    ("structure", "select_g"),
    ("structure", "generate_from_seed"),
    ("witness", "enumerate_witnesses"),
    ("witness", "classify_case"),
    ("witness", "witness_q_range"),
    ("witness", "guaranteed_lower_bound"),
    ("experiments", "verify_equality"),
    ("experiments", "scan_ratio"),
    ("experiments", "search_seeds"),
)
METHODS = ("materialize", "boundaries_through")
GENERATORS = (("witness", "iter_witness_pairs"),)

ID, PARENT, NAME, START, END, OP, COUNTS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_first_span = 0
        self._restore: list[tuple[object, str, object]] = []
        self.active = True

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               perf_counter_ns(), 0, self._op, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording (for the result checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def begin_op(self, index: int) -> list:
        self._op = index
        self._op_first_span = len(self.spans)
        return self.open("op")

    def end_op(self, rec: list) -> None:
        """Close the op span, then derive its kernel counters off the clock.

        Until here a materialize span holds the block list it returned and a
        count_weighted span its (n, w); both shrink to plain counts.
        """
        self.close(rec)
        spans = self.spans[self._op_first_span:]
        kids = defaultdict(list)
        for s in spans:
            if s[NAME] == "blockset.materialize" and s[COUNTS] is not None:
                kids[s[PARENT]].append(s[COUNTS])
        for s in spans:
            if s[NAME] == "repcount.count_weighted" and s[COUNTS] is not None:
                s[COUNTS] = _pair_counts(*s[COUNTS], kids.get(s[ID], []))
        for s in spans:
            if s[NAME] == "blockset.materialize" and s[COUNTS] is not None:
                s[COUNTS] = {"blocks": len(s[COUNTS])}

    # -- installation ------------------------------------------------------------

    def install(self, api) -> None:
        modules = [m for name, m in sys.modules.items() if name == "repfn" or name.startswith("repfn.")]
        for mod, fn in FUNCTIONS + GENERATORS:
            orig = getattr(sys.modules[f"repfn.{mod}"], fn)
            make = _traced_generator if (mod, fn) in GENERATORS else _traced_call
            wrapper = make(self, f"{mod}.{fn}", orig, _COUNTERS.get(fn))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, val))
                        setattr(m, attr, wrapper)
        for meth in METHODS:
            orig = getattr(api.BlockSet, meth)
            self._restore.append((api.BlockSet, meth, orig))
            setattr(api.BlockSet, meth, _traced_call(self, f"blockset.{meth}", orig, _COUNTERS[meth]))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")

    def self_times(self) -> list[int]:
        """Per span: duration minus the union of its children's intervals."""
        kids = defaultdict(list)
        for s in self.spans:
            if s[PARENT] >= 0:
                kids[s[PARENT]].append(s)
        out = []
        for s in self.spans:
            covered, reach = 0, s[START]
            for c in sorted(kids.get(s[ID], ()), key=lambda c: c[START]):
                lo, hi = max(c[START], reach), min(c[END], s[END])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s[END] - s[START] - covered)
        return out


def _traced_call(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if counter is not None:
            rec[COUNTS] = counter(args, result)
        return result

    return traced


def _traced_generator(tracer: Tracer, name: str, fn, counter):
    """Wrap a generator function; each next() on the result is one span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        if not tracer.active:
            return it

        def stream():
            while True:
                rec = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(rec)
                rec[COUNTS] = {"pairs_streamed": 1}
                yield item

        return stream()

    return traced


# Function name -> counters taken from (positional args, result).  The library
# calls count_weighted and the BlockSet methods positionally throughout.
_COUNTERS = {
    "materialize": lambda args, r: r,
    "boundaries_through": lambda args, r: {"values": len(r)},
    "count_weighted": lambda args, r: args[1:3],
    "verify_equality": lambda args, r: {"points": max(0, r.n_hi - r.n_lo + 1)},
    "scan_ratio": lambda args, r: {"points": len(r.points)},
    "search_seeds": lambda args, r: {"seeds": len(r)},
    "enumerate_witnesses": lambda args, r: {"pairs_validated": r.pairs_checked},
}


def _pair_counts(n: int, w: tuple[int, int], materialized) -> dict:
    """Block pairs count_weighted visits, and how many of them contribute.

    count_weighted materializes the a2-blocks, then the a1-blocks, and visits
    every pair.  A pair is useful when its a2-window [lo, hi] is nonempty; for
    each a2-block only a1-blocks inside two bisected bounds can be, so this
    costs the useful pairs, not all of them.
    """
    if not materialized:
        return {"block_pairs": 0, "useful_pairs": 0}
    blocks2, blocks1 = materialized[0], materialized[-1]
    k1, k2 = int(w[0]), int(w[1])
    los1 = [b[0] for b in blocks1]
    his1 = [b[1] for b in blocks1]
    useful = 0
    for lo2, hi2 in blocks2:
        end = bisect_right(los1, (n - k2 * lo2) // k1)
        start = bisect_left(his1, -((k2 * (hi2 - 1) - n) // k1) + 1)
        for lo1, hi1 in blocks1[start:end]:
            lo = max(lo2, -((-(n - k1 * (hi1 - 1))) // k2))
            hi = min(hi2 - 1, (n - k1 * lo1) // k2)
            useful += lo <= hi
    return {"block_pairs": len(blocks1) * len(blocks2), "useful_pairs": useful}


def summarize(tracer: Tracer, op_count: int, speed: float) -> dict:
    """Per-layer metrics from the recorded spans, normalized per operation.

    Times are scaled by `speed`, the run's factor to the reference speed.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    op_ns: dict[int, int] = {}
    ew_self_by_op = defaultdict(int)
    cw_under_experiments = 0
    for s, own in zip(spans, selfs):
        name = s[NAME]
        if name == "op":
            op_ns[s[OP]] = s[END] - s[START]
            continue
        calls[name] += 1
        self_ns[name] += own
        for key, val in (s[COUNTS] or {}).items():
            counts[f"{name}.{key}"] += val
        if name == "witness.enumerate_witnesses":
            ew_self_by_op[s[OP]] += own
        if name == "repcount.count_weighted" and _has_ancestor(spans, s, "experiments."):
            cw_under_experiments += 1

    ops = max(op_count, 1)
    total_op_ns = sum(op_ns.values()) or 1
    cw = "repcount.count_weighted"
    points = counts["experiments.verify_equality.points"] + counts["experiments.scan_ratio.points"]
    pairs = counts[f"{cw}.block_pairs"]
    durations = list(op_ns.values())
    p90 = quantiles(durations, n=10, method="inclusive")[-1] if len(durations) > 1 else 0
    slow = [i for i, d in op_ns.items() if d >= p90]
    slow_ns = sum(op_ns[i] for i in slow) or 1

    m = {}

    def per_op(name, value, unit):
        m[name] = (value / ops, unit)

    for name in (cw, "repcount.count_classic", "blockset.materialize",
                 "blockset.boundaries_through", "witness.enumerate_witnesses",
                 "structure.decompose", "structure.select_g", "structure.generate_from_seed"):
        per_op(f"{name}.calls", calls[name], "count/op")
    for name in (cw, "repcount.count_classic", "blockset.materialize",
                 "blockset.boundaries_through", "experiments.verify_equality",
                 "experiments.scan_ratio", "experiments.search_seeds",
                 "witness.enumerate_witnesses", "witness.iter_witness_pairs",
                 "witness.classify_case", "witness.witness_q_range",
                 "witness.guaranteed_lower_bound", "structure.decompose",
                 "structure.select_g", "structure.generate_from_seed"):
        per_op(f"{name}.self_ms", self_ns[name] / 1e6 * speed, "ms/op")
    for name in (f"{cw}.block_pairs", "blockset.materialize.blocks",
                 "blockset.boundaries_through.values", "experiments.verify_equality.points",
                 "experiments.scan_ratio.points", "experiments.search_seeds.seeds",
                 "witness.enumerate_witnesses.pairs_validated",
                 "witness.iter_witness_pairs.pairs_streamed"):
        per_op(name, counts[name], "count/op")
    m[f"{cw}.useful_pair_ratio"] = (counts[f"{cw}.useful_pairs"] / pairs if pairs else 0.0, "ratio")
    m[f"{cw}.ns_per_pair"] = (self_ns[cw] * speed / pairs if pairs else 0.0, "ns")
    m[f"{cw}.op_share"] = (self_ns[cw] / total_op_ns, "ratio")
    m["experiments.counts_per_point"] = (cw_under_experiments / points if points else 0.0, "ratio")
    m["witness.enumerate_witnesses.p90_share"] = (
        sum(ew_self_by_op[i] for i in slow) / slow_ns, "ratio")
    m["trace.op_ms"] = (total_op_ns / 1e6 / ops * speed, "ms")
    return m


def _has_ancestor(spans: list, span: list, prefix: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def quadratic_curve(tracer: Tracer, selfs: list[int]) -> list[tuple[int, float]]:
    """(block_pairs, raw self_ms) for every count_weighted span, sorted by pairs."""
    return sorted(
        (s[COUNTS]["block_pairs"], own / 1e6)
        for s, own in zip(tracer.spans, selfs)
        if s[NAME] == "repcount.count_weighted"
    )
