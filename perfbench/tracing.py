"""Outside-in span recorder for the traced pass.

The package imports with `from .x import y`, so each module holds its own
reference to what it calls. A boundary is therefore wrapped under the name
the *calling* module looks it up by: `transform.race_matrix`, not
`coupling.race_matrix`. Nothing inside `src/` changes.

Every wrapped call records one span: name, start, end and parent span, plus
the id of the pass it ran in. Spans stay in memory (flat arrays) until the
run ends. A boundary that no longer exists is skipped, so a refactor that
removes it reports a count of 0 instead of breaking the run.

The parent stack is a plain list: this assumes the library runs serially,
which it does while STABILITY_LAB_THREADS is unset.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np


def _present_symbols(counts) -> int:
    return int(np.count_nonzero(counts))


def _hist_counters(present):
    """Counters for a histogram release; `present(args)` counts input symbols."""
    def noised(args, kwargs, result):
        return present(args)

    def suppressed(args, kwargs, result):
        return present(args) - int(np.count_nonzero(result.values))

    return [("dp.symbols_noised", noised), ("dp.symbols_suppressed", suppressed)]


# (callable path, span name, counters). The path is resolved against the
# namespace from workloads.load_library(); `calls` is the benchmark's own
# table of entry points.
BOUNDARIES = [
    ("core.DiscreteDistribution.__init__", "core.distribution", []),
    ("core.Dataset.__init__", "core.index",
     [("core.tokens_indexed", lambda a, k, r: int(a[0].indices.size))]),
    ("core.Dataset.slice", "core.slice", []),
    ("transform.sample_dataset", "core.sample", []),
    ("cli.load_dataset", "core.load_dataset", []),
    ("cli.ingest_corpus", "learners.ingest", []),
    ("transform.new_tape", "coupling.tape", []),
    ("transform.race_matrix", "coupling.race",
     [("coupling.race_cells", lambda a, k, r: int(a[1].size))]),
    ("calls.disagreement_estimate", "coupling.mc",
     [("coupling.mc_tapes", lambda a, k, r: int(k["trials"]))]),
    ("calls.coupled_marginal_counts", "coupling.mc",
     [("coupling.mc_tapes", lambda a, k, r: int(k["trials"]))]),
    ("transform._histogram_from_counts", "dp.hist",
     _hist_counters(lambda a: _present_symbols(a[1]))),
    ("calls.private_histogram", "dp.hist",
     _hist_counters(lambda a: _present_symbols(a[0].counts()))),
    ("cli.private_histogram", "dp.hist",
     _hist_counters(lambda a: _present_symbols(a[0].counts()))),
    ("calls.audit_histogram_dp", "dp.audit",
     [("dp.audit_pairs", lambda a, k, r: int(r.pairs_checked))]),
    ("calls.nfl_witness", "naf.witness", []),
    ("calls.transform_bound_experiment", "transform.experiment", []),
    ("transform.simplex_project_linf", "transform.project",
     [("transform.fallbacks", lambda a, k, r: int(r is None))]),
    ("transform.derive_seed", "util.derive_seed", []),
    ("calls.cli_main", "cli.main", []),
    ("cli.run", "cli.run", []),
]

# Per-layer metric -> span whose summed duration (busy time) it reports.
# Busy time includes nested spans of other layers; transform.self_s does not.
BUSY = {
    "core.validate_s": "core.distribution",
    "core.sample_s": "core.sample",
    "core.load_dataset_s": "core.load_dataset",
    "learners.train_s": "learners.train",
    "learners.ingest_s": "learners.ingest",
    "coupling.tape_s": "coupling.tape",
    "coupling.race_s": "coupling.race",
    "coupling.mc_s": "coupling.mc",
    "dp.hist_s": "dp.hist",
    "dp.audit_s": "dp.audit",
    "naf.witness_s": "naf.witness",
    "transform.project_s": "transform.project",
    "util.derive_seed_s": "util.derive_seed",
    "cli.run_s": "cli.run",
}
# Per-layer metric -> spans whose number of calls it reports.
CALLS = {
    "core.distributions_built": ("core.distribution",),
    "core.dataset_slices": ("core.slice",),
    "learners.train_calls": ("learners.train",),
    "coupling.tapes": ("coupling.tape",),
    "dp.hist_calls": ("dp.hist",),
    "naf.witness_calls": ("naf.witness",),
    "transform.project_calls": ("transform.project",),
    "util.derive_seed_calls": ("util.derive_seed",),
    "cli.corpus_parses": ("learners.ingest", "core.load_dataset"),
}
COUNTERS = ("core.tokens_indexed", "coupling.race_cells", "coupling.mc_tapes",
            "dp.symbols_noised", "dp.symbols_suppressed", "dp.audit_pairs",
            "transform.fallbacks")
# Metrics that must repeat exactly across passes of one run.
EXACT = tuple(CALLS) + COUNTERS
# Exact counts that describe the results, not the work: a change that moves
# them changes what the program computes, so they have no better direction.
# The run reports them beside the metrics, in its details line.
INVARIANT = ("dp.symbols_noised", "dp.symbols_suppressed", "dp.audit_pairs",
             "transform.fallbacks")


class SpanRecorder:
    """Flat in-memory span store; one id per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_id = array("I")
        self.counters: dict[str, int] = {}
        self.counter_errors: set[str] = set()
        self.current_pass = 0
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn, counters=()):
        """fn, recording a span per call and adding each counter's measure."""
        nid = self._intern(span)
        names, parents, starts, ends, passes = (
            self.name, self.parent, self.start, self.end, self.pass_id)
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(recorder.current_pass)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            for counter, measure in counters:
                try:
                    value = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The boundary changed shape; report the counter as 0.
                    recorder.counter_errors.add(counter)
                    continue
                recorder.counters[counter] = recorder.counters.get(counter, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass, from its spans and counters."""
        pid = np.frombuffer(self.pass_id, dtype=np.uint32)
        sel = np.flatnonzero(pid == pass_id)
        name = np.frombuffer(self.name, dtype=np.uint16)[sel]
        dur = (np.frombuffer(self.end, dtype=np.float64)[sel]
               - np.frombuffer(self.start, dtype=np.float64)[sel])
        parent = np.frombuffer(self.parent, dtype=np.int32)[sel]
        child_time = np.zeros(len(self.start))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        child_time = child_time[sel]

        def spans(span):
            return name == self._name_ids[span]

        def busy(span):
            return float(dur[spans(span)].sum()) if span in self._name_ids else 0.0

        out: dict[str, float] = {}
        for metric, span in BUSY.items():
            out[metric] = busy(span)
        for metric, span_names in CALLS.items():
            out[metric] = sum(int(spans(s).sum()) for s in span_names if s in self._name_ids)
        for counter in COUNTERS:
            out[counter] = self.counters.get(counter, 0)
        if "transform.experiment" in self._name_ids:
            mask = spans("transform.experiment")
            out["transform.self_s"] = float((dur[mask] - child_time[mask]).sum())
        else:
            out["transform.self_s"] = 0.0
        out["cli.overhead_s"] = busy("cli.main") - out["cli.run_s"]
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.uint32))


class Tracing:
    """Context manager that installs the boundary wrappers for one pass."""

    def __init__(self, recorder: SpanRecorder, lib, state, pass_id: int):
        self.recorder = recorder
        self.lib = lib
        self.state = state
        self.pass_id = pass_id
        self._undo: list = []

    def _resolve(self, path: str):
        obj = self.lib
        for part in path.split("."):
            if not hasattr(obj, part):
                return None
            obj = getattr(obj, part)
        return obj

    def _replace(self, owner, attr: str, new) -> None:
        if isinstance(owner, type) and attr not in vars(owner):
            self._undo.append(lambda: delattr(owner, attr))
        else:
            old = getattr(owner, attr)
            self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, new)

    def __enter__(self):
        rec = self.recorder
        rec.current_pass = self.pass_id
        rec.counters = {}
        for path, span, counters in BOUNDARIES:
            owner_path, attr = path.rsplit(".", 1)
            owner = self._resolve(owner_path)
            if owner is None or not hasattr(owner, attr):
                continue
            self._replace(owner, attr, rec.wrap(span, getattr(owner, attr), counters))
        learner = getattr(self.state, "learner", None)
        if learner is not None:
            # The train of the learner the benchmark passes in.
            self._replace(self.state, "learner", dataclasses.replace(
                learner, train=rec.wrap("learners.train", learner.train)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False
