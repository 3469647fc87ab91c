"""Spans around calls into hopperlab's public functions, recorded from outside.

Each wrapped function is patched where it is looked up: `experiments` and
`cli` import most names into their own namespace, so a function is patched
on every module that calls it.  The RK4 kernels in `terrain`, `linkage` and
`controller` run inside every integration step; wrapping them would distort
the run, so their time counts as part of `simulator` and `estimation`.

Spans stay in memory while the workload runs and are returned at the end.
A span's self time is its duration minus the durations of its children, so
the self times of all spans, grouped by layer, add up to the root span.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from hopperlab import cli, estimation, experiments, identification, io, simulator

LAYERS = ("simulator", "estimation", "identification", "io", "experiments", "cli", "bench")
IO_KINDS = ("truth", "frames", "estimation", "intrusion")

# "<layer>.<function>" -> the modules that look the function up by name
_TARGETS = {
    "simulator.run_hop_trial": (experiments,),
    "simulator.run_constant_speed_intrusion": (experiments,),
    "estimation.run_estimation": (experiments,),
    "estimation.run_momentum_observer": (estimation,),
    "estimation.quasi_static_series": (estimation,),
    "identification.extract_samples": (experiments, identification),
    "identification.treatment_comparison": (experiments, identification),
    "identification.fit_depth_speed_model": (experiments, identification),
    "experiments.run_sweep": (experiments,),
    "experiments.run_single_hop": (experiments,),
    "experiments.write_hop_artifacts": (experiments,),
    "experiments.identify_outputs": (experiments, cli),
    "experiments.write_report": (experiments, cli),
}

# counts recorded on a span from the wrapped call's result
_COUNTERS = {
    "simulator.run_hop_trial": lambda log: {
        "steps": len(log.truth), "frames": len(log.frames), "clamp_events": log.clamp_events,
    },
    "simulator.run_constant_speed_intrusion": lambda log: {"samples": int(log.t.size)},
    "estimation.run_estimation": lambda est: {"frames": len(est)},
    "identification.extract_samples": lambda samples: {"samples": len(samples)},
    "identification.fit_depth_speed_model": lambda fit: {"samples": fit.n_samples},
}

# the trial a call works on, from its arguments
_TRIAL_OF = {
    "experiments.run_single_hop": lambda args: experiments.hop_trial_id(args[1], args[2], args[3]),
    "experiments.write_hop_artifacts": lambda args: args[2],
}

_TRIAL_RE = re.compile(r"^(hop_v[\d.]+_kc[\d.]+_s-?\d+|intr_v[\d.]+_r\d+)")


def _trial_from_path(path) -> str | None:
    match = _TRIAL_RE.match(os.path.basename(str(path)))
    return match.group(1) if match else None


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, trial.

    The trial id sticks until a later call names another trial, so spans
    without an id of their own inherit the trial being worked on.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.trial: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, trial: str | None = None):
        if trial is not None:
            self.trial = trial
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "trial": self.trial,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        trial_of = _TRIAL_OF.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name, trial_of(args) if trial_of else None) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.update(counter(result))
            return result

        return wrapper

    def _wrap_io(self, name, fn):
        """Artifact reader/writer: records file bytes; a call made inside
        another io call (write_csv under write_truth_csv) is marked nested."""
        writes = name.startswith("io.write_")

        def wrapper(path, *args, **kwargs):
            nested = any(self.spans[i]["name"].startswith("io.") for i in self._stack)
            with self.span(name, _trial_from_path(path)) as record:
                record["nested"] = nested
                if not writes and os.path.exists(path):
                    record["bytes"] = os.path.getsize(path)
                result = fn(path, *args, **kwargs)
            if writes:
                record["bytes"] = os.path.getsize(path)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, owners in _TARGETS.items():
            attr = name.split(".", 1)[1]
            wrapper = self._wrap(name, getattr(owners[0], attr))
            for owner in owners:
                self._patch(owner, attr, wrapper)
        from_list = self._wrap("simulator.frames_from_list", simulator.Frames.from_list)
        self._patch(simulator.Frames, "from_list", staticmethod(from_list))
        for attr in sorted(vars(io)):
            if attr.startswith(("read_", "write_")) and callable(getattr(io, attr)):
                self._patch(io, attr, self._wrap_io(f"io.{attr}", getattr(io, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _io_kind(name: str) -> str:
    for kind in IO_KINDS:
        if name in (f"io.write_{kind}_csv", f"io.read_{kind}_csv"):
            return kind
    return "other"


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return sum(values) * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; the root span is the workload."""
    own = self_times(spans)
    t: dict[str, float] = defaultdict(float)       # total time by span name
    own_t: dict[str, float] = defaultdict(float)   # self time by span name
    c: dict[str, int] = defaultdict(int)           # "<span name>.<count>" totals
    durations: dict[str, list[float]] = defaultdict(list)
    for s, o in zip(spans, own):
        t[s["name"]] += s["end"] - s["start"]
        own_t[s["name"]] += o
        durations[s["name"]].append(s["end"] - s["start"])
        for key in ("steps", "frames", "clamp_events", "samples"):
            if key in s:
                c[f"{s['name']}.{key}"] += s[key]

    def per(seconds, n, scale):
        return seconds / n * scale if n else 0.0

    hops = durations["simulator.run_hop_trial"]
    m: dict[str, float] = {
        "simulator.hop_s": t["simulator.run_hop_trial"],
        "simulator.hop_ms_p50": _percentile_ms(hops, 50),
        "simulator.hop_ms_p80": _percentile_ms(hops, 80),
        "simulator.rk4_steps": c["simulator.run_hop_trial.steps"],
        "simulator.us_per_step": per(t["simulator.run_hop_trial"], c["simulator.run_hop_trial.steps"], 1e6),
        "simulator.frames": c["simulator.run_hop_trial.frames"],
        "simulator.clamp_events": c["simulator.run_hop_trial.clamp_events"],
        "simulator.frames_to_columns_s": t["simulator.frames_from_list"],
        "simulator.intrusion_s": t["simulator.run_constant_speed_intrusion"],
        "simulator.intrusion_samples": c["simulator.run_constant_speed_intrusion.samples"],
        "estimation.run_s": t["estimation.run_estimation"],
        "estimation.observer_s": t["estimation.run_momentum_observer"],
        "estimation.quasi_static_s": t["estimation.quasi_static_series"],
        "estimation.self_s": own_t["estimation.run_estimation"],
        "estimation.us_per_frame": per(t["estimation.run_estimation"], c["estimation.run_estimation.frames"], 1e6),
        "identification.extract_s": t["identification.extract_samples"],
        "identification.stance_samples": c["identification.extract_samples.samples"],
        "identification.treatments_s": t["identification.treatment_comparison"],
        "identification.intrusion_fit_s": t["identification.fit_depth_speed_model"],
        "identification.intrusion_fit_samples": c["identification.fit_depth_speed_model.samples"],
    }

    io_time: dict[tuple, float] = defaultdict(float)   # by (op, kind)
    io_bytes: dict[tuple, int] = defaultdict(int)
    for s in spans:
        if not s["name"].startswith("io.") or s["nested"]:
            continue
        key = ("write" if s["name"].startswith("io.write_") else "read", _io_kind(s["name"]))
        io_time[key] += s["end"] - s["start"]
        io_bytes[key] += s.get("bytes", 0)
    for op in ("write", "read"):
        for kind in IO_KINDS:
            m[f"io.{op}_{kind}_s"] = io_time[op, kind]
        for kind in IO_KINDS + ("other",):
            m[f"io.bytes_{op.replace('write', 'written')}_{kind}"] = io_bytes[op, kind]
        seconds = sum(v for (o, _), v in io_time.items() if o == op)
        nbytes = sum(v for (o, _), v in io_bytes.items() if o == op)
        m[f"io.{op}_mb_per_s"] = nbytes / seconds / 1e6 if seconds else 0.0
    m["io.files_written"] = sum(
        1 for s in spans if s["name"].startswith("io.write_") and not s["nested"]
    )

    m["experiments.sweep_self_s"] = own_t["experiments.run_sweep"]
    m["experiments.identify_s"] = t["experiments.identify_outputs"]
    m["experiments.report_s"] = t["experiments.write_report"]
    for command in ("estimate", "identify", "report"):
        m[f"cli.{command}_s"] = t[f"cli.{command}"]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, o in zip(spans, own):
        layer_self[s["name"].split(".", 1)[0]] += o
    for layer in LAYERS:
        m[f"trace.self_{layer}_s"] = layer_self[layer]
    return m
