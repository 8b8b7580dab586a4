"""Span tracing for the benchmark's traced runs.

The tracer replaces public flowagg names with timing wrappers, each at the
place its caller looks it up, and puts the originals back on exit. Nothing
under ``src/`` knows about it. Spans carry a name, a start, an end, the
index of their parent span, the training step they belong to and the
phase of the run; they stay in memory until :meth:`Tracer.write`.

Tensor ops called with no active tape (the gradient check runs thousands
of them) are summed into counters instead of spans, so that the span list
stays small.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import flowagg.aggregator as aggregator
import flowagg.containers as containers
import flowagg.scenegen as scenegen
import flowagg.spatial as spatial
import flowagg.tensor as tensor
import flowagg.train as train
from flowagg.rng import Xoshiro256StarStar

# Every op the aggregator and training head put on the tape.
TAPE_OPS = ("matmul", "softmax_rows", "gather_rows", "mul", "add", "sub", "div",
            "scale", "reduce_sum", "reshape", "transpose2", "concat_cols", "relu",
            "sqrt", "add_const")

# Module stages of the forward pass. A stage's backward time is the sum of
# the backward closures of the tape nodes recorded while it was open.
AGGREGATOR_STAGES = {
    "project_qkv": "aggregator.project",
    "global_attention_weights": "aggregator.global",
    "aggregate_global": "aggregator.global",
    "aggregate_local": "aggregator.local",
    "offset_aggregate": "aggregator.offset",
}

now = time.perf_counter


def _pairs(query, reference, k, include_self=False):
    same = query.points is reference.points and not include_self
    return len(query) * (len(reference) - (1 if same else 0))


class Tracer:
    """Patches flowagg for one traced run; use as a context manager.

    ``phase`` labels the spans and counters recorded next. ``quiet`` (set
    around the gradient check) keeps only the untaped-op counters, so that
    thousands of tiny finite-difference forwards do not swamp the stage
    timings of training.
    """

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, step, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.nodes_by_step: dict[int, int] = defaultdict(int)
        self.bytes_by_step: dict[int, int] = defaultdict(int)
        self.phase = "setup"
        self.step: int | None = None
        self.quiet = False
        self._in_train = False
        self._next_step = 0
        self._stack: list[int] = []
        self._stages: list[str] = []
        self._tape_depth = 0
        self._saved: list[tuple[object, str, object]] = []
        self.restored = True

    # -- spans and counters -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent, self.step, self.phase])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[(self.phase, key)] += value

    def _wrap(self, name, fn, before=None, stage=None):
        def traced(*args, **kwargs):
            if self.quiet:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            if stage is not None:
                self._stages.append(stage)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if stage is not None:
                    self._stages.pop()
        return traced

    def _wrap_op(self, op, fn):
        name = f"tensor.{op}.fwd"

        def traced(*args, **kwargs):
            if self._tape_depth == 0:
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add("tensor.untaped_ms", (now() - t0) * 1e3)
                    self.add("tensor.untaped.calls", 1)
            if self.quiet:
                return fn(*args, **kwargs)
            self.add(f"tensor.{op}.calls", 1)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _wrap_const(self, fn):
        def traced(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                if not self.quiet:
                    self.add("tensor.tensor_ms", (now() - t0) * 1e3)
        return traced

    def _wrap_backward(self, op, stage, backward_fn):
        name = f"tensor.{op}.bwd"

        def traced(g):
            idx = self.open(name)
            t0 = self.spans[idx][1]
            try:
                return backward_fn(g)
            finally:
                self.close(idx)
                if stage is not None:
                    self.add(f"{stage}.bwd_ms", (self.spans[idx][2] - t0) * 1e3)
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _step_boundary(self, *args, **kwargs) -> None:
        """Each forward inside train() starts a new step id; the loss,
        backward and optimizer spans that follow share it."""
        if self._in_train:
            self.step = self._next_step
            self._next_step += 1

    def __enter__(self) -> "Tracer":
        tracer = self
        for op in TAPE_OPS:
            self._patch(tensor, op, self._wrap_op(op, getattr(tensor, op)))
        self._patch(tensor, "tensor", self._wrap_const(tensor.tensor))

        tape_enter, tape_exit, tape_record = (tensor.Tape.__enter__, tensor.Tape.__exit__,
                                              tensor.Tape.record)

        def enter(tape):
            tracer._tape_depth += 1
            return tape_enter(tape)

        def exit_(tape, *exc):
            tracer._tape_depth -= 1
            return tape_exit(tape, *exc)

        def record(tape, op, inputs, output, forward_fn, backward_fn):
            if not tracer.quiet:
                if tracer.step is not None:
                    tracer.nodes_by_step[tracer.step] += 1
                    tracer.bytes_by_step[tracer.step] += output.data.nbytes
                stage = tracer._stages[-1] if tracer._stages else None
                backward_fn = tracer._wrap_backward(op, stage, backward_fn)
            return tape_record(tape, op, inputs, output, forward_fn, backward_fn)

        self._patch(tensor.Tape, "__enter__", enter)
        self._patch(tensor.Tape, "__exit__", exit_)
        self._patch(tensor.Tape, "record", record)

        for fn_name, stage in AGGREGATOR_STAGES.items():
            self._patch(aggregator, fn_name,
                        self._wrap(f"{stage}.fwd", getattr(aggregator, fn_name), stage=stage))

        self._patch(train, "forward", self._wrap("aggregator.forward", train.forward,
                                                 before=self._step_boundary))
        self._patch(train, "backward", self._wrap("tensor.backward", train.backward))
        self._patch(train, "knn", self._wrap("spatial.knn", train.knn))
        for fn_name in ("decode_flow", "loss_epe"):
            self._patch(train, fn_name, self._wrap("train.head.fwd", getattr(train, fn_name),
                                                   stage="train.head"))
        self._patch(train.Adam, "step", self._wrap("train.optimizer", train.Adam.step))
        self._patch(train, "evaluate_split",
                    self._wrap("metrics.evaluate_split", train.evaluate_split))

        def count_pairs(*args, **kwargs):
            tracer.add("spatial.brute_force_knn.pairs", _pairs(*args, **kwargs))

        self._patch(scenegen, "brute_force_knn",
                    self._wrap("spatial.brute_force_knn", scenegen.brute_force_knn,
                               before=count_pairs))
        self._patch(scenegen, "verify_scene",
                    self._wrap("scenegen.verify_scene", scenegen.verify_scene))
        self._patch(scenegen, "synth_features",
                    self._wrap("scenegen.synth_features", scenegen.synth_features))

        def count_values(rng, shape):
            size = 1
            for s in shape:
                size *= int(s)
            tracer.add("rng.values", size)

        for method in ("uniform_array", "normal_array"):
            self._patch(Xoshiro256StarStar, method,
                        self._wrap(f"rng.{method}", getattr(Xoshiro256StarStar, method),
                                   before=count_values))
        self._patch(Xoshiro256StarStar, "shuffle",
                    self._wrap("rng.shuffle", Xoshiro256StarStar.shuffle))

        # Names the benchmark itself calls.
        self._patch(scenegen, "generate_scene",
                    self._wrap("scenegen.generate_scene", scenegen.generate_scene))
        self._patch(spatial, "knn", self._wrap("spatial.knn", spatial.knn))
        write = self._wrap("containers.write", containers.write_container)

        def traced_write(path, named):
            out = write(path, named)
            tracer.add("containers.bytes", os.path.getsize(path))
            return out

        def count_read(path):
            tracer.add("containers.bytes", os.path.getsize(path))

        self._patch(containers, "write_container", traced_write)
        self._patch(containers, "read_container",
                    self._wrap("containers.read", containers.read_container,
                               before=count_read))

        def start_train(*args, **kwargs):
            tracer._in_train = True

        def traced_train(*args, **kwargs):
            try:
                return inner_train(*args, **kwargs)
            finally:
                tracer._in_train = False
                tracer.step = None

        inner_train = self._wrap("train.train", train.train, before=start_train)
        self._patch(train, "train", traced_train)

        grad_check = train.grad_check

        def traced_grad_check(*args, **kwargs):
            idx = tracer.open("train.grad_check")
            tracer.quiet = True
            try:
                return grad_check(*args, **kwargs)
            finally:
                tracer.quiet = False
                tracer.close(idx)

        self._patch(train, "grad_check", traced_grad_check)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self.restored = all(getattr(owner, attr) is original
                            for owner, attr, original in self._saved)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def durations_ms(self, phase: str) -> dict[str, float]:
        """Total milliseconds per span name, and per-name self time for
        generate_scene (its span minus its direct children), in `phase`."""
        out: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        for idx, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            out[name] += (end - start) * 1e3
            if name == "scenegen.generate_scene":
                out["scenegen.generate_scene.self"] += (end - start - children[idx]) * 1e3
        return out

    def counters(self, phase: str) -> dict[str, float]:
        return {key: v for (p, key), v in self.counts.items() if p == phase}

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end (s), parent index,
        step id and phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step,
                                     "phase": phase}) + "\n")
