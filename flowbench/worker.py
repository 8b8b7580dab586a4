"""One workload run of the flowagg benchmark, in this process.

run.py starts this file in a fresh process with the BLAS thread count
pinned, and reads the JSON object it prints as its last line. To run one
workload by hand from the repository root:

    PYTHONPATH=src python3 flowbench/worker.py --workload train_local_n200 \\
        --seed 0 --seconds 10 --trace 0 --work-dir .flowbench/manual

Workloads (each one caller in one process, closed loop: the next unit of
work starts when the previous one has returned):

train_local_n200    the golden pipeline on configs/occlusion_local.cfg:
                    generate, write and read the scene container, then
                    train 300 Adam steps on the scene read back; plus one
                    grad_check() and its corrupt=True negative control.
train_global_n2000  configs/occlusion_global.cfg at 4 x 500 points, trained
                    for GLOBAL_STEPS steps.
gen_local_n1000     configs/ablation_local.cfg scenes at 2 x 500 points:
                    generate, container round trip, default knn. No tape.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict

from checks import Checks, load_reference, read_checksums, sha256_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = os.path.join(ROOT, "configs")
GOLDENS = os.path.join(ROOT, "tests", "golden_checksums.txt")

WORKLOADS = ("train_local_n200", "train_global_n2000", "gen_local_n1000")
GLOBAL_STEPS = 20
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# gone by; the result reports the medians of its samples.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
ORACLE_BLOCK = 256
# The calibration kernel (class Calibration) runs every CALIB_INTERVAL_S
# of the timed loop. CALIB_MIX gives, per workload, how many times each
# part of the kernel runs in one tick: the mix whose time tracked the
# workload's own time best over a long run of it on a 2-vCPU x86 VM, where
# one tick takes 14-19 ms. Parts: "scan" a query of a pure-Python pairwise
# scan and sort over 400 points; "small" three in-place numpy ops on an
# 8 x 16 array; "matmul" a 192 x 192 matmul; "pass_4mb" and "pass_16mb" a
# multiply and an exp over an array of that size.
CALIB_INTERVAL_S = 0.2
CALIB_WARMUP = 5
CALIB_MAX_TICKS = 1 << 16
CALIB_MIX = {
    "train_local_n200": {"scan": 32, "matmul": 2, "pass_4mb": 1},
    "train_global_n2000": {"scan": 4, "matmul": 3, "pass_16mb": 2},
    "gen_local_n1000": {"scan": 8, "small": 2800},
}

now = time.perf_counter


def make_config(workload: str, seed: int, index: int = 0):
    """The run config of a workload; only seeds and sizes differ from the
    pinned config files. Scene `index` of gen_local_n1000 has scene seed
    1000 * seed + index."""
    from flowagg.config import parse_config_file

    if workload == "train_local_n200":
        cfg = parse_config_file(os.path.join(CONFIGS, "occlusion_local.cfg"))
    elif workload == "train_global_n2000":
        cfg = parse_config_file(os.path.join(CONFIGS, "occlusion_global.cfg"))
        cfg.scene.points_per_cluster = 500
        cfg.train.steps = GLOBAL_STEPS
    elif workload == "gen_local_n1000":
        cfg = parse_config_file(os.path.join(CONFIGS, "ablation_local.cfg"))
        cfg.scene.points_per_cluster = 500
        cfg.scene.seed = 1000 * seed + index
        return cfg
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg.scene.seed = seed
    cfg.train.seed = seed
    return cfg


def probe_setup(workload: str) -> float:
    """Set-up time of gen_local_n1000: imports and config parsing, timed
    in a process that has imported neither yet."""
    t0 = now()
    import numpy  # noqa: F401
    import flowagg  # noqa: F401
    make_config(workload, 0)
    return now() - t0


class Calibration:
    """A fixed kernel that uses no flowagg code, run from a SIGALRM timer
    every CALIB_INTERVAL_S while a workload's loop runs.

    The host this benchmark was made on runs the same code up to 1.5-2x
    slower for stretches of a fraction of a second to minutes, in CPU time
    as well as wall time. Each tick runs between two bytecodes of the
    workload, so the ticks sample the host's speed all through every unit
    of work. A unit's time is reported over the mean tick time during it,
    which cancels the host's speed but not the program's; `clock()` leaves
    out the time spent in ticks. The kernel mirrors the workloads' mix: a
    pure-Python pairwise scan and sort (the brute-force kNN), small numpy
    ops (per-op overhead), BLAS matmuls and passes over arrays larger than
    a core's cache (the N x N routes), weighted per workload (CALIB_MIX).
    It touches no state of the program, so outputs and digests are those
    of an uncalibrated run.
    """

    def __init__(self, workload: str):
        import numpy as np

        self.mix = CALIB_MIX[workload]
        rng = np.random.default_rng(12345)
        self.points = [tuple(p) for p in rng.uniform(-1.0, 1.0, (400, 3)).tolist()]
        self.pairs = [(0.0, 0)] * len(self.points)
        self.small = rng.standard_normal((8, 16))
        self.small_out = np.empty_like(self.small)
        self.mat = rng.standard_normal((192, 192))
        self.mat_out = np.empty_like(self.mat)
        self.rng = rng
        self.arrays = {}
        # Tick times, in seconds; ticks[:count] are taken.
        self.ticks = np.zeros(CALIB_MAX_TICKS)
        self.count = 0
        self.spent = 0.0

    def kernel(self) -> float:
        """Wall time of one pass of the kernel, in seconds.

        A tick runs at a random point of the workload, so it writes into
        buffers made in __init__ and allocates no arrays: the program's
        heap, and so its peak RSS, stay as they would be without ticks."""
        import numpy as np

        mix = self.mix
        t0 = now()
        points, pairs = self.points, self.pairs
        for i in range(mix.get("scan", 0)):
            q = points[i]
            for j, p in enumerate(points):
                pairs[j] = ((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2 + (q[2] - p[2]) ** 2, j)
            pairs.sort()
        y = self.small_out
        for _ in range(mix.get("small", 0)):
            np.multiply(self.small, 0.5, out=y)
            np.add(y, self.small, out=y)
            np.maximum(y, 0.0, out=y)
        for _ in range(mix.get("matmul", 0)):
            np.matmul(self.mat, self.mat, out=self.mat_out)
        for part, (a, out) in self.arrays.items():
            for _ in range(mix[part]):
                np.multiply(a, 1.0001, out=out)
                np.exp(out, out=out)
        return now() - t0

    def _tick(self, signum, frame) -> None:
        # A collection of the cyclic GC triggered by the kernel's objects
        # would be charged to the tick, and so taken out of the program's
        # time; the kernel's objects are freed by the end of the tick.
        enabled = gc.isenabled()
        gc.disable()
        dt = self.kernel()
        if enabled:
            gc.enable()
        if self.count < len(self.ticks):
            self.ticks[self.count] = dt
            self.count += 1
        self.spent += dt

    def clock(self) -> float:
        """perf_counter() less the time spent in ticks so far."""
        return now() - self.spent

    @contextlib.contextmanager
    def running(self):
        import numpy as np

        # The large arrays are made here, after the run has read its peak
        # RSS, and only those of the workload's mix.
        for part, size in (("pass_4mb", 1 << 19), ("pass_16mb", 1 << 21)):
            if part in self.mix and part not in self.arrays:
                a = self.rng.standard_normal(size)
                self.arrays[part] = (a, np.empty_like(a))
        for _ in range(CALIB_WARMUP):
            self.kernel()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def knn_oracle(points, k: int, include_self: bool):
    """Exact k nearest neighbours by a blocked numpy scan, independent of
    flowagg.spatial: squared distances as dx*dx + dy*dy + dz*dz in float64
    (so they must match bit for bit), nearest first, ties by lower index."""
    import numpy as np

    n = len(points)
    indices = np.empty((n, k), dtype=np.int64)
    sq_dists = np.empty((n, k))
    for lo in range(0, n, ORACLE_BLOCK):
        q = points[lo:lo + ORACLE_BLOCK]
        d = q[:, None, :] - points[None, :, :]
        d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
        if not include_self:
            d2[np.arange(len(q)), np.arange(lo, lo + len(q))] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        indices[lo:lo + len(q)] = order
        sq_dists[lo:lo + len(q)] = np.take_along_axis(d2, order, axis=1)
    return indices, sq_dists


class Run:
    """State of one workload run: its checks, timing samples and files."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir: str,
                 tracer=None, reference: dict | None = None):
        import flowagg.containers as containers
        import flowagg.scenegen as scenegen
        import flowagg.spatial as spatial
        import flowagg.train as train

        # Program calls go through module attributes, so that the tracer's
        # patches see the benchmark's own calls too.
        self.containers, self.scenegen, self.spatial, self.train = (
            containers, scenegen, spatial, train)
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.checks = Checks()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.overheads: list[float] = []
        # Untraced runs calibrate their timed loop, and time units by
        # clock(), which leaves out the calibration ticks.
        self.calibration = Calibration(workload) if tracer is None else None
        self.clock = self.calibration.clock if self.calibration is not None else now
        self.traced_units = 0
        self.gen_rss_rise_mb: float | None = None
        self.rss_before_ticks_mb: float | None = None
        self.digests: dict[str, str] = {}
        # Values recorded at the default seed (reference.json), or None.
        self.reference = reference

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def generate(self, cfg):
        """generate_scene(cfg.scene) and its wall time. The first call of
        the process also records how far it raised the peak RSS."""
        before = peak_rss_mb()
        t0 = self.clock()
        scene = self.scenegen.generate_scene(cfg.scene)
        wall = self.clock() - t0
        if self.gen_rss_rise_mb is None:
            self.gen_rss_rise_mb = peak_rss_mb() - before
        return scene, wall

    # -- operations -----------------------------------------------------------

    def setup_scene(self):
        """Config parsing, scene generation and the container round trip,
        as `flowagg gen` followed by `flowagg train --scene` do them."""
        t0 = now()
        cfg = make_config(self.workload, self.seed)
        scene, gen_s = self.generate(cfg)
        path = self.path("scene.gtc")
        self.containers.write_container(path, self.scenegen.scene_tensors(scene))
        scene = self.scenegen.scene_from_tensors(self.containers.read_container(path))
        setup_s = now() - t0
        return cfg, scene, setup_s, gen_s, sha256_file(path)

    def knn(self, cfg, scene):
        pts = scene.frame1
        return self.spatial.knn(pts, pts, cfg.module.k,
                                include_self=cfg.module.include_self_neighbors)

    def check_knn(self, cfg, scene, nbrs) -> None:
        import numpy as np

        indices, sq_dists = knn_oracle(scene.frame1.points, cfg.module.k,
                                       cfg.module.include_self_neighbors)
        self.checks.check("knn matches the exact scan",
                          np.array_equal(nbrs.indices, indices)
                          and np.array_equal(nbrs.sq_dists, sq_dists))

    def train_unit(self, cfg, scene):
        """train() on the scene, then report.txt and params.gtc as
        `flowagg train` writes them. Returns wall time, report, digests."""
        t0 = self.clock()
        report = self.train.train(cfg, scene=scene)
        wall = self.clock() - t0
        with open(self.path("report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.train.report_lines(report)) + "\n")
        self.containers.write_container(
            self.path("params.gtc"),
            self.train.named_model_tensors(report.params, report.decoder))
        digests = {name: sha256_file(self.path(name)) for name in ("report.txt", "params.gtc")}
        return wall, report, digests

    def check_train(self, cfg, report, digests, first, golden) -> None:
        c = self.checks
        c.check("loss series finite",
                len(report.loss_series) == cfg.train.steps
                and all(math.isfinite(v) for v in report.loss_series))
        if first is not None:
            c.equal("outputs repeat", digests, first)
        if golden is not None:
            for name in ("report.txt", "params.gtc"):
                c.equal(f"golden {name}", digests[name], golden[name])
        if self.workload == "train_global_n2000" and self.reference is not None:
            ref = self.reference
            c.close("final loss", report.loss_series[-1], ref["final_loss"], ref["rtol"])
            c.close("final occluded EPE", report.metrics_occluded.epe_m,
                    ref["final_epe_occluded"], ref["rtol"])

    def gen_unit(self, index: int):
        """One scene: generate_scene, container write and read, default knn."""
        cfg = make_config(self.workload, self.seed, index)
        scene, gen_s = self.generate(cfg)
        t0 = self.clock()
        path = self.path("scene.gtc")
        self.containers.write_container(path, self.scenegen.scene_tensors(scene))
        back = self.scenegen.scene_from_tensors(self.containers.read_container(path))
        t1 = self.clock()
        nbrs = self.knn(cfg, back)
        knn_s = self.clock() - t1
        wall = gen_s + (t1 - t0) + knn_s
        times = {"gen_s": gen_s, "knn_s": knn_s}
        return wall, sha256_file(path), times, cfg, back, nbrs

    def check_gen(self, index, cfg, scene, nbrs, digest) -> None:
        with open(self.path("scene.gtc"), "rb") as fh:
            blob = fh.read()
        repacked = self.containers.pack_tensors(self.scenegen.scene_tensors(scene))
        self.checks.check("container round trip is byte-stable", repacked == blob)
        self.check_knn(cfg, scene, nbrs)
        if self.reference is not None and index < len(self.reference["scene_gtc"]):
            self.checks.equal(f"scene {index} digest", digest, self.reference["scene_gtc"][index])

    def grad_check(self) -> None:
        from flowagg.cli import GRADCHECK_TOL

        c = self.checks
        t0 = now()
        worst = c.guard("grad_check", self.train.grad_check)
        corrupt = c.guard("grad_check corrupt", self.train.grad_check, corrupt=True)
        self.samples["gradcheck_s"].append(now() - t0)
        if worst is not None:
            c.check("grad_check within tolerance", worst < GRADCHECK_TOL, repr(worst))
        if corrupt is not None:
            c.check("corrupt grad_check is caught", corrupt >= GRADCHECK_TOL, repr(corrupt))

    def golden_pipeline(self) -> dict:
        """One set-up and one training run; the digests of all three files."""
        cfg, scene, _, _, scene_digest = self.setup_scene()
        _, _, digests = self.train_unit(cfg, scene)
        return {"scene.gtc": scene_digest, **digests}

    # -- tracing --------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, phase: str):
        """Context for work that the tracer records (a no-op untraced)."""
        if self.tracer is None:
            yield
            return
        self.tracer.phase = phase
        with self.tracer:
            yield
        self.checks.check("tracer restored every patched name", self.tracer.restored)

    def paired(self, unit):
        """Trace mode: run `unit` untraced and traced, in alternating order
        from one pair to the next; require equal outputs and record traced
        over untraced wall time."""
        def untraced_unit():
            return self.checks.guard("unit untraced", unit)

        def traced_unit():
            with self.traced("unit"):
                return self.checks.guard("unit traced", unit)

        if self.traced_units % 2 == 0:
            untraced, traced = untraced_unit(), traced_unit()
        else:
            traced, untraced = traced_unit(), untraced_unit()
        if untraced is None or traced is None:
            return None
        self.traced_units += 1
        self.checks.equal("traced outputs equal untraced", traced[1], untraced[1])
        self.overheads.append(traced[0] / untraced[0])
        return traced

    @contextlib.contextmanager
    def calibrating(self):
        """Context of the timed loop: calibration ticks run in it, untraced."""
        if self.calibration is None:
            yield
            return
        with self.calibration.running():
            yield

    def measured(self, name: str, unit):
        """One unit of the loop: `(value of unit or None, mean calibration
        tick in ms during it, or None)`. Traced, the unit runs paired()."""
        if self.tracer is not None:
            return self.paired(unit), None
        calibration = self.calibration
        n0 = calibration.count
        res = self.checks.guard(name, unit)
        if calibration.count == n0:
            return res, None
        calib_ms = float(calibration.ticks[n0:calibration.count].mean()) * 1e3
        self.samples["calib_ms"].append(calib_ms)
        return res, calib_ms

    def add_step(self, step_ms: float, calib_ms: float | None) -> None:
        self.samples["step_ms"].append(step_ms)
        if calib_ms is not None:
            self.samples["step_rel"].append(step_ms / calib_ms)

    def loop(self, name: str, unit, record) -> None:
        """Closed loop: unit(i) for i = 0, 1, ... until self.seconds have
        gone by and at least two units have run; record(i, value, calib_ms)
        for each unit that returned.

        Each unit starts with a full collection, so that the cyclic GC
        frees the program's reference cycles (tape nodes holding arrays)
        at the same points in every unit, whatever ran before it. Untraced,
        unit 0 runs before the calibration starts, and the peak RSS is read
        after it, so that it counts none of the calibration's arrays."""
        start = now()
        index = 0
        with contextlib.ExitStack() as stack:
            while True:
                gc.collect()
                res, calib_ms = self.measured(name, lambda: unit(index))
                if res is not None:
                    record(index, res, calib_ms)
                if index == 0:
                    self.rss_before_ticks_mb = peak_rss_mb()
                    stack.enter_context(self.calibrating())
                index += 1
                if index >= 2 and now() - start >= self.seconds:
                    break

    # -- workloads ------------------------------------------------------------

    def run_train(self) -> None:
        c = self.checks
        golden = None
        if self.workload == "train_local_n200" and self.seed == 0:
            golden = read_checksums(GOLDENS)

        scene_digests = []
        setup_total = 0.0
        with self.traced("setup"):
            while True:
                res = c.guard("setup", self.setup_scene)
                if res is None:
                    return
                cfg, scene, setup_s, gen_s, digest = res
                setup_total += setup_s
                self.samples["setup_s"].append(setup_s)
                self.samples["gen_s"].append(gen_s)
                scene_digests.append(digest)
                if self.tracer is not None or (len(scene_digests) >= SETUP_MIN_REPEATS
                                               and setup_total >= SETUP_MIN_S):
                    break
            t0 = now()
            nbrs = c.guard("knn", self.knn, cfg, scene)
            self.samples["knn_s"].append(now() - t0)
            if self.workload == "train_local_n200":
                self.grad_check()
        if nbrs is not None:
            self.check_knn(cfg, scene, nbrs)
        c.check("scene.gtc repeats", len(set(scene_digests)) == 1)
        if golden is not None:
            c.equal("golden scene.gtc", scene_digests[0], golden["scene.gtc"])

        first = None

        def unit(_index):
            wall, report, digests = self.train_unit(cfg, scene)
            return wall, digests, report

        def record(_index, res, calib_ms):
            nonlocal first
            wall, digests, report = res
            self.add_step(wall * 1e3 / cfg.train.steps, calib_ms)
            self.check_train(cfg, report, digests, first, golden)
            first = first or digests
            self.digests = {"scene.gtc": scene_digests[0], **digests}

        self.loop("train", unit, record)

    def run_gen(self) -> None:
        def record(index, res, calib_ms):
            wall, digest, times, cfg, scene, nbrs = res
            for key, value in times.items():
                self.samples[key].append(value)
            self.add_step(wall * 1e3, calib_ms)
            self.check_gen(index, cfg, scene, nbrs, digest)
            self.digests[f"scene{index}.gtc"] = digest

        self.loop("scene", self.gen_unit, record)

    def run(self) -> None:
        if self.workload == "gen_local_n1000":
            self.run_gen()
        else:
            self.run_train()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else None


def e2e_metrics(run: Run) -> dict:
    out = {key: median(run.samples[key]) for key in ("setup_s", "step_rel")}
    out["peak_rss_mb"] = run.rss_before_ticks_mb
    return out


def layer_metrics(run: Run) -> dict:
    """Per-layer figures of one traced pass: the set-up once plus one unit
    of the loop (unit-phase totals are divided by the traced unit count)."""
    tracer = run.tracer
    n = max(run.traced_units, 1)
    values: dict[str, float] = defaultdict(float)
    for phase, weight in (("setup", 1.0), ("unit", 1.0 / n)):
        for name, ms in tracer.durations_ms(phase).items():
            values[f"{name}_ms"] += ms * weight
        for name, v in tracer.counters(phase).items():
            values[name] += v * weight
    values["tensor.nodes_per_step"] = median(list(tracer.nodes_by_step.values())) or 0
    values["tensor.tape_mb_per_step"] = (
        median(list(tracer.bytes_by_step.values())) or 0) / 2**20
    values["scenegen.rss_rise_mb"] = run.gen_rss_rise_mb or 0.0
    values["trace_overhead"] = median(run.overheads) or 0.0
    return dict(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time imports and config parsing")
    parser.add_argument("--golden-only", action="store_true",
                        help="one set-up and one training run; print the digests")
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    reference = load_reference().get(args.workload) if args.seed == 0 else None
    run = Run(args.workload, args.seed, args.seconds, args.work_dir, tracer, reference)
    if args.golden_only:
        digests = run.checks.guard("golden pipeline", run.golden_pipeline)
        print(json.dumps({"digests": digests, **run.checks.summary()}))
        return 0

    run.run()
    result = {"env": environment(), "digests": run.digests, **run.checks.summary(),
              "samples": run.samples}
    if tracer is None:
        result["metrics"] = e2e_metrics(run)
    else:
        result["metrics"] = layer_metrics(run)
        result["traced_units"] = run.traced_units
        tracer.write(os.path.join(args.work_dir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
