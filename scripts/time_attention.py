#!/usr/bin/env python3
"""Time one forward and one backward of the fused attention op.

For each N it draws q, k (N x 16) and v (N x 32) from a fixed seed. Each
repeat runs one taped ``tensor.attention(q, k, v, 0.25)`` (forward), then
that node's backward closure on a fixed output gradient (backward). One
untimed repeat per N runs first. Before timing it sets glibc's malloc
thresholds as ``train()`` does, so freed block buffers stay mapped and the
small-N rows time the kernel, not page faults. The script prints one JSON
line: the min and the median in ms of each side at each N and the query
rows of that N's blocks (both sides walk the same ones), with the Python,
numpy and BLAS versions and the BLAS thread count taken from the
environment, e.g.

    OPENBLAS_NUM_THREADS=1 python3 scripts/time_attention.py --repeats 9
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg import tensor as T
from flowagg import train

QK_DIM, VALUE_DIM, SCALE = 16, 32, 0.25


def time_one_size(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    q, k = T.tensor(rng.normal(size=(n, QK_DIM))), T.tensor(rng.normal(size=(n, QK_DIM)))
    v = T.tensor(rng.normal(size=(n, VALUE_DIM)))
    g = rng.normal(size=(n, VALUE_DIM))
    fwd_ms, bwd_ms = [], []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        with T.Tape() as tape:
            T.attention(q, k, v, SCALE)
        t1 = time.perf_counter()
        tape.nodes[-1].backward_fn(g)
        t2 = time.perf_counter()
        if i:
            fwd_ms.append(1e3 * (t1 - t0))
            bwd_ms.append(1e3 * (t2 - t1))
    row = {"n": n, "block_rows": T.attention_block_rows(n, n)}
    for side, samples in (("fwd", fwd_ms), ("bwd", bwd_ms)):
        row[f"{side}_ms_min"] = round(min(samples), 3)
        row[f"{side}_ms_median"] = round(statistics.median(samples), 3)
    return row


def host_info() -> dict:
    """The Python, numpy and BLAS versions, and the BLAS thread count
    taken from the environment."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 1000, 2000, 4000, 8192],
                        help="numbers of points (queries = keys) to time")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed repeats per size (at least 1)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--repeats and every size must be at least 1")
    train._keep_freed_heap_mapped()
    print(json.dumps({
        **host_info(),
        "qk_dim": QK_DIM, "value_dim": VALUE_DIM, "c": SCALE, "repeats": args.repeats,
        "rows": [time_one_size(n, args.repeats) for n in args.sizes],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
