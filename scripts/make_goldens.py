#!/usr/bin/env python3
"""Regenerate or check tests/golden_checksums.txt.

Runs the pinned local experiment config end to end in a scratch
directory and records SHA-256 digests of the scene container, the
training report, and the trained-parameter container. The digests only
change when the generator, the module, or the training loop changes
behavior; rerun this script deliberately when they do.

With --check it writes nothing: it compares the recomputed digests with
the committed file and exits 1 on a mismatch, naming each differing file
with its committed and recomputed digest, e.g.

    OPENBLAS_NUM_THREADS=2 python3 scripts/make_goldens.py --check

The digests hold per CPU kernel, not across kernels: OpenBLAS's dgemm
kernels and numpy's AVX-512 exp/log loops round differently, and the
committed ones were made under OpenBLAS's SkylakeX kernel with numpy's
AVX-512 loops on. With --kernels it writes and compares nothing: it
recomputes the digests in one subprocess per setting of KERNELS (the
default kernels, OpenBLAS's Haswell kernel, and that kernel with numpy's
AVX-512 loops off) and prints, per setting, the kernels that process ran
and its three digests. A "same bytes" claim compares these triples
between two trees. OPENBLAS_CORETYPE needs an OpenBLAS built with
DYNAMIC_ARCH, as numpy's wheels are; on a host without AVX-512 the
default setting runs the host's own kernels, which the printed names say.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg.cli import main as cli_main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIG = os.path.join(ROOT, "configs", "occlusion_local.cfg")
OUT = os.path.join(ROOT, "tests", "golden_checksums.txt")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_text():
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "scene.gtc")
        run = os.path.join(tmp, "run")
        for argv in (["gen", "--config", CONFIG, "--out", scene],
                     ["train", "--config", CONFIG, "--scene", scene, "--out", run]):
            if cli_main(argv) != 0:
                sys.exit(f"flowagg {argv[0]} failed")
        rows = [
            ("scene.gtc", sha256(scene)),
            ("report.txt", sha256(os.path.join(run, "report.txt"))),
            ("params.gtc", sha256(os.path.join(run, "params.gtc"))),
        ]
    return "".join(f"{digest}  {name}\n" for name, digest in rows)


def digests(text):
    """{file name: digest} of a checksum text."""
    rows = (line.split(None, 1) for line in text.splitlines())
    return {row[1].strip(): row[0] for row in rows if len(row) == 2}


# (name, environment) of each setting --kernels runs: the default kernels,
# OpenBLAS's AVX2 kernel, and that kernel with numpy's AVX-512 loops off.
# Each subprocess gets the caller's environment without the variables that
# pick kernels, plus its setting's.
KERNEL_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
KERNELS = (
    ("default", {}),
    ("haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("haswell_no_avx512", {"OPENBLAS_CORETYPE": "Haswell",
                           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
)
# What the subprocess of one setting runs: one JSON line with the kernels
# in use and the golden text.
KERNEL_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import make_goldens
print(json.dumps({"kernels": make_goldens.kernels_in_use(),
                  "golden": make_goldens.golden_text()}))
"""


def kernels_in_use():
    """The OpenBLAS core and whether numpy's AVX-512 loops are on, in this
    process ("?" where this numpy does not say)."""
    import numpy as np
    core = "?"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        core = fn().decode()
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
        avx512 = "on" if features.get("X86_V4") else "off"
    except ImportError:
        avx512 = "?"
    return f"OpenBLAS {core}, numpy AVX-512 loops {avx512}"


def kernel_report():
    """Per setting of KERNELS, a '# name: kernels' line and its golden
    text, or a line saying that its subprocess failed."""
    base = {k: v for k, v in os.environ.items() if k not in KERNEL_VARS}
    lines = []
    for name, env in KERNELS:
        proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, os.path.dirname(__file__)],
                              capture_output=True, text=True, env={**base, **env}, timeout=600)
        if proc.returncode != 0:
            err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            lines.append(f"# {name}: failed ({err})\n")
            continue
        child = json.loads(proc.stdout.splitlines()[-1])
        lines.append(f"# {name}: {child['kernels']}\n{child['golden']}")
    return "".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the committed digests instead of writing them")
    mode.add_argument("--kernels", action="store_true",
                      help="print the digests under each CPU-kernel setting; write nothing")
    args = parser.parse_args(argv)
    if args.kernels:
        print(kernel_report(), end="")
        return 0
    text = golden_text()
    print(text, end="")
    if args.check:
        with open(OUT, encoding="utf-8") as fh:
            committed = fh.read()
        if committed != text:
            want, got = digests(committed), digests(text)
            for name in dict.fromkeys([*want, *got]):
                if want.get(name) != got.get(name):
                    print(f"{name}: committed {want.get(name)}, recomputed {got.get(name)}")
            print(f"mismatch with {OUT}")
            return 1
        print(f"matches {OUT}")
        return 0
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
