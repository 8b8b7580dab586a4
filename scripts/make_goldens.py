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
"""

import argparse
import hashlib
import os
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed digests instead of writing them")
    args = parser.parse_args(argv)
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
