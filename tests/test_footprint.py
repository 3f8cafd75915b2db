"""No svkit command loads scipy.

Every command runs in its own process, so each pays for what it imports
before it does any work: importing all of scipy takes about a second of
CPU and some 70 MB, and ``scipy.linalg`` alone brings a second BLAS
library into the process. Every command, the PLDA factorizations and
``synth`` included, runs on numpy alone; scipy is a test dependency, the
oracle of several tests. Each case runs its commands on tiny inputs in a
fresh interpreter and reports the ``scipy`` modules in ``sys.modules``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from svkit import cli

# runs argv lists through svkit.cli.main in this fresh process; their stdout
# goes to stderr, so stdout holds only the exit codes and the scipy modules
CHILD = """
import contextlib, json, sys
from svkit import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(commands, cwd: Path) -> set[str]:
    """Run ``commands`` in one new interpreter; the scipy modules it loaded."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands), proc.stderr
    return set(result["scipy"])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The scipy modules of each case, run in order on one tiny corpus."""
    root = tmp_path_factory.mktemp("footprint")
    (root / "plda.cfg").write_text("plda_rank_speaker = 3\nplda_rank_channel = 3\n"
                                   "em_iters = 2\nsnorm_top_x = 2\n", encoding="utf-8")
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = {"help": [["--help"]] + [[name, "--help"] for name in subcommands.choices]}
    cases["synth"] = [["synth", "--out-dir", "corpus", "--num-speakers", "3",
                       "--utts-per-speaker", "3", "--duration", "0.4", "--seed", "2",
                       "--trials-out", "trials.txt", "--num-target", "6",
                       "--num-nontarget", "12"]]
    cases["cosine"] = [
        ["feats", "--wav-dir", "corpus", "--out-dir", "feats"],
        ["vad", "--wav-dir", "corpus", "--out-dir", "vad"],
        ["embed", "--feats-dir", "feats", "--vad-dir", "vad", "--out", "emb.svw"],
        ["train_plda", "--embeddings", "emb.svw", "--labels", "corpus/speakers.txt",
         "--backend", "cosine", "--out", "cos.svw"],
        ["score", "--backend-file", "cos.svw", "--embeddings", "emb.svw",
         "--trials", "trials.txt", "--out", "cos_raw.scores"],
        ["snorm", "--config", "plda.cfg", "--backend-file", "cos.svw", "--embeddings",
         "emb.svw", "--trials", "trials.txt", "--scores", "cos_raw.scores",
         "--out", "cos_snorm.scores"],
        ["fuse", "--scores", "cos_raw.scores", "cos_snorm.scores", "--key", "trials.txt",
         "--out", "fused.scores"],
        ["calibrate", "--scores", "fused.scores", "--key", "trials.txt", "--out", "cal.scores"],
        ["eval", "--scores", "cal.scores", "--key", "trials.txt"],
    ]
    cases["plda"] = [
        ["train_plda", "--config", "plda.cfg", "--embeddings", "emb.svw",
         "--labels", "corpus/speakers.txt", "--out", "plda.svw"],
        ["score", "--backend-file", "plda.svw", "--embeddings", "emb.svw",
         "--trials", "trials.txt", "--out", "plda_raw.scores"],
        ["snorm", "--config", "plda.cfg", "--backend-file", "plda.svw", "--embeddings",
         "emb.svw", "--trials", "trials.txt", "--scores", "plda_raw.scores",
         "--out", "plda_snorm.scores"],
    ]
    return {name: run_fresh(commands, root) for name, commands in cases.items()}


def test_import_and_help_load_no_scipy(loaded):
    assert loaded["help"] == set()


def test_cosine_chain_loads_no_scipy(loaded):
    assert loaded["cosine"] == set()


def test_plda_commands_load_no_scipy(loaded):
    assert loaded["plda"] == set()


def test_synth_loads_no_scipy(loaded):
    assert loaded["synth"] == set()
