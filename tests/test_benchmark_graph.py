import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_generator_reproduces_the_committed_benchmark_graph(tmp_path):
    out = tmp_path / "bench.edges"
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "make_benchmark_graph.py"),
         "--seed", "1", "--out", str(out)],
        check=True,
        capture_output=True,
    )
    with open(os.path.join(ROOT, "data", "bench1133.edges"), "rb") as fh:
        assert out.read_bytes() == fh.read()
