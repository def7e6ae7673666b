"""Print one sha256 per backend and seed over everything `peepgen bench
fixtures/` writes: stdout, stderr and every `--report-dir` report.

Two checkouts whose digests match produce byte-identical bench output, so a
refactor that must not change behaviour is checked by running this script on
the old and the new commit and comparing the printed lines.  Stdlib only.

Run from anywhere:  python3 tools/output_digest.py [--seed N ...] [backend ...]
(default backends: heuristic and replay:fixtures/replay; `--seed` repeats,
default 0).  A line ends with `seed N` when N is not 0.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BACKENDS = ("heuristic", "replay:fixtures/replay")


def digest(backend: str, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as reports:
        proc = subprocess.run(
            [sys.executable, "-m", "peepgen.cli", "bench", "fixtures/",
             "--seed", str(seed), "--backend", backend, "--report-dir", reports],
            cwd=ROOT, env=env, capture_output=True, check=False)
        h = hashlib.sha256()
        for label, data in (("exit", str(proc.returncode).encode()),
                            ("stdout", proc.stdout), ("stderr", proc.stderr)):
            h.update(f"{label} {len(data)}\n".encode() + data)
        for path in sorted(pathlib.Path(reports).iterdir()):
            data = path.read_bytes()
            h.update(f"report {path.name} {len(data)}\n".encode() + data)
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("backends", nargs="*", default=list(BACKENDS))
    args = parser.parse_args()
    for seed in args.seed or [0]:
        for backend in args.backends:
            suffix = f"  seed {seed}" if seed else ""
            print(f"{digest(backend, seed)}  {backend}{suffix}", flush=True)


if __name__ == "__main__":
    main()
