"""Print one sha256 per seed over the answers of `peepgen generalize`,
`compare` and `verify` on the fixture corpus.

Each digest covers, at its seed: `generalize`'s exit code on every
`fixtures/int` and `fixtures/float` instance with the heuristic and the
`replay:fixtures/replay` backends; `compare`'s stdout and exit code on every
ordered pair of `fixtures/rules/*.peep`; and `verify`'s stdout and exit code on
every `fixtures/rules/*.peep`.  Two checkouts whose digests match give the same
answers, so a change that must not alter them is checked by running this
script on the old and the new commit and comparing the printed lines.
Stdlib only.

Run from anywhere:  python3 tools/cli_digest.py [--seed N ...]
(`--seed` repeats, default 0).  A line ends with `seed N` when N is not 0.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BACKENDS = ("heuristic", "replay:fixtures/replay")


def _run(h, label: str, args: list, stdout: bool) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "peepgen.cli", *args],
                          cwd=ROOT, env=env, capture_output=True, check=False)
    data = proc.stdout if stdout else b""
    h.update(f"{label} exit {proc.returncode} stdout {len(data)}\n".encode()
             + data)


def digest(seed: int) -> str:
    instances = sorted(p.relative_to(ROOT).as_posix()
                       for domain in ("int", "float")
                       for p in (ROOT / "fixtures" / domain).glob("*.peep"))
    rules = sorted(p.relative_to(ROOT).as_posix()
                   for p in (ROOT / "fixtures" / "rules").glob("*.peep"))
    s = ["--seed", str(seed)]
    h = hashlib.sha256()
    for backend in BACKENDS:
        for path in instances:
            _run(h, f"generalize {backend} {path}",
                 ["generalize", path, "--backend", backend, *s], False)
    for a in rules:
        for b in rules:
            _run(h, f"compare {a} {b}", ["compare", a, b, *s], True)
    for path in rules:
        _run(h, f"verify {path}", ["verify", path, *s], True)
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args()
    for seed in args.seed or [0]:
        suffix = f"  seed {seed}" if seed else ""
        print(f"{digest(seed)}  cli{suffix}", flush=True)


if __name__ == "__main__":
    main()
