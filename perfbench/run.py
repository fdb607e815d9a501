#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (release, offline) into
$CARGO_TARGET_DIR (default .bench_build), then runs it with the same
arguments. Build output goes to stderr; the benchmark's stdout ends with
one JSON result line. Before handing the result on, checks that its metric
names are exactly the ones BENCHMARK.json lists for the mode.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """The commit when git knows it, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    tops = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor",
            ROOT / "perfbench"]
    for top in tops:
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    if not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {Path(__file__).parent}; nothing to build")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_digest()
    try:
        run = subprocess.run([str(target / "release" / "perfbench"), *args], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark ran past {RUN_TIMEOUT_S} s", 3)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}", run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ", 4)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
