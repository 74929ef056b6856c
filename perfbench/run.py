#!/usr/bin/env python3
"""Whole-run, per-layer benchmark of the mmX simulator (see README.md).

    python3 perfbench/run.py --workload churn_10k --seed 4242 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Builds perfbench_mmx (an optimized build of ../src plus the benchmark
program) under .bench_build/ at the repository root, runs one workload in a
child process, checks its outputs (perfbench_mmx's own checks plus the golden
outputs stored in perfbench/golden/ for the default seed), and prints one
JSON line per stage. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not be built or run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_mmx"
GOLDEN = HERE / "golden"
WORKLOADS = ("churn_10k", "faults_5k", "poll_2k5", "phy_frames")
DEFAULT_SEED = 4242
# perfbench_mmx sizes its work to take about --seconds on a 4-core 2.1 GHz
# host. It is stopped after twice that (a host at half the speed) plus
# this margin.
TIMEOUT_MARGIN_S = 110

# Tiny configurations for --self-check: every check, replay == library
# included, in seconds. (label, binary arguments)
SELF_CHECK = (
    ("scale_300", ["--workload", "churn_10k", "--nodes", "300", "--rounds", "48"]),
    ("faults_300", ["--workload", "faults_5k", "--nodes", "300", "--rounds", "48"]),
    ("phy_64", ["--workload", "phy_frames", "--frames", "64"]),
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench_mmx; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_mmx", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0


def source_stamp():
    """git commit when run from a clone, plus a digest of every source file."""
    sha = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def run_binary(args, seconds):
    """Run perfbench_mmx; returns its JSON lines keyed by kind, or None."""
    timeout = 2 * seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench_mmx {' '.join(args)} timed out after {timeout} s")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench_mmx exited with status {proc.returncode}")
        return None
    lines = {}
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        lines[obj.pop("kind")] = obj
    if "result" not in lines:
        log("perfbench_mmx printed no result")
        return None
    return lines


def golden_key(meta):
    """Golden outputs exist for the default seed, keyed by workload size."""
    if meta["seed"] != DEFAULT_SEED:
        return None
    if meta["workload"] == "phy_frames":
        return f"phy_frames.frames{meta['frames']}"
    faults = "faults" if meta["faults"] else "nofaults"
    return f"scale.nodes{meta['nodes']}.rounds{meta['rounds']}.{faults}"


def golden_values(lines):
    if "report" in lines:
        return lines["report"]["report"]
    return {f"point{i}.errors": p["errors"] for i, p in enumerate(lines["phy_points"]["points"])}


def check_golden(lines, write):
    """Compare the simulated outputs with the stored golden values, field by
    field. Returns (attempted, failures)."""
    key = golden_key(lines["meta"])
    if key is None:
        return 0, []
    path = GOLDEN / f"{key}.seed{DEFAULT_SEED}.json"
    got = golden_values(lines)
    if write:
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        log(f"wrote {path.relative_to(ROOT)}")
    if not path.exists():
        return 1, [f"no golden outputs at {path.relative_to(ROOT)}"]
    want = json.loads(path.read_text())
    failures = [f"golden {k}: got {got.get(k)!r}, want {v!r}"
                for k, v in sorted(want.items()) if got.get(k) != v]
    failures += [f"golden: unexpected field {k}" for k in sorted(set(got) - set(want))]
    return len(want), failures


def run_one(args, seconds, write_golden):
    """Run one configuration; prints its stage lines, returns the result."""
    lines = run_binary([*args, "--seconds", str(seconds)], seconds)
    if lines is None:
        return None
    sha, digest = source_stamp()
    lines["meta"].update(git_sha=sha, src_digest=digest)
    attempted, failures = check_golden(lines, write_golden)
    result = lines.pop("result")
    for kind, obj in lines.items():
        print(json.dumps({"kind": kind, **obj}))
    attempted += result["attempted"]
    failed = result["failed"] + len(failures)
    failures = result["failures"] + failures
    print(json.dumps({"kind": "checks", "attempted": attempted, "failed": failed,
                      "failures": failures}))
    for f in failures:
        log(f"check failed: {f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every check on tiny configurations")
    ap.add_argument("--write-golden", action="store_true",
                    help="store this run's simulated outputs as the golden outputs "
                         "(default seed only; for intended behaviour changes)")
    opt = ap.parse_args()
    if opt.seed < 0 or opt.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not opt.self_check and opt.workload is None:
        ap.error("--workload is required unless --self-check is given")

    if not build():
        log("build failed")
        return 2

    if opt.self_check:
        ok = True
        for label, args in SELF_CHECK:
            for trace in ("0", "1"):
                res = run_one([*args, "--seed", str(DEFAULT_SEED), "--trace", trace], 1,
                              opt.write_golden and trace == "0")
                if res is None:
                    return 2
                ok = ok and res["correct"]
                log(f"self-check {label} trace={trace}: "
                    f"{res['attempted'] - res['failed']}/{res['attempted']} checks passed")
        return 0 if ok else 1

    res = run_one(["--workload", opt.workload, "--seed", str(opt.seed),
                   "--trace", str(opt.trace)], opt.seconds, opt.write_golden)
    if res is None:
        return 2
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
