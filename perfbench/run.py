#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in ../src) under .bench_build/; later runs only
re-check the build. --trace 1 first checks that every event tag scheduled
under src/ is named in the driver's tag -> layer map. The driver's output is
relayed as is; its last line is the JSON result. The exit code is non-zero
when the build fails, a tag is unmapped, or any point fails its check.

    python3 perfbench/run.py --check-tags   # only the tag-map check
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "perfbench"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


# ---- tag-map check ---------------------------------------------------------

CALL = re.compile(r"(?:\.|->)\s*(schedule|schedule_at)\s*\(")
OPEN = "([{"
CLOSE = ")]}"


def skip_literal(text, i):
    """Index just past the string or char literal that starts at text[i]."""
    j = i + 1
    while text[j] != text[i]:
        j += 2 if text[j] == "\\" else 1
    return j + 1


def strip_comments(text):
    """text with every comment blanked out; newlines and literals kept."""
    out, i = [], 0
    while i < len(text):
        if text.startswith("//", i) or text.startswith("/*", i):
            end = text.find("\n", i) if text[i + 1] == "/" else text.index("*/", i) + 2
            end = len(text) if end < 0 else end
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif text[i] in "\"'":
            j = skip_literal(text, i)
            out.append(text[i:j])
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def call_args(text, start):
    """Top-level argument texts of the call whose '(' is at text[start]."""
    args, depth, i, begin = [], 0, start, start + 1
    while i < len(text):
        c = text[i]
        if c in "\"'":
            i = skip_literal(text, i)
            continue
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            depth -= 1
            if depth == 0:
                args.append(text[begin:i].strip())
                return args
        elif c == "," and depth == 1:
            args.append(text[begin:i].strip())
            begin = i + 1
        i += 1
    raise ValueError("unbalanced call")


def source_tags(src):
    """{tag: first file:line} for every schedule call under src; None = untagged."""
    tags, bad = {}, []
    for path in sorted(src.rglob("*.[ch]pp")):
        text = strip_comments(path.read_text())
        for m in CALL.finditer(text):
            where = f"{path.relative_to(src.parent)}:{text.count(chr(10), 0, m.start()) + 1}"
            args = call_args(text, m.end() - 1)
            tag = None
            if len(args) == 3 and args[2] != "nullptr":
                lit = re.fullmatch(r'"([^"\\]*)"', args[2])
                if lit is None:
                    bad.append(f"{where}: tag is not a string literal: {args[2]}")
                    continue
                tag = lit.group(1)
            elif len(args) not in (2, 3):
                bad.append(f"{where}: unexpected schedule call with {len(args)} arguments")
                continue
            tags.setdefault(tag, where)
    return tags, bad


def check_tags():
    """True when every tag scheduled under src/ is in the driver's map."""
    out = subprocess.run([str(BINARY), "--list-tags"], capture_output=True, text=True,
                         check=True).stdout
    mapped = dict(line.split() for line in out.splitlines() if line.strip())
    tags, bad = source_tags(ROOT / "src")
    for tag, site in sorted(tags.items(), key=lambda kv: kv[0] or ""):
        if tag is not None and tag not in mapped:
            bad.append(f"{site}: event tag '{tag}' is not in the tag -> layer map")
    for tag in sorted(set(mapped) - set(tags)):
        print(f"perfbench: note: mapped tag '{tag}' is no longer scheduled under src/",
              file=sys.stderr)
    for line in bad:
        print(f"perfbench: {line}", file=sys.stderr)
    return not bad


# ---- run --------------------------------------------------------------------

def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None without it."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-tags", action="store_true")
    a = ap.parse_args()
    if not a.check_tags and not a.workload:
        ap.error("--workload is required")

    build()
    if a.check_tags or a.trace:
        if not check_tags():
            fail("tag -> layer map is incomplete")
        if a.check_tags:
            return 0

    cmd = [str(BINARY), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode == 2 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    expected = declared_metrics(a.trace)
    if result["correct"] and expected is not None and set(result["metrics"]) != expected:
        print("\n".join(lines[:-1]))
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
