#!/usr/bin/env python3
"""List the src/ code that only tests reach, and the code that nothing reaches.

Works on a build configured with `--coverage` (gcc, gcov 9 or newer):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    python3 tools/experiment_coverage.py --build build-cov --jobs 4 \\
        --out build-cov/experiment-coverage.txt

Two passes over the same binaries, each from zeroed counters:
  1. experiments: every scenarios/*.json once through `manetsim run` with
     --seeds=1 and a short duration (30 s; fig_scale 10 s, urban_city 20 s);
  2. tests: the whole ctest suite.
After each pass, the counters are read with `gcov --json-format --stdout`.
A src/ line or function counts as reached when any translation unit ran it
(headers are merged over every unit that includes them).

The report lists, per src/ file, the instrumented lines, the lines each pass
reached, and the lines and functions that only tests reach, minus the test
oracles in ORACLES. A second section lists, per file, the instrumented lines
that neither pass reaches: code no experiment runs and no test checks. Run it from any directory; paths are taken relative to
the repository that holds this script. Exits 1 if a scenario run or ctest
fails (the report is still printed), 2 on bad arguments.
"""
import argparse
import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Functions that exist to check the simulation against an independent model.
# Only tests call them, by design; a substring of the demangled name.
ORACLES = [
    "shortest_paths",        # BFS hop distances: loop-freedom and route checks
    "live_adjacency",        # instantaneous radio graph for those BFSes
    "sender_view",           # MAC state snapshots the timing oracle compares
    "receiver_view",
    "state_entries",         # routing tables dumped for the loop-freedom suite
    "Channel::neighbors_of",  # brute-force receiver set, test_phy's reach oracle
    "FaultPlan::down_windows",  # crash windows the fault invariants check against
]

# Run length per scenario file, seconds; every other file runs 30 s.
DURATIONS = {"fig_scale": 10, "urban_city": 20}
DEFAULT_DURATION = 30


def clear_counters(build):
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()


def gcov_json(gcda):
    """The gcov JSON documents of one .gcda file."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda.name],
                         cwd=gcda.parent, capture_output=True, text=True, check=True).stdout
    decoder = json.JSONDecoder()
    docs, at = [], 0
    while at < len(out):
        if out[at].isspace():
            at += 1
            continue
        doc, at = decoder.raw_decode(out, at)
        docs.append(doc)
    return docs


def dump(build, jobs):
    """Merged counts over every .gcda under `build`, src/ files only:
    lines[file][line] = count, and funcs[file][(start, end)] = [count, names]
    (one entry per source span, so a template's instantiations merge)."""
    src = ROOT / "src"
    lines, funcs = {}, {}
    gcdas = sorted(build.rglob("*.gcda"))
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for docs in pool.map(gcov_json, gcdas):
            for doc in docs:
                cwd = pathlib.Path(doc.get("current_working_directory", "."))
                for f in doc["files"]:
                    path = pathlib.Path(os.path.normpath(cwd / f["file"]))
                    if src not in path.parents:
                        continue
                    rel = str(path.relative_to(ROOT))
                    fl = lines.setdefault(rel, {})
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        fl[n] = max(fl.get(n, 0), ln["count"])
                    ff = funcs.setdefault(rel, {})
                    for fn in f["functions"]:
                        entry = ff.setdefault((fn["start_line"], fn["end_line"]), [0, set()])
                        entry[0] = max(entry[0], fn["execution_count"])
                        entry[1].add(fn["demangled_name"])
    return lines, funcs


def run_experiments(build, jobs):
    failed = []
    manetsim = build / "tools" / "manetsim"
    with tempfile.TemporaryDirectory(prefix="experiment-coverage-") as out_dir:
        for spec in sorted((ROOT / "scenarios").glob("*.json")):
            duration = DURATIONS.get(spec.stem, DEFAULT_DURATION)
            cmd = [str(manetsim), "run", str(spec), "--seeds=1", f"--duration={duration}",
                   f"--threads={jobs}", f"--out-dir={out_dir}"]
            print(f"# {spec.name} ({duration} s)", file=sys.stderr, flush=True)
            if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
                failed.append(spec.name)
    return failed


def run_tests(build, jobs):
    print("# ctest", file=sys.stderr, flush=True)
    rc = subprocess.run(["ctest", "--test-dir", str(build), "-j", str(jobs)],
                        stdout=subprocess.DEVNULL).returncode
    return [] if rc == 0 else ["ctest"]


def oracle(names):
    return any(o in name for name in names for o in ORACLES)


def report(exp, tests):
    exp_lines, exp_funcs = exp
    test_lines, test_funcs = tests
    rows, details, neither_rows = [], [], []
    total = {"lines": 0, "tests": 0, "exp": 0, "only": 0, "oracle": 0, "neither": 0}
    for rel in sorted(set(exp_lines) | set(test_lines)):
        el, tl = exp_lines.get(rel, {}), test_lines.get(rel, {})
        tf, ef = test_funcs.get(rel, {}), exp_funcs.get(rel, {})
        spans = [span for span, (n, names) in tf.items() if oracle(names)]

        def in_oracle(line, spans=spans):
            return any(s <= line <= e for s, e in spans)

        instrumented = set(el) | set(tl)
        by_tests = {n for n in instrumented if tl.get(n, 0) > 0}
        by_exp = {n for n in instrumented if el.get(n, 0) > 0}
        only = sorted(n for n in by_tests - by_exp if not in_oracle(n))
        neither = sorted(instrumented - by_tests - by_exp)
        total["neither"] += len(neither)
        if neither:
            neither_rows.append((rel, len(instrumented), neither))
        total["lines"] += len(instrumented)
        total["tests"] += len(by_tests)
        total["exp"] += len(by_exp)
        total["only"] += len(only)
        total["oracle"] += sum(1 for n in by_tests - by_exp if in_oracle(n))
        only_funcs = sorted((span[0], min(names, key=len)) for span, (n, names) in tf.items()
                            if n > 0 and ef.get(span, [0])[0] == 0 and not oracle(names))
        if only or only_funcs:
            rows.append((rel, len(instrumented), len(by_tests), len(by_exp), len(only)))
            details.append((rel, only, only_funcs))

    out = ["src/ code that only tests reach (experiments: every scenarios/*.json, one seed)", ""]
    out.append(f"{'file':44} {'lines':>6} {'tests':>6} {'exper.':>6} {'only tests':>10}")
    for rel, n, t, e, o in sorted(rows, key=lambda r: (-r[4], r[0])):
        out.append(f"{rel:44} {n:6} {t:6} {e:6} {o:10}")
    out.append(f"{'total (all src/ files)':44} {total['lines']:6} {total['tests']:6} "
               f"{total['exp']:6} {total['only']:10}")
    out.append(f"(plus {total['oracle']} lines in the test oracles: {', '.join(ORACLES)})")
    for rel, only, only_funcs in details:
        out.append("")
        out.append(f"{rel}: lines {compress(only) if only else '-'}")
        for start, name in only_funcs:
            out.append(f"  {start:5}  {name}")

    out += ["", "src/ lines that neither pass reaches", ""]
    out.append(f"{'file':44} {'lines':>6} {'neither':>10}")
    for rel, n, neither in sorted(neither_rows, key=lambda r: (-len(r[2]), r[0])):
        out.append(f"{rel:44} {n:6} {len(neither):10}")
    out.append(f"{'total (all src/ files)':44} {total['lines']:6} {total['neither']:10}")
    for rel, _, neither in neither_rows:
        out.append("")
        out.append(f"{rel}: lines {compress(neither)}")
    return "\n".join(out) + "\n"


def compress(numbers):
    """[3, 4, 5, 9] -> '3-5 9'."""
    spans, start, prev = [], numbers[0], numbers[0]
    for n in numbers[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        spans.append(str(start) if start == prev else f"{start}-{prev}")
        if n is not None:
            start = prev = n
    return " ".join(spans)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default="build", help="a --coverage build directory")
    ap.add_argument("--jobs", type=int, default=2, help="manetsim threads, ctest and gcov jobs")
    ap.add_argument("--out", help="also write the report here")
    args = ap.parse_args()
    build = pathlib.Path(args.build).resolve()
    if args.jobs < 1 or args.jobs > 64:
        ap.error("--jobs must be in [1, 64]")
    if not any(build.rglob("*.gcno")):
        ap.error(f"{build} holds no .gcno files: configure it with --coverage")

    clear_counters(build)
    failed = run_experiments(build, args.jobs)
    exp = dump(build, args.jobs)
    clear_counters(build)
    failed += run_tests(build, args.jobs)
    tests = dump(build, args.jobs)

    text = report(exp, tests)
    sys.stdout.write(text)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    for name in failed:
        print(f"experiment_coverage: {name} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
