#!/usr/bin/env bash
# Run the paper-reproduction bench binaries and aggregate them into a
# BENCH_*.json perf-trajectory snapshot (schema carac-bench/v8).
#
# Usage: scripts/run_benches.sh [--quick] [--large] [--build-dir DIR]
#          [--out FILE] [--baseline FILE] [--threads N] [--sweeps N]
#          [--ab OLD_BUILD_DIR]
#
#   --quick       skip the benches that take >20s at small scale
#   --large       run with CARAC_BENCH_SCALE=large (paper-sized inputs)
#   --build-dir   directory holding bench/ (default: build, build/release)
#   --out         output JSON (default: <repo>/BENCH_local.json, which is
#                 gitignored; commit a snapshot as BENCH_prN.json)
#   --baseline    snapshot to print a delta table against (default: the
#                 highest-numbered <repo>/BENCH_pr*.json)
#   --threads N   evaluation threads for the benches that take the flag
#   --sweeps N    record each bench's median wall-clock over N runs
#   --ab DIR      interleaved A/B: every sweep also runs the bench from
#                 the OLD build in DIR, alternating which arm goes first
#                 so drift hits both equally; the old median lands in the
#                 JSON as "ab_seconds" and a new-vs-old table is printed
#
# Bench stdout is kept under bench_logs/ next to the JSON. The snapshot
# holds a "benches" array (median seconds and exit code per binary) and a
# "records" array: one {"bench", "section", ...fields} object per
# `RECORD <section> key=value ...` line printed through bench::Record.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode=full scale=small build_dir="" ab_dir="" threads=1 sweeps=1
out="$repo_root/BENCH_local.json"
baseline="$(printf '%s\n' "$repo_root"/BENCH_pr*.json | sort -V | tail -n 1)"

die() { echo "error: $1" >&2; exit "${2:-2}"; }
# int_arg NAME VALUE MAX: VALUE must be an integer in [1, MAX].
int_arg() {
  [[ "$2" =~ ^[0-9]+$ ]] && [ "$2" -ge 1 ] && [ "$2" -le "$3" ] ||
    die "$1 wants an integer in [1, $3], got: $2"
}

while [ $# -gt 0 ]; do
  case "$1" in
    --quick) mode=quick; shift; continue ;;
    --large) scale=large; shift; continue ;;
    -h|--help) sed -n '2,${/^#/!q;s/^# \{0,1\}//;p}' "$0"; exit 0 ;;
    --threads|--sweeps|--build-dir|--ab|--out|--baseline)
      [ $# -ge 2 ] || die "$1 needs a value" ;;
    *) die "unknown option: $1" ;;
  esac
  case "$1" in
    --threads) int_arg "$1" "$2" 256; threads="$2" ;;
    --sweeps) int_arg "$1" "$2" 100; sweeps="$2" ;;
    --build-dir) build_dir="$2" ;;
    --ab) ab_dir="$2" ;;
    --out) out="$2" ;;
    --baseline) baseline="$2" ;;
  esac
  shift 2
done

for candidate in "$repo_root/build" "$repo_root/build/release"; do
  [ -n "$build_dir" ] || [ ! -d "$candidate/bench" ] || build_dir="$candidate"
done
[ -d "${build_dir:-.}/bench" ] || die "no built bench/ directory found;\
 build first: cmake -B build -S . && cmake --build build -j" 1
[ -z "$ab_dir" ] || [ -d "$ab_dir/bench" ] ||
  die "--ab dir has no bench/ subdirectory: $ab_dir" 1

benches=(
  bench_fig5_codegen bench_fig6_macro_unopt bench_fig7_micro_unopt
  bench_fig8_macro_opt bench_fig9_micro_opt bench_fig10_aot
  bench_table1_interpreted bench_table2_sota bench_ablation_freshness
  bench_ablation_granularity bench_ablation_storage bench_storage_micro
  bench_incremental bench_index_micro bench_adaptive_convergence
  bench_parallel_scaling bench_persistence bench_range_pushdown
)
# >20s each at small scale; dropped in --quick mode.
slow_benches=" bench_fig6_macro_unopt bench_table1_interpreted bench_ablation_freshness bench_adaptive_convergence "
# Benches that accept --threads (the Carac-side thread dimension).
threaded_benches=" bench_fig6_macro_unopt bench_fig8_macro_opt bench_table2_sota bench_incremental bench_persistence bench_range_pushdown "

export CARAC_BENCH_SCALE="$scale"  # Only "large" changes the inputs.

log_dir="$(dirname "$out")/bench_logs"
mkdir -p "$log_dir"
# One line per bench run: "<bench> <arm> <nanoseconds> <exit code>", or
# "<bench> skipped". Only the benches listed here reach the JSON, so a
# stale log from an earlier invocation never lends its numbers.
runs="$log_dir/runs.txt"
: > "$runs"
ab_orders=("old new" "new old")  # Indexed by sweep parity.
for bench in "${benches[@]}"; do
  exe="$build_dir/bench/$bench"
  # bench_storage_micro is optional (needs google-benchmark).
  if [[ "$mode$slow_benches" == quick*" $bench "* ]] || [ ! -x "$exe" ]; then
    echo "skip  $bench"; echo "$bench skipped" >> "$runs"; continue
  fi
  # Expanded as ${bench_args[@]+...} below: plain "${bench_args[@]}" on an
  # empty array trips `set -u` on bash < 4.4.
  bench_args=()
  [[ "$threads" != 1 && "$threaded_benches" == *" $bench "* ]] &&
    bench_args=(--threads "$threads")
  # A bench the old build does not have just runs single-armed.
  ab_exe="$ab_dir/bench/$bench"
  if [ -z "$ab_dir" ] || [ ! -x "$ab_exe" ]; then ab_exe=""; fi

  printf 'run   %s ...' "$bench"
  for sweep in $(seq 1 "$sweeps"); do
    # A/B arms alternate which build goes first each sweep, so frequency
    # ramps and cache warmth cannot systematically favor one side.
    arms=new
    [ -z "$ab_exe" ] || arms=${ab_orders[sweep % 2]}
    for arm in $arms; do
      arm_exe="$exe" arm_log="$log_dir/$bench.txt"
      [ "$arm" = new ] || arm_exe="$ab_exe" arm_log="$log_dir/$bench.old.txt"
      start_ns=$(date +%s%N)
      "$arm_exe" ${bench_args[@]+"${bench_args[@]}"} > "$arm_log" 2>&1
      arm_code=$?
      ns=$(($(date +%s%N) - start_ns))
      echo "$bench $arm $ns $arm_code" >> "$runs"
      printf ' %s %d.%03ds' "$arm" $((ns / 1000000000)) $((ns / 1000000 % 1000))
      [ "$arm_code" -eq 0 ] || printf ' (exit %d)' "$arm_code"
    done
  done
  echo
done

# The one parser: medians, records, the snapshot and the delta tables.
python3 - "$out" "$baseline" "$log_dir" "$mode" "$scale" "$threads" \
    "$sweeps" "$ab_dir" "$(uname -srm)" "$(nproc)" \
    "$(c++ --version 2>/dev/null | head -n 1)" <<'PYEOF'
import json, math, os, re, sys, time

(out, baseline, log_dir, mode, scale, threads, sweeps, ab_dir, uname, nproc,
 compiler) = sys.argv[1:]

def token(text):  # Integers and finite floats become numbers.
    try:
        return int(text) if re.fullmatch(r"-?[0-9]+", text) else \
            float(text) if math.isfinite(float(text)) else text
    except ValueError:
        return text

def records(bench, path):
    with open(path) as log:
        lines = [line.split()[1:] for line in log if line.startswith("RECORD ")]
    return [{"bench": bench, "section": section,
             **{k: token(v) for k, _, v in (f.partition("=") for f in fields)}}
            for section, *fields in lines]

runs = {}  # bench -> arm ("new", "old" or "skipped") -> [(ns, exit code)]
with open(os.path.join(log_dir, "runs.txt")) as f:
    for bench, arm, *rest in (line.split() for line in f):
        runs.setdefault(bench, {}).setdefault(arm, []).append(
            tuple(map(int, rest)))
benches, all_records = [], []
for name, arms in runs.items():
    if "skipped" in arms:
        benches.append({"name": name, "skipped": True})
        continue
    # Each arm's lower middle draw, as the earlier bash harness kept it.
    secs = {arm: round(sorted(n for n, _ in r)[(len(r) - 1) // 2] / 1e9, 3)
            for arm, r in arms.items()}
    codes = [code for _, code in arms["new"] if code]
    row = {"name": name, "skipped": False, "seconds": secs["new"]}
    if "old" in arms and not any(code for _, code in arms["old"]):
        row["ab_seconds"] = secs["old"]
    row["exit_code"] = codes[-1] if codes else 0
    benches.append(row)
    if not codes:
        all_records += records(name, os.path.join(log_dir, name + ".txt"))

snap = {"schema": "carac-bench/v8",
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": mode, "scale": scale, "threads": int(threads),
        "sweeps": int(sweeps), **({"ab_build_dir": ab_dir} if ab_dir else {}),
        "host": {"uname": uname, "nproc": int(nproc), "compiler": compiler},
        "benches": benches, "records": all_records}

def member(key, value):  # One array element per line keeps diffs small.
    if not isinstance(value, list) or not value:
        return "  %s: %s" % (json.dumps(key), json.dumps(value))
    return "  %s: [\n%s\n  ]" % (json.dumps(key), ",\n".join(
        "    " + json.dumps(x) for x in value))
with open(out, "w") as f:
    f.write("{\n%s\n}\n" % ",\n".join(member(k, v) for k, v in snap.items()))
print("wrote %s (logs in %s/)" % (out, log_dir))
MEASURED = re.compile(r"seconds|.*_s|.*_seconds|speedup")

def keyed(recs):  # On the section plus the string and integer fields.
    return {" ".join([r["section"]] + ["%s=%s" % (k, v) for k, v in r.items()
                                       if k not in ("bench", "section")
                                       and not isinstance(v, float)]): r
            for r in recs}

def record_rows(base_recs, new_recs):
    base = keyed(base_recs)
    return [("%s %s" % (key, field), base[key][field], value)
            for key, rec in keyed(new_recs).items() if key in base
            for field, value in rec.items()
            if MEASURED.fullmatch(field) and isinstance(value, (int, float))
            and isinstance(base[key].get(field), (int, float))]

def delta_table(title, rows):
    if not rows:
        return
    width = max(len(label) for label, _, _ in rows)
    print("\n" + title)
    print("%-*s  %10s  %10s  %8s" % (width, "", "base", "new", "delta"))
    for label, b, n in rows:
        delta = "%+7.1f%%" % (100.0 * (n - b) / b) if b and b > 0 else "-"
        print("%-*s  %10s  %10.4g  %8s" % (
            width, label, "-" if b is None else "%.4g" % b, n, delta))

delta_table("new vs old build (--ab %s), seconds:" % ab_dir,
            [(b["name"], b["ab_seconds"], b["seconds"])
             for b in benches if "ab_seconds" in b])

if baseline and os.path.isfile(baseline) and \
        os.path.abspath(baseline) != os.path.abspath(out):
    with open(baseline) as f:
        base = json.load(f)
    for field, default in (("mode", None), ("scale", None), ("threads", 1)):
        if base.get(field, default) != snap[field]:
            print("note: baseline %s=%s differs from this run's %s=%s" %
                  (field, base.get(field, default), field, snap[field]))
    base_s = {b["name"]: b.get("seconds")
              for b in base.get("benches", []) if not b.get("skipped")}
    delta_table("delta vs %s, seconds:" % baseline,
                [(b["name"], base_s.get(b["name"]), b["seconds"])
                 for b in benches if not b["skipped"]])
    if base.get("schema") == "carac-bench/v8":
        delta_table("delta vs %s, records:" % baseline,
                    record_rows(base.get("records", []), all_records))
failed = [b["name"] for b in benches if b.get("exit_code")]
if failed:
    sys.exit("error: %d bench(es) failed: %s" % (len(failed), " ".join(failed)))
PYEOF
