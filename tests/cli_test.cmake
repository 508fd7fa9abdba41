# End-to-end contract tests for the carac CLI: exit codes and diagnostics.
# Invoked by CTest as:
#   cmake -DCARAC_CLI=<path> -DWORK_DIR=<dir> -P cli_test.cmake
# Each failed expectation records a SEND_ERROR; cmake keeps running the
# remaining checks and exits nonzero at the end (test fails).

if(NOT CARAC_CLI)
  message(FATAL_ERROR "CARAC_CLI not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_cli(<name> <expected-exit> <expected-substring-or-empty> <args...>)
# Runs the CLI with <args...> and checks the exit code and that the
# combined stdout+stderr contains the substring (when non-empty).
function(expect_cli name expected_exit expected_substr)
  execute_process(
    COMMAND "${CARAC_CLI}" ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 60)
  set(all "${out}${err}")
  if(NOT code STREQUAL "${expected_exit}")
    message(SEND_ERROR
      "[${name}] expected exit ${expected_exit}, got ${code}\n${all}")
  endif()
  if(expected_substr AND NOT all MATCHES "${expected_substr}")
    message(SEND_ERROR
      "[${name}] output missing '${expected_substr}':\n${all}")
  endif()
  message(STATUS "[${name}] ok (exit ${code})")
endfunction()

# No arguments: usage on stderr, exit 2, and the usage must document `dl`.
expect_cli(no_args 2 "carac dl <program.dl>")

# Unknown subcommand / workload / option / backend: exit 2 + diagnostic.
expect_cli(unknown_command 2 "usage:" frobnicate x)
expect_cli(unknown_workload 2 "unknown workload" run no_such_workload)
expect_cli(unknown_option 2 "unknown option" run fibonacci --frobnicate)
expect_cli(unknown_backend 2 "unknown option" run fibonacci --backend=cobol)
expect_cli(unknown_granularity 2 "unknown option"
  run fibonacci --granularity=bogus)

# --scale must be an integer >= 1; 0, negatives, and garbage all exit 2.
expect_cli(scale_zero 2 "scale must be" run fibonacci --scale=0)
expect_cli(scale_negative 2 "scale must be" run fibonacci --scale=-3)
expect_cli(scale_garbage 2 "scale must be" run fibonacci --scale=abc)
expect_cli(scale_trailing_junk 2 "scale must be" run fibonacci --scale=2x)
expect_cli(scale_empty 2 "scale must be" run fibonacci --scale=)
expect_cli(scale_overflow 2 "scale must be"
  run fibonacci --scale=99999999999999999999)

# Missing input files: runtime failure, exit 1. A directory must also be
# rejected rather than silently evaluating an empty program.
expect_cli(missing_dl 1 "" dl "${WORK_DIR}/does_not_exist.dl")
expect_cli(missing_csv 1 "" tc "${WORK_DIR}/does_not_exist.csv")
expect_cli(dl_directory 1 "is a directory" dl "${WORK_DIR}")
expect_cli(tc_directory 1 "is a directory" tc "${WORK_DIR}")

# Over-int64 literals are a diagnostic, not an uncaught-exception abort.
file(WRITE "${WORK_DIR}/huge.dl" "Edge(99999999999999999999, 1).\n")
expect_cli(dl_huge_literal 1 "out of 64-bit range" dl "${WORK_DIR}/huge.dl")
file(WRITE "${WORK_DIR}/huge.csv" "99999999999999999999,1\n")
expect_cli(tc_huge_literal 1 "out of 64-bit range" tc "${WORK_DIR}/huge.csv")

# A lowercase relation name is the first parse error every new user hits;
# the diagnostic must teach the case convention.
file(WRITE "${WORK_DIR}/lowercase.dl" "path(x,y) :- Edge(x,y).\n")
expect_cli(lowercase_relation 1 "relations start uppercase"
  dl "${WORK_DIR}/lowercase.dl")

# --threads / --parallel-min-outer-rows: strict integers, exit 2 on
# garbage (a typo'd thread count must not silently run single-threaded).
expect_cli(threads_zero 2 "threads must be" run fibonacci --threads=0)
expect_cli(threads_garbage 2 "threads must be" run fibonacci --threads=abc)
expect_cli(threads_trailing 2 "threads must be" run fibonacci --threads=2x)
expect_cli(threads_negative 2 "threads must be" run fibonacci --threads=-4)
expect_cli(threads_overflow 2 "threads must be" run fibonacci --threads=999)
expect_cli(min_rows_garbage 2 "parallel-min-outer-rows" run fibonacci
  --parallel-min-outer-rows=junk)
expect_cli(min_rows_zero 2 "parallel-min-outer-rows" run fibonacci
  --parallel-min-outer-rows=0)
# Usage documents the new flags.
expect_cli(usage_mentions_threads 2 "--threads=N")

# --index-kind: every valid kind (and auto) is accepted; anything else is
# a configuration error with a diagnostic that lists the choices. The
# flag must also appear in usage. The removed kinds sorted and
# sorted-array are rejected like any other unknown name.
expect_cli(index_kind_hash 0 "Fibonacci" run fibonacci --scale=2
  --index-kind=hash)
expect_cli(index_kind_sorted 2
  "invalid --index-kind=sorted: expected one of hash, btree, learned, or auto"
  run fibonacci --scale=2 --index-kind=sorted)
expect_cli(index_kind_btree 0 "Fibonacci" run fibonacci --scale=2
  --index-kind=btree)
expect_cli(index_kind_sorted_array 2
  "invalid --index-kind=sorted-array: expected one of hash, btree, learned"
  run fibonacci --scale=2 --index-kind=sorted-array)
expect_cli(index_kind_learned 0 "Fibonacci" run fibonacci --scale=2
  --index-kind=learned)
expect_cli(index_kind_auto 0 "Fibonacci" run fibonacci --scale=2
  --index-kind=auto)
expect_cli(index_kind_garbage 2 "invalid --index-kind=lsm" run fibonacci
  --index-kind=lsm)
expect_cli(index_kind_empty 2 "invalid --index-kind" run fibonacci
  --index-kind=)
expect_cli(usage_mentions_index_kind 2 "--index-kind=")

# --adaptive-indexes: accepted on runs, documented in usage. The policy
# only migrates on evidence, so the happy path is just "evaluates the
# same workload correctly".
expect_cli(adaptive_run_ok 0 "Fibonacci" run fibonacci --scale=2
  --adaptive-indexes)
expect_cli(usage_mentions_adaptive 2 "--adaptive-indexes")

# --range-pushdown: strict on/off (a typo must not silently run the
# default configuration — A/B ablations would measure the wrong thing),
# documented in usage. Both arms must evaluate the workload correctly:
# results are byte-identical by contract, pushdown only moves the
# access path.
expect_cli(range_pushdown_on 0 "Primes" run primes --scale=2
  --range-pushdown=on)
expect_cli(range_pushdown_off 0 "Primes" run primes --scale=2
  --range-pushdown=off)
expect_cli(range_pushdown_garbage 2 "invalid --range-pushdown=maybe"
  run fibonacci --range-pushdown=maybe)
expect_cli(range_pushdown_empty 2 "invalid --range-pushdown" run fibonacci
  --range-pushdown=)
expect_cli(usage_mentions_range_pushdown 2 "--range-pushdown=")

# The batched-probe window is a fixed engine constant, not an option: the
# former --probe-batch-window flag is rejected like any unknown option.
expect_cli(probe_window_removed 2 "unknown option" run fibonacci
  --probe-batch-window=64)

# Happy paths still work.
expect_cli(list_ok 0 "fibonacci" list)
expect_cli(run_ok 0 "Fibonacci" run fibonacci --scale=2)
file(WRITE "${WORK_DIR}/tc.csv" "1,2\n2,3\n3,4\n")
expect_cli(tc_ok 0 "TransitiveClosure" tc "${WORK_DIR}/tc.csv")
file(WRITE "${WORK_DIR}/good.dl"
  "Edge(1,2).\nEdge(2,3).\nPath(x,y) :- Edge(x,y).\n"
  "Path(x,z) :- Path(x,y), Edge(y,z).\n")
expect_cli(dl_ok 0 "Path" dl "${WORK_DIR}/good.dl")
expect_cli(tc_threads_ok 0 "TransitiveClosure" tc "${WORK_DIR}/tc.csv"
  --threads=2 --parallel-min-outer-rows=1)

# serve: scripted incremental session. The batch grows the closure from
# the initial 3 paths (1-2, 2-3, 1-3) to the full 6 of the 4-chain, and
# the second update must report an incremental (not full) epoch.
file(WRITE "${WORK_DIR}/serve_batch.csv" "3,4\n")
file(WRITE "${WORK_DIR}/serve_script.txt"
  "update\n"
  "count Path\n"
  "load Edge ${WORK_DIR}/serve_batch.csv\n"
  "update\n"
  "count Path\n"
  "quit\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
  INPUT_FILE "${WORK_DIR}/serve_script.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_ok] expected exit 0, got ${serve_code}\n"
    "${serve_out}${serve_err}")
endif()
foreach(needle "epoch=1 full" "Path: 3 rows" "epoch=2 incremental"
    "Path: 6 rows")
  if(NOT serve_out MATCHES "${needle}")
    message(SEND_ERROR
      "[serve_ok] output missing '${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
message(STATUS "[serve_ok] ok (exit ${serve_code})")

# serve dump decodes interned symbols back to their strings.
file(WRITE "${WORK_DIR}/sym.dl"
  "Edge(\"alpha\",\"beta\").\nPath(x,y) :- Edge(x,y).\n")
file(WRITE "${WORK_DIR}/serve_sym.txt" "update\ndump Path\nquit\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/sym.dl"
  INPUT_FILE "${WORK_DIR}/serve_sym.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0" OR NOT serve_out MATCHES "alpha"
    OR NOT serve_out MATCHES "beta")
  message(SEND_ERROR "[serve_dump_symbols] expected decoded symbols, "
    "got exit ${serve_code}:\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_dump_symbols] ok (exit ${serve_code})")
endif()

# serve stats: per-column index kinds, the probe counters the update's
# evaluation recorded, and the adaptive section — "adaptive off" without
# the flag, a rekind-events count with it. Trailing junk after stats is
# rejected like the other zero-argument commands.
file(WRITE "${WORK_DIR}/serve_stats.txt"
  "update\n"
  "stats\n"
  "stats now\n"
  "quit\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
  INPUT_FILE "${WORK_DIR}/serve_stats.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_stats] expected exit 0, got ${serve_code}\n"
    "${serve_out}${serve_err}")
endif()
foreach(needle "index Edge col0" "probes Edge col0 points=" "adaptive off")
  if(NOT serve_out MATCHES "${needle}")
    message(SEND_ERROR
      "[serve_stats] output missing '${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
if(NOT serve_err MATCHES "stats takes no arguments")
  message(SEND_ERROR "[serve_stats] trailing junk not rejected:\n"
    "${serve_out}${serve_err}")
else()
  message(STATUS "[serve_stats] ok (exit ${serve_code})")
endif()
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl" --adaptive-indexes
  INPUT_FILE "${WORK_DIR}/serve_stats.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0" OR NOT serve_out MATCHES "rekind-events ")
  message(SEND_ERROR "[serve_stats_adaptive] expected a rekind-events "
    "count, got exit ${serve_code}:\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_stats_adaptive] ok (exit ${serve_code})")
endif()

# serve stats surfaces range pushdown: a comparison-constrained program
# must report which (relation, column) pairs lowering annotated and the
# range-probe counters the evaluation recorded; with --range-pushdown=off
# the pushdown lines must disappear (no atom is annotated) while the
# stats report itself stays intact.
file(WRITE "${WORK_DIR}/range.dl"
  "Edge(1,2).\nEdge(2,3).\nEdge(3,4).\nEdge(4,5).\n"
  "Path(x,y) :- Edge(x,y).\n"
  "Path(x,z) :- Path(x,y), Edge(y,z), y < 4.\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/range.dl" --index-kind=btree
  INPUT_FILE "${WORK_DIR}/serve_stats.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_stats_pushdown] expected exit 0, got "
    "${serve_code}\n${serve_out}${serve_err}")
endif()
foreach(needle "pushdown Path col1 atoms=" "ranges=")
  if(NOT serve_out MATCHES "${needle}")
    message(SEND_ERROR "[serve_stats_pushdown] output missing "
      "'${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
message(STATUS "[serve_stats_pushdown] ok (exit ${serve_code})")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/range.dl" --index-kind=btree
          --range-pushdown=off
  INPUT_FILE "${WORK_DIR}/serve_stats.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0" OR serve_out MATCHES "pushdown "
    OR NOT serve_out MATCHES "index Edge col0")
  message(SEND_ERROR "[serve_stats_pushdown_off] expected a pushdown-free "
    "stats report, got exit ${serve_code}:\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_stats_pushdown_off] ok (exit ${serve_code})")
endif()

# serve error contract: malformed input prints a diagnostic and the
# session CONTINUES (a typo must not tear down live state). The script
# mixes every input-validation failure mode with healthy commands and
# requires (a) exit 0, (b) every diagnostic present, (c) the post-error
# commands still answered — proof the session survived each error.
#   - unknown command, unknown relation
#   - malformed update/load lines (trailing junk, missing arguments)
#   - unreadable csv, wrong-arity facts (3 columns into Edge/2)
file(WRITE "${WORK_DIR}/bad_arity.csv" "1,2,3\n")
file(WRITE "${WORK_DIR}/serve_bad.txt"
  "update\n"
  "frobnicate\n"
  "count Nope\n"
  "update Edge\n"
  "load Edge\n"
  "load Edge ${WORK_DIR}/does_not_exist.csv\n"
  "load Edge ${WORK_DIR}/bad_arity.csv\n"
  "load Nope ${WORK_DIR}/tc.csv\n"
  "count Path extra\n"
  "dump Edge out.tsv\n"
  "count Path\n"
  "quit\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
  INPUT_FILE "${WORK_DIR}/serve_bad.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_error_continuation] expected exit 0 "
    "(session survives malformed input), got ${serve_code}\n"
    "${serve_out}${serve_err}")
endif()
foreach(needle
    "unknown command: frobnicate"
    "unknown relation: Nope"
    "update takes no arguments"
    "load needs a csv path"
    "cannot open"
    "expected 2 columns, got 3"
    "count takes one relation name"
    "dump takes one relation name")
  if(NOT serve_err MATCHES "${needle}")
    message(SEND_ERROR "[serve_error_continuation] missing diagnostic "
      "'${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
# The session must still be alive and consistent after all the errors:
# none of the rejected loads may have leaked facts into the database.
if(NOT serve_out MATCHES "Path: 3 rows")
  message(SEND_ERROR "[serve_error_continuation] post-error count wrong "
    "(expected 'Path: 3 rows'):\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_error_continuation] ok (exit ${serve_code})")
endif()

# --snapshot-dir / --checkpoint-every validation: strict integers, and a
# cadence without a directory is a configuration error (exit 2).
expect_cli(checkpoint_every_garbage 2 "checkpoint-every" run fibonacci
  --snapshot-dir="${WORK_DIR}/snapdir" --checkpoint-every=abc)
expect_cli(checkpoint_every_negative 2 "checkpoint-every" run fibonacci
  --snapshot-dir="${WORK_DIR}/snapdir" --checkpoint-every=-1)
expect_cli(checkpoint_every_trailing 2 "checkpoint-every" run fibonacci
  --snapshot-dir="${WORK_DIR}/snapdir" --checkpoint-every=5x)
expect_cli(checkpoint_without_dir 2 "requires --snapshot-dir"
  run fibonacci --checkpoint-every=5)
expect_cli(snapshot_dir_empty 2 "needs a directory path"
  run fibonacci --snapshot-dir=)

# serve durable sessions: session 1 evaluates, checkpoints (save) and
# keeps serving (the post-save epoch lands in the fact log); session 2
# recovers with `open` — the count must be available WITHOUT an update —
# and continues incrementally; session 3 proves the epoch counter
# survived too (epoch=4 incremental, not a full restart).
file(WRITE "${WORK_DIR}/serve_b2.csv" "4,5\n")
file(WRITE "${WORK_DIR}/serve_save.txt"
  "update\n"
  "load Edge ${WORK_DIR}/serve_batch.csv\n"
  "update\n"
  "save\n"
  "load Edge ${WORK_DIR}/serve_b2.csv\n"
  "update\n"
  "quit\n")
file(REMOVE_RECURSE "${WORK_DIR}/serve_state")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
    "--snapshot-dir=${WORK_DIR}/serve_state"
  INPUT_FILE "${WORK_DIR}/serve_save.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0" OR NOT serve_out MATCHES "checkpoint saved"
    OR NOT EXISTS "${WORK_DIR}/serve_state/snapshot.bin"
    OR NOT EXISTS "${WORK_DIR}/serve_state/factlog.bin")
  message(SEND_ERROR "[serve_save] expected a checkpoint + log tail, got "
    "exit ${serve_code}\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_save] ok (exit ${serve_code})")
endif()
file(WRITE "${WORK_DIR}/serve_open.txt"
  "open\n"
  "count Path\n"
  "load Edge ${WORK_DIR}/serve_batch3.csv\n"
  "update\n"
  "count Path\n"
  "quit\n")
file(WRITE "${WORK_DIR}/serve_batch3.csv" "5,6\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
    "--snapshot-dir=${WORK_DIR}/serve_state"
  INPUT_FILE "${WORK_DIR}/serve_open.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_open] expected exit 0, got ${serve_code}\n"
    "${serve_out}${serve_err}")
endif()
# Recovery: snapshot at epoch 2 + one replayed log epoch; the 4-chain
# closure (10 paths of the 5-chain after the new batch, 10 after) — the
# first count reads recovered state, the second the post-update state.
foreach(needle
    "restored snapshot \\(snapshot epoch 2\\) \\+ 1 log epoch"
    "Path: 10 rows"
    "epoch=4 incremental"
    "Path: 15 rows")
  if(NOT serve_out MATCHES "${needle}")
    message(SEND_ERROR
      "[serve_open] output missing '${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
message(STATUS "[serve_open] ok (exit ${serve_code})")

# open on an empty state dir is a clean no-op, not an error.
file(WRITE "${WORK_DIR}/serve_open_empty.txt" "open\nupdate\nquit\n")
file(REMOVE_RECURSE "${WORK_DIR}/serve_state2")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
    "--snapshot-dir=${WORK_DIR}/serve_state2"
  INPUT_FILE "${WORK_DIR}/serve_open_empty.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0" OR NOT serve_out MATCHES "no snapshot")
  message(SEND_ERROR "[serve_open_empty] expected clean no-op open, got "
    "exit ${serve_code}\n${serve_out}${serve_err}")
else()
  message(STATUS "[serve_open_empty] ok (exit ${serve_code})")
endif()

# serve comment handling: full-line and trailing comments are stripped
# (and draw no response/diagnostic), but a '#' embedded in a token is
# payload — `load Edge .../data#1.csv` must load THAT file, not a
# truncated "data" path. Regression for the comment-stripping fix.
file(WRITE "${WORK_DIR}/data#1.csv" "9,10\n")
file(WRITE "${WORK_DIR}/serve_comments.txt"
  "# a full-line comment draws no response\n"
  "   # neither does an indented one\n"
  "update          # trailing comments are stripped\n"
  "load Edge ${WORK_DIR}/data#1.csv\n"
  "update\n"
  "count Path      # still stripped after arguments\n"
  "quit\n")
execute_process(
  COMMAND "${CARAC_CLI}" serve "${WORK_DIR}/good.dl"
  INPUT_FILE "${WORK_DIR}/serve_comments.txt"
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_code
  TIMEOUT 60)
if(NOT serve_code STREQUAL "0")
  message(SEND_ERROR "[serve_comments] expected exit 0, got ${serve_code}\n"
    "${serve_out}${serve_err}")
endif()
foreach(needle "data#1.csv into Edge \\(3 facts total\\)" "Path: 4 rows")
  if(NOT serve_out MATCHES "${needle}")
    message(SEND_ERROR
      "[serve_comments] output missing '${needle}':\n${serve_out}${serve_err}")
  endif()
endforeach()
if(NOT serve_err STREQUAL "")
  message(SEND_ERROR "[serve_comments] expected no diagnostics, got:\n"
    "${serve_err}")
else()
  message(STATUS "[serve_comments] ok (exit ${serve_code})")
endif()

# The interactive-pipe tests need a real shell (FIFOs, /dev/tcp).
find_program(BASH_BIN bash)
if(NOT BASH_BIN)
  message(STATUS "[serve_flush/server_smoke] skipped (bash not found)")
else()

# serve flush contract: a lock-step pipe client sends each command only
# after the previous response arrived. stdout is BLOCK-buffered on pipes,
# so without the per-command flush the first `read` below blocks forever
# (well, until the 60 s timeout fails the test) even though serve already
# printf'd the response. Regression for the flush fix.
file(WRITE "${WORK_DIR}/serve_flush.sh" [=[
#!/usr/bin/env bash
set -eu
cli=$1; dl=$2; work=$3
in="$work/flush_in.fifo"; out="$work/flush_out.fifo"
rm -f "$in" "$out"; mkfifo "$in" "$out"
"$cli" serve "$dl" <"$in" >"$out" &
pid=$!
exec 3>"$in" 4<"$out"
echo "update" >&3
read -r r1 <&4
case "$r1" in epoch=1*) ;; *) echo "unexpected update reply: $r1"; exit 1;; esac
echo "count Path" >&3
read -r r2 <&4
[ "$r2" = "Path: 3 rows" ] || { echo "unexpected count reply: $r2"; exit 1; }
echo "quit" >&3
exec 3>&-
wait $pid
]=])
execute_process(
  COMMAND "${BASH_BIN}" "${WORK_DIR}/serve_flush.sh" "${CARAC_CLI}"
    "${WORK_DIR}/good.dl" "${WORK_DIR}"
  OUTPUT_VARIABLE flush_out
  ERROR_VARIABLE flush_err
  RESULT_VARIABLE flush_code
  TIMEOUT 60)
if(NOT flush_code STREQUAL "0")
  message(SEND_ERROR "[serve_flush] lock-step session failed "
    "(exit ${flush_code}) — responses not flushed per command?\n"
    "${flush_out}${flush_err}")
else()
  message(STATUS "[serve_flush] ok (exit ${flush_code})")
endif()

# carac server end-to-end smoke: start on an ephemeral TCP port, wait for
# the "ready" line, run a framed session over /dev/tcp (update, snapshot
# count, error contract, quit), then SIGTERM and require a clean exit 0.
file(WRITE "${WORK_DIR}/server_smoke.sh" [=[
#!/usr/bin/env bash
set -eu
cli=$1; dl=$2; work=$3
"$cli" server "$dl" --listen-tcp=0 --server-workers=2 \
  >"$work/server.out" 2>"$work/server.err" &
pid=$!
ready=0
for _ in $(seq 1 200); do
  if grep -q "^ready$" "$work/server.out" 2>/dev/null; then ready=1; break; fi
  sleep 0.05
done
if [ "$ready" != 1 ]; then
  echo "server never became ready"; cat "$work/server.err"; exit 1
fi
port=$(sed -n 's/^serving tcp:\([0-9][0-9]*\)$/\1/p' "$work/server.out")
[ -n "$port" ] || { echo "no resolved port in server.out"; exit 1; }
exec 3<>/dev/tcp/127.0.0.1/$port
printf 'update\ncount Path\nbogus\nquit\n' >&3
read -r l1 <&3
[ "$l1" = "ok" ] || { echo "update reply: $l1"; exit 1; }
read -r l2 <&3
[ "$l2" = "| Path: 3 rows" ] || { echo "count payload: $l2"; exit 1; }
read -r l3 <&3
[ "$l3" = "ok" ] || { echo "count terminator: $l3"; exit 1; }
read -r l4 <&3
[ "$l4" = "err serve: unknown command: bogus" ] || { echo "bogus reply: $l4"; exit 1; }
read -r l5 <&3
[ "$l5" = "ok" ] || { echo "quit reply: $l5"; exit 1; }
kill -TERM $pid
wait $pid
]=])
execute_process(
  COMMAND "${BASH_BIN}" "${WORK_DIR}/server_smoke.sh" "${CARAC_CLI}"
    "${WORK_DIR}/good.dl" "${WORK_DIR}"
  OUTPUT_VARIABLE smoke_out
  ERROR_VARIABLE smoke_err
  RESULT_VARIABLE smoke_code
  TIMEOUT 60)
if(NOT smoke_code STREQUAL "0")
  message(SEND_ERROR "[server_smoke] expected exit 0, got ${smoke_code}\n"
    "${smoke_out}${smoke_err}")
else()
  message(STATUS "[server_smoke] ok (exit ${smoke_code})")
endif()

endif()  # BASH_BIN
