#!/usr/bin/env bash
# Tier-1 verification gate plus the sanitizer configs, runnable locally and
# from CI (.github/workflows/ci.yml calls each stage).
#
#   scripts/check.sh            # tier-1: configure + build (no compiler warning
#                               # allowed) + ctest
#   scripts/check.sh asan       # -DCW_SANITIZE=address,undefined build + ctest
#   scripts/check.sh tsan       # -DCW_SANITIZE=thread build + concurrency suites
#   scripts/check.sh determinism# full_report byte-identical at --jobs 1/2/8
#   scripts/check.sh stream     # live_report == full_report at several epoch
#                               # slicings/shard counts/worker counts (+ golden md5)
#   scripts/check.sh serve      # cloudwatch_cli serve: curl per-epoch tables, diff
#                               # against the batch render (+ golden md5), 503 shed
#   scripts/check.sh bench      # frame-vs-full-scan numbers (bench_runner_pipelines)
#   scripts/check.sh fleet      # sweep campaigns byte-identical at --jobs 1/2/8,
#                               # in-fleet cell == standalone --cell rerun
#   scripts/check.sh adversary  # adaptive/colocation/clustering presets at small
#                               # scale: byte-identical at --jobs 1/8, standalone
#                               # --cell == in-fleet, clustering scores in md+json
#   scripts/check.sh stress     # opt-in: 1000-engine stress campaign — completes
#                               # under a deadline, bounded memory, byte-identical
#                               # sweep report at --jobs 2 vs 8
#   scripts/check.sh coldstore  # out-of-core tiering: spilled live report grid
#                               # byte-identical to batch (+ golden md5) at
#                               # --hot-segments 0/1/all x --jobs 1/8, and a
#                               # campaign that dies under `ulimit -v` resident
#                               # completes under the same cap with --spill-dir,
#                               # byte-identical to the uncapped render
#   scripts/check.sh golden [NAME [BIN_DIR]]
#                               # rerun the scripts/goldens.txt lines named NAME
#                               # (all lines without one) and compare stdout md5s
#   scripts/check.sh testids    # every test binary lists the same test names
#                               # twice, none carrying raw multi-byte
#                               # `object <...>` parameter bytes
#   scripts/check.sh reach      # every external function in the libcw_*.a
#                               # libraries is reachable from full_report,
#                               # cloudwatch_cli or live_report, or allowlisted
#                               # with a reason in scripts/reach_allow.txt
#   scripts/check.sh all        # tier-1 + asan + tsan + determinism + stream + serve
#                               # + fleet + adversary + coldstore + testids + reach
#                               # (stress stays opt-in: run it explicitly)
#
# Golden digests come from scripts/goldens.txt: a tier compares bytes when
# the manifest pins its (command, scale, t24), and reports byte-identity
# only otherwise.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CW_CHECK_JOBS:-$(nproc)}"
GOLDENS="$ROOT/scripts/goldens.txt"

# golden_md5 NAME SCALE T24: the manifest's md5 for that run, or nothing.
golden_md5() {
  awk -F'|' -v name="$1" -v scale="$2" -v t24="$3" '
    /^[[:space:]]*(#|$)/ { next }
    { for (i = 1; i <= NF; ++i) gsub(/^[[:space:]]+|[[:space:]]+$/, "", $i) }
    $1 == name && $3 == scale && $4 == t24 { print $5; exit }' "$GOLDENS"
}

# compare_golden TIER NAME SCALE T24 FILE: fails when the manifest pins
# (NAME, SCALE, T24) and FILE's md5 differs from it.
compare_golden() {
  local tier="$1" name="$2" scale="$3" t24="$4" file="$5" want got
  want=$(golden_md5 "$name" "$scale" "$t24")
  if [ -z "$want" ]; then
    echo "$tier: no $name golden pinned at scale $scale, t24 $t24 (byte-identity only)"
    return 0
  fi
  got=$(md5sum "$file" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "$tier: $name stdout md5 $got != golden $want (scale $scale, t24 $t24)" >&2
    return 1
  fi
  echo "$tier: $name stdout md5 matches golden $want (scale $scale, t24 $t24)"
}

tier1() {
  cmake -B "$ROOT/build" -S "$ROOT"
  local log
  log=$(mktemp)
  cmake --build "$ROOT/build" -j "$JOBS" 2>&1 | tee "$log"
  if grep -q "warning:" "$log"; then
    echo "tier1: the build printed compiler warnings:" >&2
    grep "warning:" "$log" >&2
    rm -f "$log"
    return 1
  fi
  rm -f "$log"
  ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"
}

golden() {
  # Reruns the manifest lines named $1 (every line when empty) with the
  # binaries in $2 (default: the tier-1 build) and compares stdout md5s.
  local only="$1" bin_dir="${2:-$ROOT/build/examples}"
  local name cmd scale t24 md5 out checked=0
  out=$(mktemp)
  while IFS='|' read -r name cmd scale t24 md5; do
    name=$(echo $name) cmd=$(echo $cmd) scale=$(echo $scale) t24=$(echo $t24)
    case "$name" in ''|'#'*) continue ;; esac
    [ -z "$only" ] || [ "$name" = "$only" ] || continue
    cmd=${cmd//\{scale\}/$scale}
    cmd=${cmd//\{t24\}/$t24}
    # shellcheck disable=SC2086  # the command's words split on purpose
    "$bin_dir"/$cmd >"$out" 2>/dev/null
    compare_golden golden "$name" "$scale" "$t24" "$out" || { rm -f "$out"; return 1; }
    checked=$((checked + 1))
  done <"$GOLDENS"
  rm -f "$out"
  if [ "$checked" -eq 0 ]; then
    echo "golden: no manifest line named '$only'" >&2
    return 1
  fi
}

asan() {
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DCW_SANITIZE=address,undefined
  cmake --build "$ROOT/build-asan" -j "$JOBS"
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"
}

tsan() {
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DCW_SANITIZE=thread
  # The concurrency surface: the pool, the runner, the capture layer (store
  # freeze/pin + SessionFrame sharded builds), and the stream ingest path
  # (multi-producer shard buffers racing a snapshot reader), and the report
  # server (handler pool + acceptor + concurrent readers racing sealers).
  # Building everything under TSan is slow; these binaries cover every thread
  # we spawn. Run them directly: gtest_discover_tests registers per-case
  # names, so a ctest -R on binary names silently matches nothing.
  cmake --build "$ROOT/build-tsan" -j "$JOBS" \
    --target cw_runner_test cw_capture_test cw_analysis_test cw_stream_test cw_serve_test
  local binary
  for binary in cw_runner_test cw_capture_test cw_analysis_test cw_stream_test cw_serve_test; do
    "$ROOT/build-tsan/tests/$binary"
  done
}

determinism() {
  # The report must be byte-identical at every worker count (the frame
  # build, the characteristic-table cache, and all 17 pipelines shard
  # through the pool) — and, at the reference scale, identical to the
  # recorded golden hash, so a refactor that shifts any output byte (even
  # deterministically) fails here instead of landing unnoticed.
  cmake --build "$ROOT/build" -j "$JOBS" --target full_report
  local bin="$ROOT/build/examples/full_report"
  [ -x "$bin" ] || bin="$ROOT/build/full_report"
  local scale="${CW_CHECK_SCALE:-0.3}" t24="${CW_CHECK_T24:-16}"
  local out1 out2 out8
  out1=$(mktemp) && out2=$(mktemp) && out8=$(mktemp)
  "$bin" --jobs 1 "$scale" "$t24" >"$out1" 2>/dev/null
  "$bin" --jobs 2 "$scale" "$t24" >"$out2" 2>/dev/null
  "$bin" --jobs 8 "$scale" "$t24" >"$out8" 2>/dev/null
  diff -q "$out1" "$out2" && diff -q "$out1" "$out8"
  if ! compare_golden determinism report "$scale" "$t24" "$out1"; then
    rm -f "$out1" "$out2" "$out8"
    return 1
  fi
  rm -f "$out1" "$out2" "$out8"
  echo "determinism: byte-identical at --jobs 1/2/8 (scale $scale, t24 $t24)"
}

stream() {
  # The live-ingest invariant: after the final epoch, the incrementally
  # maintained report is byte-identical to the one-shot batch report — at
  # any epoch slicing, shard count, and worker count. At the reference
  # scale the live output must also reproduce the recorded golden hash, so
  # the streaming path cannot drift from the batch path unnoticed.
  cmake --build "$ROOT/build" -j "$JOBS" --target full_report live_report cw_stream_test
  "$ROOT/build/tests/cw_stream_test"
  local batch="$ROOT/build/examples/full_report"
  [ -x "$batch" ] || batch="$ROOT/build/full_report"
  local live="$ROOT/build/examples/live_report"
  [ -x "$live" ] || live="$ROOT/build/live_report"
  local scale="${CW_CHECK_SCALE:-0.3}" t24="${CW_CHECK_T24:-16}"
  local batch_out live_out
  batch_out=$(mktemp) && live_out=$(mktemp)
  "$batch" --jobs 1 "$scale" "$t24" >"$batch_out" 2>/dev/null
  local spec epochs shards jobs
  for spec in "1 1 1" "3 4 2" "5 16 8"; do
    read -r epochs shards jobs <<<"$spec"
    "$live" --final-only --epochs "$epochs" --shards "$shards" --jobs "$jobs" \
      "$scale" "$t24" >"$live_out" 2>/dev/null
    if ! diff -q "$batch_out" "$live_out"; then
      echo "stream: live report diverged from batch at $epochs epochs, $shards shards, --jobs $jobs" >&2
      rm -f "$batch_out" "$live_out"
      return 1
    fi
  done
  if ! compare_golden stream report "$scale" "$t24" "$live_out"; then
    rm -f "$batch_out" "$live_out"
    return 1
  fi
  rm -f "$batch_out" "$live_out"
  echo "stream: live == batch at epochs/shards/jobs 1/1/1, 3/4/2, 5/16/8 (scale $scale, t24 $t24)"
}

serve() {
  # The serve contract: every byte a reader pulls from stream::ReportServer
  # is the batch render of the same corpus — /epoch/<final>/report over HTTP
  # diffs clean against full_report stdout (and reproduces the golden md5 at
  # the reference scale) — and overload is shed with 503 + Retry-After
  # instead of queueing without bound.
  cmake --build "$ROOT/build" -j "$JOBS" --target cloudwatch_cli full_report cw_serve_test
  "$ROOT/build/tests/cw_serve_test"
  local cli="$ROOT/build/examples/cloudwatch_cli"
  [ -x "$cli" ] || cli="$ROOT/build/cloudwatch_cli"
  local batch="$ROOT/build/examples/full_report"
  [ -x "$batch" ] || batch="$ROOT/build/full_report"
  local scale="${CW_CHECK_SCALE:-0.3}" t24="${CW_CHECK_T24:-16}" epochs=3
  local work
  work=$(mktemp -d)
  "$batch" --jobs 1 "$scale" "$t24" >"$work/batch.md" 2>/dev/null
  "$cli" serve --scale "$scale" --t24 "$t24" --epochs "$epochs" --shards 4 \
    --max-conn 8 --port-file "$work/port" --linger 300 2>"$work/serve.log" &
  local server_pid=$!
  # shellcheck disable=SC2064
  trap "kill $server_pid 2>/dev/null; wait $server_pid 2>/dev/null" RETURN
  local port="" i
  for i in $(seq 1 120); do
    [ -s "$work/port" ] && { port=$(cat "$work/port"); break; }
    sleep 0.5
  done
  if [ -z "$port" ]; then
    echo "serve: server never wrote its port file" >&2
    rm -rf "$work"
    return 1
  fi
  # Wait for the final epoch to publish, then pull its full report.
  local ready=""
  for i in $(seq 1 1200); do
    if curl -sf "http://127.0.0.1:$port/epochs" 2>/dev/null | grep -q "\"latest\":$epochs"; then
      ready=1
      break
    fi
    sleep 0.5
  done
  if [ -z "$ready" ]; then
    echo "serve: final epoch never published (see $work/serve.log)" >&2
    return 1
  fi
  curl -sf "http://127.0.0.1:$port/epoch/$epochs/report" >"$work/served.md"
  if ! diff -q "$work/batch.md" "$work/served.md"; then
    echo "serve: served /epoch/$epochs/report diverged from batch full_report" >&2
    return 1
  fi
  compare_golden serve report "$scale" "$t24" "$work/served.md" || return 1
  # Spot-check the table and findings routes.
  curl -sf "http://127.0.0.1:$port/epoch/$epochs/table/table-1-vantage-points" \
    >"$work/table1.md"
  if ! grep -qF "$(head -1 "$work/table1.md")" "$work/batch.md"; then
    echo "serve: table route body not found in the batch render" >&2
    return 1
  fi
  if ! curl -sf "http://127.0.0.1:$port/epoch/$epochs/findings" | grep -q '"findings":\['; then
    echo "serve: findings route missing or malformed" >&2
    return 1
  fi
  # Overload path: hold --max-conn idle connections, expect an immediate 503
  # with Retry-After; release them, expect recovery to 200.
  local fd
  for fd in $(seq 3 10); do
    eval "exec $fd<>/dev/tcp/127.0.0.1/$port"
  done
  sleep 0.3
  local shed
  shed=$(curl -s --max-time 5 -D - -o /dev/null "http://127.0.0.1:$port/healthz" || true)
  for fd in $(seq 3 10); do
    eval "exec $fd<&-" && eval "exec $fd>&-"
  done
  if ! grep -q "^HTTP/1.1 503" <<<"$shed" || ! grep -qi "^Retry-After:" <<<"$shed"; then
    echo "serve: expected 503 + Retry-After at connection capacity, got:" >&2
    echo "$shed" >&2
    return 1
  fi
  local recovered=""
  for i in $(seq 1 60); do
    if [ "$(curl -s --max-time 5 -o /dev/null -w '%{http_code}' \
            "http://127.0.0.1:$port/healthz" || true)" = "200" ]; then
      recovered=1
      break
    fi
    sleep 0.5
  done
  if [ -z "$recovered" ]; then
    echo "serve: server never recovered after overload connections closed" >&2
    return 1
  fi
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  trap - RETURN
  rm -rf "$work"
  echo "serve: served epochs byte-identical to batch; 503 shed + recovery verified (scale $scale, t24 $t24)"
}

bench() {
  cmake --build "$ROOT/build" -j "$JOBS" --target bench_runner_pipelines bench_frame_kernels
  local bin="$ROOT/build/bench/bench_runner_pipelines"
  [ -x "$bin" ] || bin="$ROOT/build/bench_runner_pipelines"
  CW_SCALE="${CW_SCALE:-0.5}" CW_T24="${CW_T24:-16}" CW_JOBS="${CW_JOBS:-1}" \
    "$bin" --benchmark_filter='bm_frame_build|bm_table(8|9|10)' \
           --benchmark_min_time=0.5
  # The SessionFrame v2 kernels: encoded vs v1 table builds, packed posting
  # iteration, cold vs warm epoch seal.
  local kernels="$ROOT/build/bench/bench_frame_kernels"
  [ -x "$kernels" ] || kernels="$ROOT/build/bench_frame_kernels"
  CW_SCALE="${CW_SCALE:-0.5}" CW_T24="${CW_T24:-16}" CW_JOBS="${CW_JOBS:-1}" \
    "$kernels" --benchmark_min_time=0.5
  # The report server under mixed (live run racing readers) and cached load.
  cmake --build "$ROOT/build" -j "$JOBS" --target bench_serve
  local serve_bin="$ROOT/build/bench/bench_serve"
  [ -x "$serve_bin" ] || serve_bin="$ROOT/build/bench_serve"
  CW_SCALE="${CW_SCALE:-0.1}" CW_T24="${CW_T24:-4}" "$serve_bin"
}

fleet() {
  # The Fleet determinism contract: a campaign's sweep report (and every
  # per-cell file) is byte-identical at any worker count, and any single
  # cell rerun standalone (--cell) reproduces its in-fleet per-cell file
  # byte-for-byte — cell seeds derive from (campaign seed, sim label), never
  # from scheduling position.
  cmake --build "$ROOT/build" -j "$JOBS" --target cloudwatch_cli
  local cli="$ROOT/build/examples/cloudwatch_cli"
  [ -x "$cli" ] || cli="$ROOT/build/cloudwatch_cli"
  local scale="${CW_CHECK_FLEET_SCALE:-0.15}" t24="${CW_CHECK_FLEET_T24:-8}"
  local work campaign jobs
  work=$(mktemp -d)
  for campaign in ablation calibration; do
    for jobs in 1 2 8; do
      "$cli" sweep "$campaign" --scale "$scale" --t24 "$t24" --jobs "$jobs" \
        --cells-dir "$work/$campaign-j$jobs" >"$work/$campaign-j$jobs.md" 2>/dev/null
    done
    for jobs in 2 8; do
      if ! diff -q "$work/$campaign-j1.md" "$work/$campaign-j$jobs.md" ||
         ! diff -rq "$work/$campaign-j1" "$work/$campaign-j$jobs"; then
        echo "fleet: $campaign sweep diverged between --jobs 1 and --jobs $jobs" >&2
        rm -rf "$work"
        return 1
      fi
    done
    if ! compare_golden fleet "sweep-$campaign" "$scale" "$t24" "$work/$campaign-j1.md"; then
      rm -rf "$work"
      return 1
    fi
  done
  # Standalone rerun of one cell from each campaign vs its in-fleet file.
  "$cli" sweep ablation --scale "$scale" --t24 "$t24" --jobs 1 \
    --cell "k5-bonf" >"$work/solo-ablation.md" 2>/dev/null
  "$cli" sweep calibration --scale "$scale" --t24 "$t24" --jobs 1 \
    --cell "beta/x0.60" >"$work/solo-calibration.md" 2>/dev/null
  if ! diff -q "$work/solo-ablation.md" "$work/ablation-j1/k5-bonf.md" ||
     ! diff -q "$work/solo-calibration.md" "$work/calibration-j1/beta_x0.60.md"; then
    echo "fleet: standalone --cell rerun diverged from in-fleet per-cell file" >&2
    rm -rf "$work"
    return 1
  fi
  rm -rf "$work"
  echo "fleet: sweeps byte-identical at --jobs 1/2/8; standalone cells match in-fleet (scale $scale, t24 $t24)"
}

adversary() {
  # The adversarial-scenario presets (DESIGN.md §8): the three grids run at
  # small scale, the sweep reports (and every per-cell file) are
  # byte-identical at --jobs 1 vs 8, a standalone --cell rerun reproduces
  # its in-fleet bytes, --list names every preset, and the JSON rendering
  # carries the clustering scores.
  cmake --build "$ROOT/build" -j "$JOBS" --target cloudwatch_cli
  local cli="$ROOT/build/examples/cloudwatch_cli"
  [ -x "$cli" ] || cli="$ROOT/build/cloudwatch_cli"
  local scale="${CW_CHECK_ADV_SCALE:-0.1}" t24="${CW_CHECK_ADV_T24:-8}"
  local work campaign jobs
  work=$(mktemp -d)
  for campaign in adaptive colocation clustering; do
    if ! "$cli" sweep --list | grep -q "^$campaign "; then
      echo "adversary: sweep --list does not name the $campaign preset" >&2
      rm -rf "$work"
      return 1
    fi
    for jobs in 1 8; do
      "$cli" sweep "$campaign" --scale "$scale" --t24 "$t24" --jobs "$jobs" \
        --cells-dir "$work/$campaign-j$jobs" >"$work/$campaign-j$jobs.md" 2>/dev/null
    done
    if ! diff -q "$work/$campaign-j1.md" "$work/$campaign-j8.md" ||
       ! diff -rq "$work/$campaign-j1" "$work/$campaign-j8"; then
      echo "adversary: $campaign sweep diverged between --jobs 1 and --jobs 8" >&2
      rm -rf "$work"
      return 1
    fi
    if ! compare_golden adversary "sweep-$campaign" "$scale" "$t24" "$work/$campaign-j1.md"; then
      rm -rf "$work"
      return 1
    fi
  done
  # Standalone rerun of the clustering acceptance cell vs its in-fleet file.
  "$cli" sweep clustering --scale "$scale" --t24 "$t24" --jobs 1 \
    --cell "families" >"$work/solo-families.md" 2>/dev/null
  if ! diff -q "$work/solo-families.md" "$work/clustering-j1/families.md"; then
    echo "adversary: standalone --cell families diverged from in-fleet per-cell file" >&2
    rm -rf "$work"
    return 1
  fi
  # The acceptance cell scores purity/ARI 1.0000 at any checked scale, and
  # the JSON rendering must carry the cluster scores for CI artifacts.
  if ! grep -q "purity 1.0000, ARI 1.0000" "$work/clustering-j1/families.md"; then
    echo "adversary: families cell lost its purity/ARI 1.0 clustering score" >&2
    rm -rf "$work"
    return 1
  fi
  "$cli" sweep clustering --scale "$scale" --t24 "$t24" --jobs 8 \
    --format json >"$work/clustering.json" 2>/dev/null
  if ! grep -q '"purity":' "$work/clustering.json" ||
     ! grep -q '"assignment_fnv":' "$work/clustering.json"; then
    echo "adversary: sweep --format json is missing the cluster scores" >&2
    rm -rf "$work"
    return 1
  fi
  rm -rf "$work"
  echo "adversary: presets byte-identical at --jobs 1/8; standalone cell matches in-fleet;" \
       "clustering scores present in markdown and JSON (scale $scale, t24 $t24)"
}

testids() {
  # A test's ID must be a pure function of the source: two listings of every
  # test binary agree line for line, and no struct parameter prints as raw
  # bytes (gtest's `N-byte object <..>` fallback shows pointers and padding,
  # which move between runs). ctest names append the printed value, so a
  # struct parameter needs a PrintTo and a name generator. A one-byte enum's
  # `1-byte object <XX>` is its value, and stays: giving the enums a PrintTo
  # would rename every ctest of those suites.
  cmake --build "$ROOT/build" -j "$JOBS"
  local work binary
  work=$(mktemp -d)
  for binary in "$ROOT"/build/tests/cw_*_test; do
    "$binary" --gtest_list_tests >>"$work/first.txt"
    "$binary" --gtest_list_tests >>"$work/second.txt"
  done
  if ! diff -q "$work/first.txt" "$work/second.txt" >/dev/null; then
    echo "testids: two listings of the same test binaries differ:" >&2
    diff "$work/first.txt" "$work/second.txt" >&2 || true
    rm -rf "$work"
    return 1
  fi
  if grep -n "object <" "$work/first.txt" |
      grep -v "  # GetParam() = 1-byte object <[0-9A-F][0-9A-F]>\$" >&2; then
    echo "testids: the listing above prints raw parameter bytes (add a PrintTo)" >&2
    rm -rf "$work"
    return 1
  fi
  echo "testids: $(grep -c '^  ' "$work/first.txt") test IDs stable across two listings"
  rm -rf "$work"
}

reach() {
  # Dead-code gate: rebuild the three shipped binaries unoptimized with one
  # section per function and --gc-sections, so the linker keeps exactly the
  # functions something reaches. Every global text symbol of a libcw_*.a
  # that none of them kept must be listed, with a reason, in
  # scripts/reach_allow.txt; a listed symbol that is reached again (or no
  # longer exists) fails too, so the list only shrinks.
  local build="$ROOT/build-reach" allow="$ROOT/scripts/reach_allow.txt"
  cmake -B "$build" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
  cmake --build "$build" -j "$JOBS" --target full_report cloudwatch_cli live_report >/dev/null
  local work lib bin
  work=$(mktemp -d)
  for lib in "$build"/src/*/libcw_*.a; do
    nm --defined-only -g "$lib" | awk '$2 == "T" { print $3 }'
  done | sort -u >"$work/defined"
  for bin in full_report cloudwatch_cli live_report; do
    nm --defined-only "$build/examples/$bin" | awk '{ print $3 }'
  done | sort -u >"$work/kept"
  comm -23 "$work/defined" "$work/kept" | c++filt | sort -u >"$work/unreached"
  grep -v '^#' "$allow" | grep -v '^$' | sed 's/  # .*//' | sort -u >"$work/allowed"
  local status=0
  if comm -23 "$work/unreached" "$work/allowed" | grep . >"$work/new"; then
    echo "reach: unreachable from full_report, cloudwatch_cli and live_report, not in" \
         "scripts/reach_allow.txt:" >&2
    sed 's/^/  /' "$work/new" >&2
    status=1
  fi
  if comm -13 "$work/unreached" "$work/allowed" | grep . >"$work/stale"; then
    echo "reach: allowlisted but reachable again or gone (delete the lines):" >&2
    sed 's/^/  /' "$work/stale" >&2
    status=1
  fi
  [ "$status" -eq 0 ] &&
    echo "reach: $(wc -l <"$work/unreached") library functions unreached by the shipped" \
         "binaries, all allowlisted"
  rm -rf "$work"
  return "$status"
}

stress() {
  # Fleet harness at width: CW_CHECK_STRESS_CELLS independent engines (default
  # 1000) through one pool. Passes when (a) both sweeps finish inside the
  # deadline — a scheduling deadlock or a group that never releases the pool
  # trips `timeout`; (b) memory stays under the cap — per-group teardown
  # must keep the high-water at the concurrent group set, not the whole
  # campaign; (c) the sweep reports at --jobs 2 and --jobs 8 are
  # byte-identical.
  cmake --build "$ROOT/build" -j "$JOBS" --target cloudwatch_cli
  local cli="$ROOT/build/examples/cloudwatch_cli"
  [ -x "$cli" ] || cli="$ROOT/build/cloudwatch_cli"
  local cells="${CW_CHECK_STRESS_CELLS:-1000}"
  local scale="${CW_CHECK_STRESS_SCALE:-0.02}" t24="${CW_CHECK_STRESS_T24:-1}"
  local deadline="${CW_CHECK_STRESS_DEADLINE:-900}"   # seconds per sweep
  local mem_limit_kb="${CW_CHECK_STRESS_MEM_KB:-2097152}"  # 2 GiB address space
  local work jobs
  work=$(mktemp -d)
  for jobs in 2 8; do
    # ulimit -v caps the address space: a fleet whose memory high-water
    # tracks the campaign instead of the concurrent group set dies on a
    # failed allocation here rather than passing on a big machine.
    if ! timeout "$deadline" bash -c "ulimit -v $mem_limit_kb; exec \"$cli\" \
        sweep stress --cells $cells --scale $scale --t24 $t24 \
        --jobs $jobs" >"$work/stress-j$jobs.md" 2>/dev/null; then
      echo "stress: sweep --jobs $jobs failed, exceeded ${deadline}s (deadlock?)," \
           "or blew the ${mem_limit_kb}kB memory cap" >&2
      rm -rf "$work"
      return 1
    fi
  done
  if ! diff -q "$work/stress-j2.md" "$work/stress-j8.md"; then
    echo "stress: sweep report diverged between --jobs 2 and --jobs 8" >&2
    rm -rf "$work"
    return 1
  fi
  rm -rf "$work"
  echo "stress: $cells engines byte-identical at --jobs 2/8, memory bounded (scale $scale, t24 $t24)"
}

coldstore() {
  # The out-of-core contract, end to end. Two halves:
  #
  # (a) Byte-identity grid: a spilled live report — segments beyond the hot
  #     set demoted to mmap-backed cold files — renders exactly the batch
  #     bytes at every hot-set size and worker count, and reproduces the
  #     recorded golden hash at the reference scale. Tiering must be
  #     invisible in the output or it fails here.
  # (b) Memory high-water: a sweep cell whose resident footprint exceeds a
  #     hard `ulimit -v` cap must die resident and complete under the same
  #     cap with --spill-dir — byte-identical to the uncapped resident
  #     render. Cold segments must genuinely leave the address space
  #     (munmap, not madvise) for this to pass.
  cmake --build "$ROOT/build" -j "$JOBS" --target full_report live_report cloudwatch_cli
  local batch="$ROOT/build/examples/full_report"
  [ -x "$batch" ] || batch="$ROOT/build/full_report"
  local live="$ROOT/build/examples/live_report"
  [ -x "$live" ] || live="$ROOT/build/live_report"
  local cli="$ROOT/build/examples/cloudwatch_cli"
  [ -x "$cli" ] || cli="$ROOT/build/cloudwatch_cli"
  local scale="${CW_CHECK_SCALE:-0.3}" t24="${CW_CHECK_T24:-16}"
  local work
  work=$(mktemp -d)
  "$batch" --jobs 1 "$scale" "$t24" >"$work/batch.md" 2>/dev/null

  local hot jobs
  for hot in 0 1 all; do
    for jobs in 1 8; do
      rm -rf "$work/spill"
      "$live" --final-only --epochs 4 --shards 4 --jobs "$jobs" \
        --spill-dir "$work/spill" --hot-segments "$hot" "$scale" "$t24" \
        >"$work/live.md" 2>/dev/null
      if ! diff -q "$work/batch.md" "$work/live.md"; then
        echo "coldstore: spilled live report diverged from batch at" \
             "--hot-segments $hot --jobs $jobs" >&2
        rm -rf "$work"
        return 1
      fi
    done
  done
  if ! compare_golden coldstore report "$scale" "$t24" "$work/live.md"; then
    rm -rf "$work"
    return 1
  fi
  echo "coldstore: spilled live == batch at --hot-segments 0/1/all x --jobs 1/8 (scale $scale, t24 $t24)"

  # (b) The cap demonstration. At the default configuration the resident
  # cell peaks ~1.5 GiB of address space and the spilled run ~0.65 GiB
  # (measured on the reference container), so the 1 GiB cap cleanly
  # separates them on both sides.
  local cap_kb="${CW_CHECK_COLD_MEM_KB:-1048576}"
  local cap_scale="${CW_CHECK_COLD_SCALE:-4.5}" cap_t24="${CW_CHECK_COLD_T24:-16}"
  local cap_cell="${CW_CHECK_COLD_CELL:-beta/x0.60}"
  local cap_epochs="${CW_CHECK_COLD_EPOCHS:-12}"
  "$cli" sweep calibration --cell "$cap_cell" --scale "$cap_scale" --t24 "$cap_t24" \
    --jobs 2 >"$work/uncapped.md" 2>/dev/null
  # Subshell so the expected SIGABRT's job-control notice stays quiet.
  if (bash -c "ulimit -v $cap_kb; exec \"$cli\" sweep calibration --cell \"$cap_cell\" \
      --scale $cap_scale --t24 $cap_t24 --jobs 2" >/dev/null 2>&1) 2>/dev/null; then
    echo "coldstore: resident cell fit under the ${cap_kb}kB cap —" \
         "raise CW_CHECK_COLD_SCALE so the cap demonstration discriminates" >&2
    rm -rf "$work"
    return 1
  fi
  rm -rf "$work/spill"
  if ! bash -c "ulimit -v $cap_kb; exec \"$cli\" sweep calibration --cell \"$cap_cell\" \
      --scale $cap_scale --t24 $cap_t24 --jobs 2 --spill-dir \"$work/spill\" \
      --hot-segments 1 --epochs $cap_epochs --shards 4" >"$work/capped.md" 2>/dev/null; then
    echo "coldstore: spilled cell still blew the ${cap_kb}kB cap" >&2
    rm -rf "$work"
    return 1
  fi
  if ! diff -q "$work/uncapped.md" "$work/capped.md"; then
    echo "coldstore: capped spilled render diverged from the uncapped resident render" >&2
    rm -rf "$work"
    return 1
  fi
  rm -rf "$work"
  echo "coldstore: resident dies at ${cap_kb}kB, spilled completes byte-identical" \
       "(cell $cap_cell, scale $cap_scale, t24 $cap_t24)"
}

case "${1:-tier1}" in
  tier1) tier1 ;;
  asan) asan ;;
  tsan) tsan ;;
  determinism) determinism ;;
  stream) stream ;;
  serve) serve ;;
  bench) bench ;;
  fleet) fleet ;;
  adversary) adversary ;;
  stress) stress ;;
  coldstore) coldstore ;;
  golden) golden "${2:-}" "${3:-}" ;;
  testids) testids ;;
  reach) reach ;;
  all) tier1; asan; tsan; determinism; stream; serve; fleet; adversary; coldstore; testids; reach ;;
  *) echo "usage: scripts/check.sh [tier1|asan|tsan|determinism|stream|serve|bench|fleet|adversary|stress|coldstore|golden [NAME [BIN_DIR]]|testids|reach|all]" >&2; exit 2 ;;
esac
