#!/usr/bin/env bash
# Tier-1 verification matrix: Debug + Release, warnings as errors, tests
# labeled tier1 (benches build but are excluded from the gate); the
# Release leg also compiles the perfbench/ end-to-end driver.
# Mirrors .github/workflows/ci.yml so the gate is reproducible locally.
#
# Sanitizer mode (one configuration instead of the matrix):
#   ./ci.sh --sanitize=asan   # AddressSanitizer + UBSan
#   ./ci.sh --sanitize=tsan   # ThreadSanitizer (the shard-parallel
#                             # supersteps and the streaming service's
#                             # producer/ingestion threads must be clean;
#                             # the Pregel engine is single-threaded)
#
# Cross-process mode (one Release configuration):
#   ./ci.sh --mode=multiprocess
# Builds Release, runs the dist-subsystem tests (wire format, transport,
# chunked streaming, multi-process invariance and crash paths), then
# smoke-tests `partition_tool --transport=multiprocess --workers=3` and
# diffs its assignment byte-for-byte against the in-process run — the
# execution mode must never change the partitioning.
#
# Wire-stress mode (one Release configuration):
#   ./ci.sh --mode=wire-stress
# The multiprocess lane with the transport's frame payload ceiling forced
# to 4 KiB (SPINNER_WIRE_MAX_PAYLOAD + --wire-max-payload): every Setup
# slice download, label transfer and snapshot upload exceeds one frame, so
# the chunk split/reassembly paths execute end-to-end on every push and
# the result must still be byte-identical to in-process.
#
# TCP mode (one Release configuration):
#   ./ci.sh --mode=tcp
# Builds Release, runs the TCP/registry/shard-store/execution-options
# tests, then the docs/DISTRIBUTED.md walkthrough: a coordinator plus 3
# dial-in `partition_tool worker` processes over 127.0.0.1 sharing one
# persistent shard store root, diffed byte-for-byte against the
# in-process run — twice, so the second run exercises the Assign/Resume
# zero-download restart path against the populated store. Every Put
# replaces a shard's file (tmp + rename, a new inode), so an unchanged
# inode list across the second run proves nothing was downloaded.
#
# Chaos mode (one ASan Release configuration):
#   ./ci.sh --mode=chaos
# Builds RelWithDebInfo with AddressSanitizer + UBSan, runs the
# failure-recovery, fault-injection, LPA-kernel, ShardWorker protocol and
# chunked graph-setup differential tests, then the failover smoke: a coordinator with
# recovery armed drives 3 dial-in workers, one of which kills itself
# mid-superstep (`worker --fail-after-scores`), under a benign
# SPINNER_FAULT_PLAN of frame delays — the run must survive the failover
# and stay byte-identical to the in-process assignment (delays and
# recovery preserve bytes by construction; docs/DISTRIBUTED.md).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

SANITIZE=""
MODE=""
for arg in "$@"; do
  case "${arg}" in
    --sanitize=asan) SANITIZE="address" ;;
    --sanitize=tsan) SANITIZE="thread" ;;
    --sanitize=*)
      echo "ci.sh: unknown sanitizer '${arg#--sanitize=}' (asan|tsan)" >&2
      exit 2
      ;;
    --mode=multiprocess) MODE="multiprocess" ;;
    --mode=wire-stress) MODE="wire-stress" ;;
    --mode=tcp) MODE="tcp" ;;
    --mode=chaos) MODE="chaos" ;;
    --mode=*)
      echo "ci.sh: unknown mode '${arg#--mode=}'" \
        "(multiprocess|wire-stress|tcp|chaos)" >&2
      exit 2
      ;;
    *)
      echo "ci.sh: unknown argument '${arg}'" >&2
      exit 2
      ;;
  esac
done

if [[ -n "${SANITIZE}" && -n "${MODE}" ]]; then
  # Each selects one whole configuration; silently ignoring one of the
  # two would run something other than what was asked for.
  echo "ci.sh: --sanitize and --mode are mutually exclusive" >&2
  exit 2
fi

if [[ "${MODE}" == "chaos" ]]; then
  # Recovery code paths (deadlines, fleet rebuild, state replay, the
  # fault proxy's pump threads) under AddressSanitizer: a failover that
  # leaks endpoints or races the proxies fails here loudly. The shard
  # slice and shard-store decoders run here too, fed cut and flipped
  # bytes (HostileBytes), the LPA kernel's differential tests
  # (LpaKernel), whose k = 64/65 cases put the presence bitmap's word
  # boundary under UBSan's shift check and whose k = 256/257 cases run
  # both label widths, and the hand-driven worker protocol tests
  # (ShardWorker), which feed Setup, Init and Labels out-of-range input,
  # and the graph-setup differential tests (SetupDifferential,
  # ParserCorpus), whose forced chunk counts run the chunked parser,
  # Symmetrize and store build on transient threads over cut lines,
  # skipped lines and hub buckets.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  build_dir="build-ci-chaos"
  echo "=== RelWithDebInfo (-Werror, -fsanitize=address, chaos lane) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPINNER_WERROR=ON \
    -DSPINNER_SANITIZE=address
  cmake --build "${build_dir}" -j "${JOBS}"

  echo "=== recovery, fault-injection, hostile-bytes, kernel, worker and setup tests (ASan) ==="
  ctest --test-dir "${build_dir}" \
    -R '^(Recovery|FaultPlan|Tcp|MultiProcess|HostileBytes|LpaKernel|ShardWorker|SetupDifferential|ParserCorpus)' \
    --output-on-failure -j "${JOBS}"

  echo "=== failover smoke: 3 workers, one dies mid-superstep ==="
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  listen="127.0.0.1:17078"
  "./${build_dir}/partition_tool" generate \
    --out="${smoke_dir}/edges.txt" --vertices=5000 --seed=7
  "./${build_dir}/partition_tool" partition \
    --input="${smoke_dir}/edges.txt" --k=16 --seed=11 \
    --out="${smoke_dir}/in_process.txt"
  # Workers 0 and 1 are healthy; worker 2 kills itself (_exit(3)) while
  # handling its 3rd score superstep — mid-run, after the fleet is fully
  # assigned. With --recover the coordinator must absorb its shards onto
  # the survivors and finish. The fault plan adds deterministic frame
  # delays on every connection: bytes are preserved, so the assignment
  # must STILL be byte-identical to the in-process run.
  "./${build_dir}/partition_tool" worker \
    --connect="${listen}" --store="${smoke_dir}/store0" &
  worker0="$!"
  "./${build_dir}/partition_tool" worker \
    --connect="${listen}" --store="${smoke_dir}/store1" &
  worker1="$!"
  "./${build_dir}/partition_tool" worker \
    --connect="${listen}" --fail-after-scores=2 &
  doomed="$!"
  SPINNER_FAULT_PLAN="seed=7;delay:p=0.15:ms=2" \
    "./${build_dir}/partition_tool" partition \
    --input="${smoke_dir}/edges.txt" --k=16 --seed=11 --shards=6 \
    --transport=tcp --listen="${listen}" --workers=3 \
    --recover=2 --rpc-timeout-ms=4000 --heartbeat-ms=50 \
    --out="${smoke_dir}/chaos.txt"
  wait "${worker0}" "${worker1}"
  # The doomed worker's _exit(3) is the expected crash, not a lane error.
  doomed_rc=0
  wait "${doomed}" || doomed_rc="$?"
  if [[ "${doomed_rc}" -ne 3 ]]; then
    echo "ci.sh: doomed worker exited ${doomed_rc}, expected 3" >&2
    exit 1
  fi
  cmp "${smoke_dir}/in_process.txt" "${smoke_dir}/chaos.txt"
  echo "ci.sh: run survived a mid-superstep worker loss under frame" \
    "delays, assignment byte-identical to in-process"
  exit 0
fi

if [[ -n "${MODE}" ]]; then
  build_dir="build-ci-${MODE}"
  wire_flags=()
  if [[ "${MODE}" == "wire-stress" ]]; then
    # Force every whole-graph message across many 4 KiB frames: the env
    # var covers the ctest processes, the explicit flag additionally
    # exercises the config/CLI plumbing in the smoke run.
    export SPINNER_WIRE_MAX_PAYLOAD=4096
    wire_flags=(--wire-max-payload=4096)
  fi
  echo "=== Release (-Werror, ${MODE} lane) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DSPINNER_WERROR=ON
  cmake --build "${build_dir}" -j "${JOBS}"

  if [[ "${MODE}" == "tcp" ]]; then
    echo "=== TCP-subsystem tests ==="
    ctest --test-dir "${build_dir}" \
      -R '^(Tcp|PersistentShardStore|BaseLog|WorkerLayout|ExecutionOptions|WireFormat|Transport)' \
      --output-on-failure -j "${JOBS}"

    echo "=== coordinator + 3 dial-in workers smoke (byte-for-byte diff) ==="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "${smoke_dir}"' EXIT
    listen="127.0.0.1:17077"
    "./${build_dir}/partition_tool" generate \
      --out="${smoke_dir}/edges.txt" --vertices=5000 --seed=7
    "./${build_dir}/partition_tool" partition \
      --input="${smoke_dir}/edges.txt" --k=16 --seed=11 \
      --out="${smoke_dir}/in_process.txt"
    # Run the TCP fleet twice against one shared store root: the first
    # run populates the shard_<id>.base files, the second must resume
    # from them (Assign/Resume fingerprints match -> empty Setups, zero
    # download). The root is shared because shard ranges follow the
    # registry's accept order: a worker with a private root may be handed
    # a range it never held.
    store_dir="${smoke_dir}/store"
    for round in 1 2; do
      worker_pids=()
      for w in 0 1 2; do
        "./${build_dir}/partition_tool" worker \
          --connect="${listen}" --store="${store_dir}" &
        worker_pids+=("$!")
      done
      # --shards=6 pins the shard count so every worker owns >= 1 shard
      # on any runner (the shard count never changes the assignment).
      "./${build_dir}/partition_tool" partition \
        --input="${smoke_dir}/edges.txt" --k=16 --seed=11 --shards=6 \
        --transport=tcp --listen="${listen}" --workers=3 \
        --out="${smoke_dir}/tcp_round${round}.txt"
      wait "${worker_pids[@]}"
      cmp "${smoke_dir}/in_process.txt" "${smoke_dir}/tcp_round${round}.txt"
      # Name and inode of every hosted slice; round 2 must leave them all
      # in place (a downloaded slice would be a renamed-in new file).
      stat -c '%n %i' "${store_dir}"/shard_*.base \
        > "${smoke_dir}/inodes_round${round}.txt"
    done
    if [[ "$(wc -l < "${smoke_dir}/inodes_round1.txt")" -ne 6 ]]; then
      echo "ci.sh: round 1 left $(wc -l < "${smoke_dir}/inodes_round1.txt")" \
        "shard files, expected 6" >&2
      exit 1
    fi
    if ! diff "${smoke_dir}/inodes_round1.txt" \
        "${smoke_dir}/inodes_round2.txt"; then
      echo "ci.sh: round 2 rewrote shard files: it downloaded slices" >&2
      exit 1
    fi
    echo "ci.sh: tcp assignment is byte-identical to in-process," \
      "restart resumed from the persistent store with zero download"
    exit 0
  fi

  echo "=== dist-subsystem tests ==="
  ctest --test-dir "${build_dir}" \
    -R '^(WireFormat|Transport|MultiProcess)' \
    --output-on-failure -j "${JOBS}"

  echo "=== partition_tool --transport=multiprocess --workers=3 smoke" \
    "(byte-for-byte diff) ==="
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  # 5000 vertices: the label array alone is ~20 KiB and each shard slice
  # far larger, so under wire-stress every transfer needs several chunks.
  "./${build_dir}/partition_tool" generate \
    --out="${smoke_dir}/edges.txt" --vertices=5000 --seed=7
  "./${build_dir}/partition_tool" partition \
    --input="${smoke_dir}/edges.txt" --k=16 --seed=11 \
    --out="${smoke_dir}/in_process.txt"
  "./${build_dir}/partition_tool" partition \
    --input="${smoke_dir}/edges.txt" --k=16 --seed=11 \
    --transport=multiprocess --workers=3 \
    ${wire_flags[@]+"${wire_flags[@]}"} \
    --out="${smoke_dir}/multi_process.txt"
  cmp "${smoke_dir}/in_process.txt" "${smoke_dir}/multi_process.txt"
  echo "ci.sh: ${MODE} assignment is byte-identical to in-process"
  exit 0
fi

if [[ -n "${SANITIZE}" ]]; then
  # RelWithDebInfo keeps sanitized tier1 runs fast while preserving
  # symbolized reports; halt on the first finding so CI fails loudly.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  build_dir="build-ci-${SANITIZE}"
  echo "=== RelWithDebInfo (-Werror, -fsanitize=${SANITIZE}) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPINNER_WERROR=ON \
    -DSPINNER_SANITIZE="${SANITIZE}"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" -L tier1 --output-on-failure -j "${JOBS}"
  echo "ci.sh: ${SANITIZE}-sanitized configuration passed"
  exit 0
fi

for build_type in Debug Release; do
  build_dir="build-ci-${build_type,,}"
  echo "=== ${build_type} (-Werror) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DSPINNER_WERROR=ON
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" -L tier1 --output-on-failure -j "${JOBS}"
  if [[ "${build_type}" == "Release" ]]; then
    # Compile (not run) the end-to-end benchmark driver, so a library
    # API change that breaks it fails here rather than when it runs.
    echo "=== perfbench spinner_e2e (compile only) ==="
    cmake -S perfbench -B build-ci-perfbench
    cmake --build build-ci-perfbench --target spinner_e2e -j "${JOBS}"
  fi
done

echo "ci.sh: all configurations passed"
# The size every change reports: lines in src/'s .h and .cc files.
src_lines="$(find src \( -name '*.h' -o -name '*.cc' \) -exec cat {} + | wc -l)"
echo "ci.sh: src/ holds ${src_lines} lines of .h/.cc"
