#!/bin/bash
# Regenerates test_output.txt and bench_output.txt (the paper-reproduction
# evidence files). Runs every bench binary with default arguments.
#
# With --tsan (or LOOPPOINT_TSAN=1) the tier-1 test suite is first
# built and run under ThreadSanitizer (-DLOOPPOINT_SANITIZE=thread in
# build-tsan/) to validate the work-stealing thread pool and the
# host-parallel phases; the regular suite and benches then run from
# the unsanitized build as usual.
#
# With --ubsan the tier-1 suite is built and run under
# UndefinedBehaviorSanitizer (-DLOOPPOINT_SANITIZE=undefined,
# -fno-sanitize-recover so any finding is a hard failure) in
# build-ubsan/, then the lint + race-check analyses are exercised
# end-to-end on the demo workload.
#
# With --tidy the clang-tidy checks from .clang-tidy are run over
# src/ and tools/ using the compile_commands.json of a fresh
# build-tidy/ configure. Skipped with a notice when clang-tidy is not
# installed.
#
# With --bench-smoke only the hot-path microbenchmark is built (Release,
# build-rel/) and run on the small test input, and the emitted
# BENCH_hotpath.json is validated for well-formedness — a fast CI gate
# that the measurement harness itself still works.
#
# With --obs-smoke the observability layer is exercised end to end: a
# short traced pipeline run emits a Chrome-trace JSON + metrics JSON
# that lp_report --check validates, then micro_hotpath (Release,
# build-rel/, obs disabled) is compared against the committed
# BENCH_hotpath.json baseline to assert the disabled-obs overhead
# stays within 2%.
#
# With --jobs-smoke lbm train's results at -j 1, -j 3 and -j 4
# (baseline and prefetch) are diffed bit-exact across host worker and
# warming partition counts, and the partition count each run reports
# is checked; a cold roms train at -j 2 and -j 4 (pipelined analysis)
# is diffed against -j 1 (inline analysis).
#
# With --store-smoke the artifact store is exercised end to end: a
# cold run populates the store, a small-rob run must be served from its
# region warm checkpoints (no warming pass) with output equal to a
# store-less run while big-l2 misses the warm stage, a warm re-run must
# be served with zero misses and bit-identical output at -j 4 and
# -j 1, a corrupted object must be evicted and transparently recomputed, and a
# two-point lp_campaign must reuse the analysis prefix and skip
# completed jobs on re-invocation.
#
# With --campaign-smoke the campaign supervisor is exercised end to
# end: a small matrix runs with injected job faults (crash, wedge,
# corrupt-result), the supervisor is SIGTERM'd mid-campaign with a job
# wedged, and a restart must finish the sweep with exactly-once
# accounting (one ok per job in the journal) and a campaign.json
# byte-identical to an uninterrupted reference run; a watermark-GC
# pass over the shared store must fire without evicting live objects.
#
# With --analysis-smoke the analysis suite is exercised end to end:
# the full pass set (lint + race + lockset/deadlock + audit) runs over
# every bundled workload and must report zero warning/error findings,
# then a store + journal fixture is deliberately corrupted and the
# audit must flag exactly the injected defects.
#
# With --e2e-smoke every BENCHMARK.json workload runs once through
# e2ebench/run.py with --seconds 0: untraced at workload seeds 42 and
# 7, plus one traced run. Each result must report correct: true (its
# output fingerprints match e2ebench/expected.txt) and failed: 0.
# Outputs only; there is no timing gate.
#
# With --faults the fault-tolerance layer is exercised under
# AddressSanitizer (-DLOOPPOINT_SANITIZE=address in build-asan/): the
# corruption/journal/fault-injection test subset runs first, then
# run_looppoint is driven end to end through the degraded-run +
# journal-resume scenario with its exit-code contract checked at each
# step (0 clean, 1 degraded, 3 injected crash).
cd "$(dirname "$0")"

if [ "$1" = "--faults" ]; then
    echo "== fault-tolerance suite under AddressSanitizer (build-asan) =="
    cmake -B build-asan -S . -DLOOPPOINT_SANITIZE=address \
        -DLOOPPOINT_WERROR=ON || exit 1
    cmake --build build-asan -j || exit 1
    ctest --test-dir build-asan --output-on-failure -R \
        'Checksum|FaultPlan|ArtifactIntegrity|HostileInput|LegacyFormat|NoFatalGuard|RunKeyCodec|Journal|FaultPipeline|Sha1|Fingerprint|ArtifactStore|StageKeys|StorePipeline' \
        2>&1 | tee faults_output.txt
    [ "${PIPESTATUS[0]}" = 0 ] || exit 1

    echo "== CLI end to end: degraded run, crash, bit-identical resume =="
    lp=build-asan/tools/run_looppoint
    common="-p spec-roms-1 -i train --no-fullsim -j 4"
    journal=$(mktemp -u /tmp/lp_faults.XXXXXX.journal)
    out=/tmp/lp_faults
    # shellcheck disable=SC2086
    {
        $lp $common > "$out.clean.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "faults FAIL: clean run exited $rc (want 0)"; exit 1; }

        $lp $common --journal="$journal" \
            --inject-fault='sim:region=3,kind=throw;sim:region=7,kind=diverge' \
            > "$out.degraded.txt"
        rc=$?
        [ $rc -eq 1 ] || { echo "faults FAIL: degraded run exited $rc (want 1)"; exit 1; }
        grep -q 'coverage       : 0\.' "$out.degraded.txt" || {
            echo "faults FAIL: degraded run did not report reduced coverage"; exit 1; }

        $lp $common --inject-fault='sim:region=5,kind=kill' \
            --journal="$journal.kill" > "$out.killed.txt" 2>&1
        rc=$?
        [ $rc -eq 3 ] || { echo "faults FAIL: killed run exited $rc (want 3)"; exit 1; }

        $lp $common --region-retries=1 \
            --inject-fault='sim:region=3,kind=throw,times=1' > "$out.retried.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "faults FAIL: retried run exited $rc (want 0)"; exit 1; }
        grep -q 'coverage       : 1\.0000' "$out.retried.txt" || {
            echo "faults FAIL: retry did not restore full coverage"; exit 1; }

        $lp $common --resume="$journal" > "$out.resumed.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "faults FAIL: resumed run exited $rc (want 0)"; exit 1; }
        grep -q 'region(s) reused' "$out.resumed.txt" || {
            echo "faults FAIL: resumed run reused nothing from the journal"; exit 1; }
        # Bit-identical modulo the journal line and host wall-clock times.
        if ! diff <(grep -vE '^(journal|host-parallel)' "$out.clean.txt") \
                  <(grep -vE '^(journal|host-parallel)' "$out.resumed.txt"); then
            echo "faults FAIL: resumed output differs from the clean run"; exit 1
        fi

        $lp $common --inject-fault='sim:region=bogus' > /dev/null 2>&1
        rc=$?
        [ $rc -eq 2 ] || { echo "faults FAIL: malformed fault spec exited $rc (want 2)"; exit 1; }
    } || exit 1
    rm -f "$journal" "$journal.kill"
    echo "faults OK"
    exit 0
fi

if [ "$1" = "--e2e-smoke" ]; then
    echo "== e2e smoke: every benchmark workload, fingerprints only =="
    workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') || exit 1
    out=$(mktemp /tmp/lp_e2e_smoke.XXXXXX)
    for w in $workloads; do
        for run in "--trace 0 --workload-seed 42" "--trace 0 --workload-seed 7" \
                   "--trace 1 --workload-seed 42"; do
            echo "-- $w $run"
            # shellcheck disable=SC2086
            python3 e2ebench/run.py --workload "$w" --seconds 0 $run > "$out" || {
                tail -n 20 "$out"
                echo "e2e-smoke FAIL: $w ($run) exited nonzero"; exit 1; }
            python3 - "$out" <<'PYEOF' || { echo "e2e-smoke FAIL: $w ($run)"; exit 1; }
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
result = json.loads(last)
print("correct=%s attempted=%s failed=%s" % (
    result["correct"], result["attempted"], result["failed"]))
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
PYEOF
        done
    done
    rm -f "$out"
    echo "e2e-smoke OK"
    exit 0
fi

if [ "$1" = "--jobs-smoke" ]; then
    echo "== jobs smoke: lbm and roms train bit-exact across -j, partitions and analysis pipelining =="
    cmake -B build -S . || exit 1
    cmake --build build -j --target run_looppoint || exit 1
    lp=build/tools/run_looppoint
    out=/tmp/lp_jobs
    # shellcheck disable=SC2086
    {
        # Set-partitioned warming: lbm train's checkpoints, and so every
        # simulated number, must not depend on the partition count
        # (-j 3 and -j 4 split the cache work; -j 1 and the prefetch
        # preset warm inline). The header line names the jobs count.
        lbm="-p spec-lbm-1 -i train -n 4 --no-fullsim"
        filter='^(====|journal|host-parallel|actual speedup)'
        for uarch in baseline prefetch; do
            for j in 1 3 4; do
                $lp $lbm --uarch=$uarch -j $j > "$out.lbm.$uarch.j$j.txt"
                rc=$?
                [ $rc -eq 0 ] || { echo "jobs-smoke FAIL: lbm $uarch -j $j exited $rc (want 0)"; exit 1; }
            done
            for j in 3 4; do
                if ! diff <(grep -vE "$filter" "$out.lbm.$uarch.j1.txt") \
                          <(grep -vE "$filter" "$out.lbm.$uarch.j$j.txt"); then
                    echo "jobs-smoke FAIL: lbm $uarch -j $j differs from -j 1"; exit 1
                fi
            done
        done
        # Pipelined analysis: a cold analysis at -j > 1 records on a
        # helper thread and feeds the DCFG builder and the slice
        # profiler through a block pipe; roms train's slices, regions
        # and every simulated number must equal the inline -j 1 run's.
        roms="-p spec-roms-1 -i train -n 4 --no-fullsim"
        for j in 1 2 4; do
            $lp $roms -j $j > "$out.roms.j$j.txt"
            rc=$?
            [ $rc -eq 0 ] || { echo "jobs-smoke FAIL: roms -j $j exited $rc (want 0)"; exit 1; }
        done
        for j in 2 4; do
            if ! diff <(grep -vE "$filter" "$out.roms.j1.txt") \
                      <(grep -vE "$filter" "$out.roms.j$j.txt"); then
                echo "jobs-smoke FAIL: roms -j $j differs from -j 1"; exit 1
            fi
        done
        grep -q '4 jobs, 4 warm partition(s)' "$out.lbm.baseline.j4.txt" || {
            echo "jobs-smoke FAIL: lbm baseline -j 4 did not warm in 4 partitions"; exit 1; }
        grep -q '4 jobs, 1 warm partition(s)' "$out.lbm.prefetch.j4.txt" || {
            echo "jobs-smoke FAIL: lbm prefetch -j 4 did not warm inline"; exit 1; }
    } || exit 1
    rm -f "$out".*.txt
    echo "jobs-smoke OK"
    exit 0
fi

if [ "$1" = "--store-smoke" ]; then
    echo "== store smoke: cold populate, warm zero-recompute =="
    cmake -B build -S . || exit 1
    cmake --build build -j --target run_looppoint lp_store_tool \
        lp_campaign_tool lp_report lp_tests || exit 1
    lp=build/tools/run_looppoint
    common="-p spec-roms-1 -i train -j 4"
    store=$(mktemp -d /tmp/lp_store_smoke.XXXXXX)
    out=/tmp/lp_store_smoke
    # Lines that legitimately differ between runs: host wall-clock,
    # store hit accounting, and the eviction notice of the corruption
    # scenario. Every simulated number must survive the filter.
    filter='^(journal|host-parallel|actual speedup|store|error: artifact store)'
    # shellcheck disable=SC2086
    {
        $lp $common --store="$store/s" > "$out.cold.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: cold run exited $rc (want 0)"; exit 1; }
        grep -q 'store          : 0 hit(s)' "$out.cold.txt" || {
            echo "store-smoke FAIL: cold run was not a clean miss"; exit 1; }

        echo "== store smoke: sibling uarch points share warm checkpoints =="
        # small-rob differs from baseline only in the core, so it loads
        # the region warm checkpoints the cold run stored and runs no
        # warming pass; its output must equal a store-less run's.
        $lp $common --store="$store/s" --uarch=small-rob > "$out.sibling.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: small-rob run exited $rc (want 0)"; exit 1; }
        grep -qE 'store warm     : [1-9][0-9]* of [0-9]+ region checkpoint\(s\) loaded, 0 published, warming pass skipped' \
            "$out.sibling.txt" || {
            echo "store-smoke FAIL: small-rob did not run from warm checkpoints"; exit 1; }
        $lp $common --uarch=small-rob > "$out.sibling_ref.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: store-less small-rob run exited $rc (want 0)"; exit 1; }
        if ! diff <(grep -vE "$filter" "$out.sibling.txt") \
                  <(grep -vE "$filter" "$out.sibling_ref.txt"); then
            echo "store-smoke FAIL: small-rob from warm checkpoints differs from a store-less run"; exit 1
        fi
        # big-l2 changes the cache geometry: a warm-stage miss.
        $lp $common --store="$store/s" --uarch=big-l2 > "$out.bigl2.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: big-l2 run exited $rc (want 0)"; exit 1; }
        grep -qE 'store warm     : 0 of [0-9]+ region checkpoint\(s\) loaded, [1-9][0-9]* published, warming pass ran' \
            "$out.bigl2.txt" || {
            echo "store-smoke FAIL: big-l2 did not miss the warm stage"; exit 1; }

        $lp $common --store="$store/s" > "$out.warm.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: warm run exited $rc (want 0)"; exit 1; }
        grep -q '0 miss(es), 0 publish(es), 0 failed, 0 corrupt, regions cached, fullsim cached' \
            "$out.warm.txt" || {
            echo "store-smoke FAIL: warm run recomputed something"; exit 1; }
        if ! diff <(grep -vE "$filter" "$out.cold.txt") \
                  <(grep -vE "$filter" "$out.warm.txt"); then
            echo "store-smoke FAIL: warm output differs from cold"; exit 1
        fi

        # The store is host-knob-agnostic: a -j 1 rerun is served
        # from the -j 4-populated store, bit-identically. Its header
        # line names the jobs count, so that one field is blanked.
        $lp $common --store="$store/s" -j 1 > "$out.j1.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: -j 1 run exited $rc (want 0)"; exit 1; }
        grep -q 'regions cached' "$out.j1.txt" || {
            echo "store-smoke FAIL: -j 1 run missed the -j 4-written entries"; exit 1; }
        if ! diff <(grep -vE "$filter" "$out.cold.txt" | sed 's/, [0-9]* jobs) ====$/) ====/') \
                  <(grep -vE "$filter" "$out.j1.txt" | sed 's/, [0-9]* jobs) ====$/) ====/'); then
            echo "store-smoke FAIL: -j 1 output differs from cold"; exit 1
        fi

        echo "== store smoke: corrupt object evicted + recomputed =="
        # The profile artifact: a warm rerun reads it (a warm
        # checkpoint object would only be read by a new uarch point).
        obj=$(build/tools/lp_store ls "$store/s" | awk '$1 == "profile" { print $3; exit }')
        printf 'X' | dd of="$store/s/objects/$obj" bs=1 seek=20 \
            conv=notrunc 2>/dev/null
        build/tools/lp_store verify "$store/s" > /dev/null 2>&1
        [ $? -eq 1 ] || { echo "store-smoke FAIL: verify missed the corruption"; exit 1; }
        $lp $common --store="$store/s" > "$out.heal.txt" 2>&1
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: recovery run exited $rc (want 0)"; exit 1; }
        grep -q 'evicting corrupt object' "$out.heal.txt" || {
            echo "store-smoke FAIL: recovery run did not report the eviction"; exit 1; }
        if ! diff <(grep -vE "$filter" "$out.cold.txt") \
                  <(grep -vE "$filter" "$out.heal.txt"); then
            echo "store-smoke FAIL: recovered output differs from cold"; exit 1
        fi
        build/tools/lp_store verify "$store/s" > /dev/null || {
            echo "store-smoke FAIL: store still corrupt after recovery"; exit 1; }

        echo "== store smoke: two-point campaign, incremental re-run =="
        camp="$store/campaign"
        build/tools/lp_campaign --apps=spec-roms-1 --inputs=train \
            --threads=4 --uarch=baseline,big-l2 --out="$camp" \
            --store="$store/s" > "$out.camp.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: campaign exited $rc (want 0)"; exit 1; }
        [ "$(grep -c '^\[run \]' "$out.camp.txt")" = 2 ] || {
            echo "store-smoke FAIL: campaign did not run 2 jobs"; exit 1; }
        build/tools/lp_campaign --apps=spec-roms-1 --inputs=train \
            --threads=4 --uarch=baseline,big-l2 --out="$camp" \
            --store="$store/s" > "$out.camp2.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "store-smoke FAIL: campaign re-run exited $rc (want 0)"; exit 1; }
        [ "$(grep -c '^\[skip\]' "$out.camp2.txt")" = 2 ] || {
            echo "store-smoke FAIL: campaign re-run did not skip done jobs"; exit 1; }
        build/tools/lp_report --campaign="$camp" > "$out.report.txt" || {
            echo "store-smoke FAIL: lp_report --campaign failed"; exit 1; }
        grep -q 'hit rate' "$out.report.txt" || {
            echo "store-smoke FAIL: campaign report lacks store aggregates"; exit 1; }
    } || exit 1

    echo "== store smoke: store test subset =="
    ctest --test-dir build --output-on-failure -R \
        'Sha1|Checksum|Fingerprint|ArtifactStore|StageKeys|StorePipeline|WarmStage' || exit 1
    rm -rf "$store" "$out".*.txt
    echo "store-smoke OK"
    exit 0
fi

if [ "$1" = "--campaign-smoke" ]; then
    echo "== campaign smoke: supervised matrix, injected job faults =="
    cmake -B build -S . || exit 1
    cmake --build build -j --target lp_campaign_tool lp_report lp_tests || exit 1
    camp=$(mktemp -d /tmp/lp_campaign_smoke.XXXXXX)
    out=/tmp/lp_campaign_smoke
    matrix="--apps=demo-matrix-1 --inputs=test --threads=2,4 \
        --uarch=baseline,big-l2 --no-fullsim \
        --backoff-base=0.05 --backoff-cap=0.2"
    norm() {
        sed -E -e 's/"wallSeconds": [0-9.eE+-]+/"wallSeconds": 0/g' \
               -e 's/"attempts": [0-9]+/"attempts": 0/g' \
               -e 's/"store": "[^"]*"/"store": "STORE"/' "$1"
    }
    # shellcheck disable=SC2086
    {
        # Reference: the same matrix, uninterrupted and fault-free.
        build/tools/lp_campaign $matrix --out="$camp/ref" \
            --store="$camp/ref/store" > "$out.ref.txt"
        rc=$?
        [ $rc -eq 0 ] || { echo "campaign-smoke FAIL: reference run exited $rc (want 0)"; exit 1; }
        [ "$(grep -c '^\[run \]' "$out.ref.txt")" = 4 ] || {
            echo "campaign-smoke FAIL: reference run did not launch 4 jobs"; exit 1; }

        # Supervised run: job 0 crashes once, job 2 publishes a corrupt
        # result once (both must cost one attempt each), and job 3
        # wedges — with the watchdog parked far out, the supervisor is
        # deterministically stuck in job 3 when we interrupt it.
        build/tools/lp_campaign $matrix --out="$camp/sup" \
            --store="$camp/sup/store" --job-timeout=60 --kill-grace=1 \
            --inject-fault='job:index=0,kind=crash,times=1;job:index=2,kind=corrupt-result,times=1;job:index=3,kind=wedge,times=1' \
            > "$out.sup1.txt" 2>&1 &
        suppid=$!
        jnl="$camp/sup/campaign.journal"
        for _ in $(seq 1 300); do
            grep -q 'idx=3 .*event=launch' "$jnl" 2>/dev/null && break
            sleep 0.1
        done
        grep -q 'idx=3 .*event=launch' "$jnl" || {
            echo "campaign-smoke FAIL: job 3 never launched"; exit 1; }
        # First signal drains; the wedged child never finishes, so the
        # second kills it, journals the kill, and flushes state.
        kill -TERM $suppid
        sleep 0.5
        kill -TERM $suppid
        wait $suppid
        rc=$?
        [ $rc -eq 4 ] || { echo "campaign-smoke FAIL: interrupted supervisor exited $rc (want 4)"; exit 1; }
        grep -q 'idx=3 .*event=killed' "$jnl" || {
            echo "campaign-smoke FAIL: the killed wedge was not journaled"; exit 1; }
        [ "$(grep -c 'event=ok' "$jnl")" = 3 ] || {
            echo "campaign-smoke FAIL: jobs 0-2 did not complete before the interrupt"; exit 1; }
        grep -q 'event=fail-transient' "$jnl" || {
            echo "campaign-smoke FAIL: the injected crash was not journaled"; exit 1; }
        grep -q 'event=stale' "$jnl" || {
            echo "campaign-smoke FAIL: the corrupt result was not detected"; exit 1; }

        # Restart (no faults: the journal identity excludes supervision
        # knobs): completed jobs are adopted, job 3 runs exactly once.
        build/tools/lp_campaign $matrix --out="$camp/sup" \
            --store="$camp/sup/store" > "$out.sup2.txt" 2>&1
        rc=$?
        [ $rc -eq 0 ] || { echo "campaign-smoke FAIL: restarted supervisor exited $rc (want 0)"; exit 1; }
        [ "$(grep -c 'complete per journal' "$out.sup2.txt")" = 3 ] || {
            echo "campaign-smoke FAIL: restart did not adopt 3 completed jobs"; exit 1; }
        # Exactly-once: one ok per job across both invocations.
        [ "$(grep -c 'event=ok' "$jnl")" = 4 ] || {
            echo "campaign-smoke FAIL: not exactly one completion per job"; exit 1; }
        for idx in 0 1 2 3; do
            [ "$(grep -c "idx=$idx .*event=ok" "$jnl")" = 1 ] || {
                echo "campaign-smoke FAIL: job $idx completed other than exactly once"; exit 1; }
        done
        # The interrupted-then-resumed campaign summary is byte-stable
        # against the uninterrupted reference (modulo wall-clock and
        # attempt counts, which faults legitimately change).
        if ! diff <(norm "$camp/ref/campaign.json") \
                  <(norm "$camp/sup/campaign.json"); then
            echo "campaign-smoke FAIL: resumed campaign.json differs from reference"; exit 1
        fi
        grep -q '"state": "done"' "$camp/sup/status.json" || {
            echo "campaign-smoke FAIL: status.json did not reach its terminal state"; exit 1; }
        build/tools/lp_report --campaign="$camp/sup" > "$out.report.txt" || {
            echo "campaign-smoke FAIL: lp_report --campaign failed"; exit 1; }
        grep -q 'supervisor (done)' "$out.report.txt" || {
            echo "campaign-smoke FAIL: report did not render the supervisor status"; exit 1; }

        # Watermark GC over the shared reference store: an absurd
        # watermark forces GC before every launch; with the default
        # target only orphans go, so the fresh campaign is still
        # served from the store afterwards.
        echo "== campaign smoke: watermark GC keeps live objects =="
        build/tools/lp_campaign $matrix --out="$camp/gc" \
            --store="$camp/ref/store" \
            --gc-watermark=1152921504606846976 > "$out.gc.txt" 2>&1
        rc=$?
        [ $rc -eq 0 ] || { echo "campaign-smoke FAIL: GC run exited $rc (want 0)"; exit 1; }
        grep -q 'running store gc' "$out.gc.txt" || {
            echo "campaign-smoke FAIL: watermark did not trigger GC"; exit 1; }
        grep -q '"record": true' \
            "$camp/gc/demo-matrix-1-test-t2-baseline/result.json" || {
            echo "campaign-smoke FAIL: GC evicted live store objects"; exit 1; }
    } || exit 1

    echo "== campaign smoke: supervisor test subset =="
    ctest --test-dir build --output-on-failure -R \
        'Supervisor|CampaignJournal|CampaignModel|Backoff|FailureClassify|JobFaults' || exit 1
    rm -rf "$camp" "$out".*.txt
    echo "campaign-smoke OK"
    exit 0
fi

if [ "$1" = "--bench-smoke" ]; then
    echo "== bench smoke: micro_hotpath (build-rel) =="
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release || exit 1
    cmake --build build-rel -j --target micro_hotpath || exit 1
    out=$(mktemp /tmp/bench_smoke.XXXXXX.json)
    timeout 600 build-rel/bench/micro_hotpath \
        --input=test --reps=1 --out="$out" || exit 1
    # Well-formedness: the three pipeline modes with nonzero rates.
    for key in fastforward warmup detailed; do
        grep -q "\"$key\"" "$out" || {
            echo "bench-smoke FAIL: missing mode '$key' in $out"
            exit 1
        }
    done
    if grep -q '"blocks_per_sec": 0\.0' "$out"; then
        echo "bench-smoke FAIL: zero throughput reported in $out"
        exit 1
    fi
    echo "bench-smoke OK: $out"
    exit 0
fi

if [ "$1" = "--obs-smoke" ]; then
    echo "== obs smoke: traced pipeline + lp_report --check =="
    cmake -B build -S . || exit 1
    cmake --build build -j --target run_looppoint lp_report || exit 1
    trace=$(mktemp -u /tmp/obs_smoke.XXXXXX).trace.json
    metrics=${trace%.trace.json}.metrics.json
    build/tools/run_looppoint -p spec-roms-1 -i train --no-fullsim -j 4 \
        --trace="$trace" --metrics="$metrics" > /dev/null || exit 1
    build/tools/lp_report --trace="$trace" --metrics="$metrics" --check || {
        echo "obs-smoke FAIL: lp_report --check found violations"
        exit 1
    }

    echo "== obs smoke: disabled-obs overhead vs BENCH_hotpath.json =="
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release || exit 1
    cmake --build build-rel -j --target micro_hotpath || exit 1
    out=$(mktemp /tmp/obs_smoke.XXXXXX.bench.json)
    timeout 600 build-rel/bench/micro_hotpath --input=train --reps=7 \
        --obs=off --out="$out" || exit 1
    python3 - "$out" BENCH_hotpath.json <<'PYEOF' || exit 1
import json, sys
new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
worst = 0.0
for mode, b in base["modes"].items():
    n = new["modes"][mode]
    overhead = n["seconds"] / b["seconds"] - 1.0
    print("%-12s base=%.6fs new=%.6fs overhead=%+.2f%%"
          % (mode, b["seconds"], n["seconds"], overhead * 100.0))
    worst = max(worst, overhead)
if worst > 0.02:
    print("obs-smoke FAIL: disabled-obs overhead %.2f%% > 2%%"
          % (worst * 100.0))
    sys.exit(1)
PYEOF
    rm -f "$trace" "$metrics" "$out"
    echo "obs-smoke OK"
    exit 0
fi

if [ "$1" = "--analysis-smoke" ]; then
    echo "== analysis smoke: full pass set over every bundled workload =="
    cmake -B build -S . || exit 1
    cmake --build build -j --target lp_lint run_looppoint || exit 1
    progs="demo-matrix-1"
    progs="$progs,npb-bt-1,npb-cg-1,npb-ep-1,npb-ft-1,npb-is-1"
    progs="$progs,npb-lu-1,npb-mg-1,npb-sp-1,npb-ua-1"
    progs="$progs,pt-pipeline-1,pt-workqueue-1,pt-lockchain-1"
    progs="$progs,spec-bwaves-1,spec-bwaves-2,spec-cactuBSSN-1"
    progs="$progs,spec-lbm-1,spec-wrf-1,spec-cam4-1,spec-pop2-1"
    progs="$progs,spec-imagick-1,spec-nab-1,spec-nab-2"
    progs="$progs,spec-fotonik3d-1,spec-roms-1,spec-xz-1,spec-xz-2"
    out=$(mktemp /tmp/analysis_smoke.XXXXXX.txt)
    build/tools/lp_lint -p "$progs" -n 8         --race-check --lock-check --audit | tee "$out" || {
        echo "analysis-smoke FAIL: lp_lint reported errors"
        exit 1
    }
    if grep -qE '^(warning|error) \[' "$out"; then
        echo "analysis-smoke FAIL: bundled workloads must be clean"
        exit 1
    fi

    echo "== analysis smoke: corrupted store and journal fixtures =="
    dir=$(mktemp -d /tmp/analysis_smoke.XXXXXX)
    build/tools/run_looppoint -p demo-matrix-1 -n 4 --no-fullsim         --store="$dir/store" --journal="$dir/journal" --audit         > "$dir/clean.txt" || { echo "analysis-smoke FAIL: clean run"; exit 1; }
    grep -q 'audit          : 0 finding(s)' "$dir/clean.txt" || {
        echo "analysis-smoke FAIL: clean run must have 0 audit findings"
        exit 1
    }
    python3 - "$dir/store" <<'PYEOF' || exit 1
import glob, sys
obj = sorted(glob.glob(sys.argv[1] + "/objects/*"))[0]
with open(obj, "r+b") as f:
    f.seek(-1, 2)
    b = f.read(1)
    f.seek(-1, 2)
    f.write(bytes([b[0] ^ 0xFF]))
PYEOF
    sed -i 's/seed=42/seed=41/' "$dir/journal"
    build/tools/lp_lint -p demo-matrix-1 -n 4 --passes=audit         --store="$dir/store" --journal="$dir/journal"         > "$dir/bad.txt"
    rc=$?
    [ $rc -eq 1 ] || {
        echo "analysis-smoke FAIL: corrupted fixtures exited $rc (want 1)"
        exit 1
    }
    grep -q 'failed hash verification' "$dir/bad.txt" || {
        echo "analysis-smoke FAIL: corrupt store object not flagged"
        exit 1
    }
    grep -q 'journal does not load' "$dir/bad.txt" || {
        echo "analysis-smoke FAIL: corrupt journal key not flagged"
        exit 1
    }
    # Exactly the two injected defects, nothing else.
    n=$(grep -cE '^(warning|error) \[' "$dir/bad.txt")
    [ "$n" = 2 ] || {
        echo "analysis-smoke FAIL: expected exactly 2 findings, got $n"
        exit 1
    }
    rm -rf "$dir" "$out"
    echo "analysis-smoke OK"
    exit 0
fi

if [ "$1" = "--ubsan" ]; then
    echo "== tier-1 under UndefinedBehaviorSanitizer (build-ubsan) =="
    cmake -B build-ubsan -S . -DLOOPPOINT_SANITIZE=undefined \
        -DLOOPPOINT_WERROR=ON || exit 1
    cmake --build build-ubsan -j || exit 1
    ctest --test-dir build-ubsan --output-on-failure 2>&1 \
        | tee ubsan_output.txt || exit 1
    echo "== lint + race check under UBSan =="
    build-ubsan/tools/lp_lint -p demo-matrix-1 --race-check || exit 1
    echo "ubsan OK"
    exit 0
fi

if [ "$1" = "--tidy" ]; then
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "tidy SKIPPED: clang-tidy is not installed"
        exit 0
    fi
    echo "== clang-tidy over src/ and tools/ (build-tidy) =="
    cmake -B build-tidy -S . || exit 1
    files=$(find src tools -name '*.cc')
    # shellcheck disable=SC2086
    clang-tidy -p build-tidy --quiet $files || exit 1
    echo "tidy OK"
    exit 0
fi

if [ "$1" = "--tsan" ] || [ "${LOOPPOINT_TSAN:-0}" = "1" ]; then
    echo "== tier-1 under ThreadSanitizer (build-tsan) =="
    cmake -B build-tsan -S . -DLOOPPOINT_SANITIZE=thread \
        -DLOOPPOINT_WERROR=ON || exit 1
    cmake --build build-tsan -j || exit 1
    ctest --test-dir build-tsan --output-on-failure 2>&1 \
        | tee tsan_output.txt || exit 1
fi

ctest --test-dir build 2>&1 | tee test_output.txt
{
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo
    echo "================================================================"
    echo "== $b"
    echo "================================================================"
    timeout 1800 "$b" 2>/dev/null
done
echo
echo "================================================================"
echo "== build/bench/fig5_accuracy --inorder --quick   (Fig. 5b)"
echo "================================================================"
timeout 1800 build/bench/fig5_accuracy --inorder --quick 2>/dev/null
echo
echo "================================================================"
echo "== build/bench/fig5_accuracy --constrained --quick   (Sec. V-A.1)"
echo "================================================================"
timeout 1800 build/bench/fig5_accuracy --constrained --quick 2>/dev/null
} > bench_output.txt 2>&1
echo ALL_DONE >> bench_output.txt
