#!/usr/bin/env bash
# Exit-code contract of the command-line tools and of the examples
# that take arguments, all parsed by src/util/flags: --help exits 0, a
# malformed command line exits 2. Also checks that README's flag
# tables list every flag --help lists, and that lp_report reads a
# trace: region attempts, k-means work, partitioned warm pass and
# store-served regions included.
#
#   tests/cli_test.sh RUN_LOOPPOINT LP_LINT LP_CAMPAIGN LP_REPORT LP_STORE \
#       SAMPLE_SPEC_APP BASELINE_COMPARISON README
#
# No invocation here starts a simulation with a bad thread count: bad
# numbers are unit-tested on the parser alone (tests/test_util.cc).
set -u
[ $# -eq 8 ] || { echo "usage: $0 RUN_LOOPPOINT LP_LINT LP_CAMPAIGN LP_REPORT LP_STORE SAMPLE_SPEC_APP BASELINE_COMPARISON README"; exit 2; }
run_looppoint=$1 lp_lint=$2 lp_campaign=$3 lp_report=$4 lp_store=$5
sample_spec_app=$6 baseline_comparison=$7 readme=$8
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect RC CMD...: run CMD, fail unless it exits RC.
expect() {
    local want=$1
    shift
    "$@" > "$tmp/out" 2>&1
    local rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: '$*' exited $rc (want $want)"
        sed 's/^/    /' "$tmp/out"
        failures=$((failures + 1))
    fi
}

for tool in "$run_looppoint" "$lp_lint" "$lp_campaign" "$lp_report" "$lp_store" \
        "$sample_spec_app" "$baseline_comparison"; do
    expect 0 "$tool" --help
    expect 0 "$tool" -h
    expect 2 "$tool" --no-such-flag
done

# Values are resolved while parsing, so a bad one is a usage error.
expect 2 "$run_looppoint" -i bogus
expect 2 "$run_looppoint" -p npb-bogus-1
expect 2 "$run_looppoint" -w spin
expect 2 "$run_looppoint" --uarch=bogus
expect 2 "$run_looppoint" -p
expect 2 "$run_looppoint" -n 0
expect 2 "$lp_lint" -n 0
expect 2 "$lp_campaign" --out="$tmp/camp" --threads=4,0
expect 2 "$lp_lint" -i bogus
expect 2 "$lp_lint" -p npb-bogus-1
expect 2 "$lp_lint" --race-check
expect 2 "$lp_lint" --no-lint
expect 2 "$lp_campaign"
expect 2 "$lp_campaign" --out="$tmp/camp" --apps=npb-bogus-1
expect 2 "$lp_campaign" --out="$tmp/camp" --inject-fault='sim:region=1,kind=throw'
expect 2 "$lp_report"
expect 2 "$lp_store" stats
expect 2 "$lp_store" frobnicate "$tmp/store"
expect 2 "$lp_store" gc "$tmp/store"
expect 2 "$lp_store" stats "$tmp/store" --max-bytes=abc
[ -e "$tmp/store" ] && { echo "FAIL: a usage error created the store"; failures=$((failures + 1)); }
expect 2 "$sample_spec_app" 628.pop2_s.1 abc
expect 2 "$sample_spec_app" 628.pop2_s.1 8x
expect 2 "$sample_spec_app" 628.pop2_s.1 0
expect 2 "$sample_spec_app" bogus.app
expect 2 "$sample_spec_app" 628.pop2_s.1 8 extra
expect 2 "$baseline_comparison" bogus.app
expect 2 "$baseline_comparison" 644.nab_s.1 extra

# A usage error is reported once: exactly one stderr line.
for tool in "$run_looppoint" "$lp_lint"; do
    "$tool" -p npb-bogus-1 > /dev/null 2> "$tmp/err"
    lines=$(wc -l < "$tmp/err")
    if [ "$lines" -ne 1 ]; then
        echo "FAIL: '$(basename "$tool") -p npb-bogus-1' printed $lines stderr line(s) (want 1)"
        sed 's/^/    /' "$tmp/err"
        failures=$((failures + 1))
    fi
done

# The space form of a value works for every flag.
expect 0 "$run_looppoint" -p demo-matrix-1 -n 2 -j 1 --no-fullsim --trace "$tmp/t.json"
expect 0 "$lp_report" --trace "$tmp/t.json" --check
# A warm pass split over partitions (-j 2) reports how fast they
# applied the records they were shipped.
expect 0 "$run_looppoint" -p demo-matrix-1 -n 2 -j 2 --no-fullsim --trace "$tmp/t2.json"
expect 0 "$lp_report" --trace "$tmp/t2.json" --check
grep -qE '^warm apply +: [0-9.]+ M records/s \([0-9]+ records over [0-9.]+ busy s\)$' "$tmp/out" || {
    echo "FAIL: lp_report printed no partition apply rate for a -j 2 trace"
    sed 's/^/    /' "$tmp/out"
    failures=$((failures + 1)); }
# The region table carries each region's attempts, and one line totals
# the k-means sweep's exact work over its cluster.kmeans spans.
grep -qE '^ *region +mult +wall ms +ipc +l2mpki +attempts +ok$' "$tmp/out" &&
    grep -qE '^ +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +1 +yes$' "$tmp/out" || {
    echo "FAIL: lp_report printed no attempts column in its region table"
    sed 's/^/    /' "$tmp/out"
    failures=$((failures + 1)); }
grep -qE '^k-means sweep +: [1-9][0-9]* candidate\(s\), [1-9][0-9]* iteration\(s\), [1-9][0-9]* distance term\(s\)$' "$tmp/out" || {
    echo "FAIL: lp_report printed no k-means sweep totals"
    sed 's/^/    /' "$tmp/out"
    failures=$((failures + 1)); }
# A degraded run publishes its good regions only; a rerun against the
# same store takes them from it and simulates the dropped one, and
# both run_looppoint and lp_report count the regions it served.
expect 1 "$run_looppoint" -p spec-pop2-1 -n 2 -j 2 --no-fullsim \
    --store "$tmp/store" --inject-fault 'sim:region=0,kind=throw'
expect 0 "$run_looppoint" -p spec-pop2-1 -n 2 -j 2 --no-fullsim \
    --store "$tmp/store" --trace "$tmp/t3.json"
grep -qE '^store +: .*, regions 3 of 4 served,' "$tmp/out" || {
    echo "FAIL: run_looppoint did not report 3 of 4 regions served by the store"
    sed 's/^/    /' "$tmp/out"
    failures=$((failures + 1)); }
expect 0 "$lp_report" --trace "$tmp/t3.json" --check
grep -qE '^store regions +: 3 region record\(s\) served, not simulated$' "$tmp/out" || {
    echo "FAIL: lp_report did not count the store-served regions"
    sed 's/^/    /' "$tmp/out"
    failures=$((failures + 1)); }
expect 0 "$lp_store" stats "$tmp/store"
expect 0 "$lp_store" verify "$tmp/store"
expect 0 "$lp_store" gc "$tmp/store" --max-bytes 0 --dry-run

# The README flag tables list every flag the generated --help lists.
for tool in "$run_looppoint" "$lp_lint" "$lp_campaign"; do
    for flag in $("$tool" --help | grep -oE '^ {2,6}(-[a-z], )?--[a-z-]+' | grep -oE -- '--[a-z-]+'); do
        grep -qE "^\| [^|]*\`(-[a-z], )?$flag[=\`]" "$readme" || {
            echo "FAIL: README.md has no flag-table row for $(basename "$tool") $flag"
            failures=$((failures + 1)); }
    done
done

[ "$failures" -eq 0 ] || { echo "$failures failure(s)"; exit 1; }
echo "cli contract OK"
