#!/usr/bin/env bash
# Exit-code contract of the command-line tools, all parsed by
# src/util/flags: --help exits 0, a malformed command line exits 2.
# Also checks that README's flag tables list every flag --help lists.
#
#   tests/cli_test.sh RUN_LOOPPOINT LP_LINT LP_CAMPAIGN LP_REPORT LP_STORE README
#
# No invocation here starts a simulation with a bad thread count: bad
# numbers are unit-tested on the parser alone (tests/test_util.cc).
set -u
[ $# -eq 6 ] || { echo "usage: $0 RUN_LOOPPOINT LP_LINT LP_CAMPAIGN LP_REPORT LP_STORE README"; exit 2; }
run_looppoint=$1 lp_lint=$2 lp_campaign=$3 lp_report=$4 lp_store=$5 readme=$6
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

for tool in "$run_looppoint" "$lp_lint" "$lp_campaign" "$lp_report" "$lp_store"; do
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
expect 2 "$lp_lint" --passes=bogus
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

# The space form of a value works for every flag.
expect 0 "$run_looppoint" -p demo-matrix-1 -n 2 -j 1 --no-fullsim --trace "$tmp/t.json"
expect 0 "$lp_report" --trace "$tmp/t.json" --check
expect 0 "$lp_store" stats "$tmp/store"
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
