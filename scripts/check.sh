#!/usr/bin/env bash
# The repository's one gate: every check CI runs, in order, stopping at the
# first failure. Run it from anywhere:
#
#	bash scripts/check.sh
#
# Binaries are built into a temporary directory and the experiment drivers
# run from there (glbench writes BENCH_*.json into its working directory),
# so a run leaves the checkout exactly as it found it; the last step
# verifies that.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
start=$(date +%s)
before="$(git status --porcelain 2>/dev/null || true)"

step() { printf '\n== %s\n' "$*"; }

step "Format"
files=$(gofmt -l .)
if [ -n "$files" ]; then
	echo "gofmt needed on:" "$files"
	exit 1
fi

step "Build and vet"
go build ./...
go vet ./...
go build -o "$tmp/gluenail" ./cmd/gluenail
go build -o "$tmp/gluenaild" ./cmd/gluenaild
go build -o "$tmp/glbench" ./cmd/glbench

step "Test (race)"
go test -race ./...

step "EXPLAIN goldens (physical plans stay deterministic)"
go test -count=1 -run 'TestExplainGolden' .

step "Planner stress (adaptive credit + order independence, race)"
go test -race -count=1 -run 'TestAdaptiveCredit|TestQuickOrderIndependence' ./internal/storage/ .

step "WAL fault injection, and recovery re-run with fresh state each pass"
go test -race -count=1 -run 'Kill|BitFlip|CheckpointCrash|Reopen' ./internal/wal/
go test -count=2 ./internal/wal/

step "Governor unit suite (budgets, depth, panic containment; race)"
go test -race -count=1 -run 'TestSelfRecursionDepthLimit|TestTimeoutStopsInfiniteLoop|TestCancelStopsExecution|TestMaxTuplesBudget|TestMaxRelRowsBudget|TestLoopLimitTypedError|TestPanicContainment|TestGovernorOverheadCheckCount' ./internal/vm/

step "Cancellation-fault suite (durable state is a statement-boundary prefix, race)"
go test -race -count=1 -run 'TestCancelAtStatementBoundaryPrefix|TestRandomizedCancelLandsOnPrefix' .

step "Timeout smoke (infinite repeat must exit within 2x a 2 s deadline)"
t0=$(date +%s)
if "$tmp/gluenail" -timeout 2s -max-iters -1 -call main.spin testdata/spin.glue; then
	echo "spin.glue returned success; the deadline never fired" >&2
	exit 1
fi
elapsed=$(($(date +%s) - t0))
if [ "$elapsed" -gt 4 ]; then
	echo "abort took ${elapsed}s against a 2s deadline" >&2
	exit 1
fi

step "Plan cache unit suite (epochs, drift, prepared statements; race)"
go test -race -count=1 -run 'TestPlanCache|TestStatsEpoch|TestPrepared|TestExplainAnalyzePlanCacheCounters' ./internal/plan/ ./internal/storage/ .

step "E14 governor overhead + abort latency"
go test -run xxx -bench BenchmarkE14 -benchtime 3x .
(cd "$tmp" && ./glbench -e E14 -reps 1 && cat BENCH_E14.json)

step "Server integration suite (wire protocol, isolation over the wire, shutdown drain; race)"
go test -race -count=1 ./internal/server/

step "Snapshot isolation suite (MVCC storage + concurrent sessions; race)"
go test -race -count=1 -run 'TestSnapshot|TestSystemConcurrentSessions' ./internal/storage/ .

step "E16 server mixed-workload smoke (zero isolation violations required)"
go test -run xxx -bench 'BenchmarkServer' -benchtime 3x ./internal/server/
(cd "$tmp" && ./glbench -e E16 && cat BENCH_E16.json)

step "Disk engine unit suite (race)"
go test -race -count=1 ./internal/storage/disk/

step "Backend parity difftest (mem vs disk vs spill, byte-identical; race)"
go test -race -count=1 -run 'TestQuickBackendParity|TestQuickAllConfigsAgreeOnRandomGraphs|TestQuickRandomProgramsAllConfigsAgree' .

step "Out-of-core + spill-crash suite (budget spills instead of aborting; SIGKILL recovery prefix)"
go test -race -count=1 -run 'TestOutOfCore|TestSpillCrashRecovery|TestSpillDirOverlapRefused|TestBackendSeamAllocs' ./internal/storage/ .

step "E17 storage-engine smoke (identical answers required)"
(cd "$tmp" && ./glbench -e E17 -reps 1 && cat BENCH_E17.json)

step "Disk format suite (round-trips, blooms, tiers, bulk load, refusals, point-operation cost gates; race)"
go test -race -count=1 -run 'TestBloom|TestBlockPayloadRoundTrip|TestTier|TestReopen|TestBulkLoad|TestLegacyFormatRefused|TestMalformedManifestRefused|TestInternTablePersists|TestColdProbeAllocs|TestDeleteCostIndependentOfTombstones|TestSecondTouchAdmission' ./internal/storage/disk/

step "Disk snapshots under deletes and compaction (race, repeated)"
go test -race -count=10 -run 'TestSnapshotsUnderDeletesAndCompaction|TestCompactDeclinesOnMidMergeTombstone' ./internal/storage/disk/

step "Bulk-load crash recovery (SIGKILL mid-load lands on a statement-boundary prefix; race)"
go test -race -count=1 -run 'TestBulkLoadCrashRecovery' .

step "E18 disk-engine smoke and reopen-time gate (reopen must stay sublinear in EDB size)"
go test -run xxx -bench BenchmarkE18 -benchtime 1x .
(cd "$tmp" && ./glbench -e E18 -reps 1 && cat BENCH_E18.json)
python3 - "$tmp/BENCH_E18.json" <<'EOF'
import json, sys
reopen = json.load(open(sys.argv[1]))["reopen"]
small, large = reopen[0], reopen[-1]
growth = large["rows"] / small["rows"]
slowdown = large["open_ms"] / small["open_ms"]
print(f"rows x{growth:.0f}, open time x{slowdown:.1f}")
assert slowdown < growth, f"reopen scaled superlinearly: {slowdown:.1f}x time for {growth:.0f}x rows"
EOF

step "I/O hygiene vet (no ignored Close/Sync, no direct os I/O behind the fsio seam)"
go test -count=1 -run 'TestIOVet' .

step "Fault-injection suite (VFS faults at every write site, degraded mode, scrub, bit-flip matrix; race)"
go test -race -count=1 ./internal/storage/fsio/
go test -race -count=1 -run 'TestWriteFault|TestManifestFault|TestFaultSweep|TestReadFaultSweep|TestBitFlip|TestScrub|TestFsck|TestBackgroundScrubber|TestSweeps|TestBulkLoadFault' ./internal/storage/disk/
go test -race -count=1 -run 'TestVerifyClassifiesDamage|TestKillAtEveryOffset|TestBitFlipRecoversToPrefix' ./internal/wal/
go test -race -count=1 -run 'TestDiskFaultDegradesSystemNotPoisoned|TestCorruptBlockContainedNotPoisoned' .

step "Degraded-mode server + client reconnect (typed wire codes, bounded redial; race)"
go test -race -count=1 -run 'TestServerDegraded|TestClientReconnect' ./internal/server/

step "Decoder fuzz smoke (disk blocks, manifest, run footer, intern records, wire frames, WAL replay)"
for target in FuzzDecodeBlockPayload FuzzManifestImage FuzzRunFooter FuzzInternRecords; do
	go test -fuzz "^${target}\$" -fuzztime 10s -run '^$' ./internal/storage/disk/
done
go test -fuzz '^FuzzReadFrame$' -fuzztime 10s -run '^$' ./internal/server/
go test -fuzz '^FuzzReplay$' -fuzztime 10s -run '^$' ./internal/wal/

step "fsck smoke on a corrupted fixture (detect, repair, verify clean, store still serves)"
printf 'edb edge(X,Y);\n' >"$tmp/fsck.glue"
python3 -c 'import sys; open(sys.argv[1], "w").writelines(f"{i},{i+1}\n" for i in range(5000))' "$tmp/fsck-edge.csv"
"$tmp/gluenail" -store disk -data-dir "$tmp/fsckdb" -load-csv edge="$tmp/fsck-edge.csv" -q 'edge(1, X)' "$tmp/fsck.glue"
run=$(ls "$tmp"/fsckdb/store/run-*.grn | head -n 1)
python3 -c 'import sys; p = sys.argv[1]; d = bytearray(open(p, "rb").read()); d[28] ^= 0x08; open(p, "wb").write(d)' "$run"
if "$tmp/gluenail" fsck -data-dir "$tmp/fsckdb"; then
	echo "fsck missed planted corruption"
	exit 1
fi
"$tmp/gluenail" fsck -repair -data-dir "$tmp/fsckdb" || true
"$tmp/gluenail" fsck -data-dir "$tmp/fsckdb"
"$tmp/gluenail" -store disk -data-dir "$tmp/fsckdb" -q 'edge(X, Y)' "$tmp/fsck.glue" >/dev/null

step "Benchmark spine self-tests and smoke (non-zero exit on any oracle mismatch)"
(cd benchspine && go test ./...)
bash benchspine/run.sh --workload disk_resident --seconds 2 --trace 0

step "Checkout untouched"
after="$(git status --porcelain 2>/dev/null || true)"
if [ "$before" != "$after" ]; then
	echo "the run changed the checkout:" >&2
	diff <(echo "$before") <(echo "$after") >&2 || true
	exit 1
fi

echo
echo "check.sh: all checks passed in $(($(date +%s) - start))s"
