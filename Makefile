# CI entry points. `make check` is the default gate: formatting, build,
# vet, README's flag tables, full test suite, the allocation budgets, then a
# race-detector pass
# over the concurrency-critical packages (the storage engine's lock manager
# and the CAS service layer, plus the wire, the node agent and the event
# engine).

GO ?= go

.PHONY: check fmt build test alloc race vet flagdoc fuzz race-cancel race-plancache race-pager joinfuzz chaos replchaos replchaos-one clean

check: fmt build vet flagdoc test alloc race

# gofmt names every file it would rewrite; any name fails the gate.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The allocation budgets, level by level: a wire round trip (the request
# and reply values recycled by wire.Typed, the action names built once per
# route), a bare statement (in memory and on resident pages; a read whose
# result the transaction lends costs the Tx alone), a hash join's probe, a
# grouped aggregation, the index entries of an insert, a stored row and
# its update, a page compaction, a dirty eviction and reload, an in-memory
# log and page file grown to 4 MiB (TestMemVFSAppendAllocs), a bean call,
# a steady Service.Heartbeat, and the same beat as an exchange through
# wire.Local into the CAS mux, both ends counted
# (TestHeartbeatExchangeAllocs). They are compiled out under -race
# (sync.Pool sheds there), so they get their own uncached run. What keeps
# the lending honest runs with the race suites:
# TestLentRowsLiveUntilTheTransactionEnds (a lent result intact until its
# transaction ends), TestPooledScratchPinsNothing (every result taken
# back, the arena emptied), TestTypedRecyclesCleanly and
# TestExchangeRecyclesCleanly (no exchange sees a recycled message's old
# values) and TestRecycledMessagesArePoisoned (a request or reply kept
# past its exchange reads poison).
alloc:
	$(GO) test -count=1 -run Allocs ./internal/sqldb ./internal/sqldb/pager ./internal/beans ./internal/core ./internal/wire

# Whole packages, so the statement path's borrowed-memory suites ride
# along: results never alias the executor scratch (TestRowsDoNotAliasScratch,
# TestSQLRowsDoNotAliasScratch), a result the transaction lends stays
# intact until it ends and is poisoned after — reading it then panics
# under -race (TestLentRowsLiveUntilTheTransactionEnds), a pooled scratch
# pins nothing (TestPooledScratchPinsNothing), and the lock table is
# empty, its freelists capped, after a stress of cancels, timeouts and
# deadlock victims (TestLockTableHygieneUnderStress). In-memory files
# lock one by one: two writers and a reader on three files run while a
# fourth file's lock is held (TestMemVFSFilesDoNotSerialize). A wire
# exchange's request and reply values are recycled by wire.Typed: under
# -race each one taken back is poisoned, so a handler that keeps one past
# its exchange reads poison (TestRecycledMessagesArePoisoned), and the CAS's
# exchanges run with their messages poisoned after every call
# (TestExchangeRecyclesCleanly). The bean container's two transports
# and its one retry loop (an engine deadlock victim on each), the wire
# codec and transports, the execute-node agent and the event engine ride
# along: the packages where goroutines share state (internal/vtime keeps
# no concurrent code). So do the two HTTP clients, cj2node (the agent on
# the wall clock, one exchange per retry step) and cj2sub (a whole call's
# deadline over its retries).
race:
	$(GO) test -race -count=1 ./internal/sqldb ./internal/beans ./internal/core ./internal/wire ./internal/cluster ./internal/sim ./cmd/cj2node ./cmd/cj2sub

vet:
	$(GO) vet ./...

# README's "Command-line flags" section against the programs themselves.
# Each deployed binary's table there (first column) must name exactly the
# flags its -h prints; and any -flag in inline code anywhere in README must
# be one some program under cmd/ defines, or one of the go tool's listed
# here — a deleted flag fails the gate until the prose that names it goes.
FLAGDOC_CMDS = condorj2d cj2sql cj2node cj2sub
FLAGDOC_GOTOOL = -race -bench -run -count
flagdoc:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && fail=0; \
	for c in $(FLAGDOC_CMDS) cj2loc repro; do \
		$(GO) run ./cmd/$$c -h 2>&1 | sed -n 's/^  \(-[a-z][a-z0-9-]*\).*/\1/p' | sort -u > "$$tmp/$$c.have"; \
	done; \
	for c in $(FLAGDOC_CMDS); do \
		awk -v h="### \`$$c\`" '/^##/ { on = ($$0 == h) } on' README.md \
			| sed -n 's/^| `\(-[a-z][a-z0-9-]*\)` |.*/\1/p' | sort -u > "$$tmp/$$c.doc"; \
		if ! diff "$$tmp/$$c.doc" "$$tmp/$$c.have" > "$$tmp/diff"; then \
			echo "flagdoc: README's table for $$c (<) and $$c -h (>) differ:"; cat "$$tmp/diff"; fail=1; \
		fi; \
	done; \
	{ cat "$$tmp"/*.have; printf '%s\n' $(FLAGDOC_GOTOOL); } | sort -u > "$$tmp/known"; \
	grep -o '`[^`]*`' README.md | grep -oE '(^`|[ [])-[a-z][a-z0-9-]*' | sed 's/^[^-]*//' | sort -u > "$$tmp/named"; \
	stale=$$(comm -23 "$$tmp/named" "$$tmp/known"); \
	if [ -n "$$stale" ]; then \
		echo "flagdoc: README names flags no program has (or add a go tool flag to FLAGDOC_GOTOOL):" $$stale; fail=1; \
	fi; \
	exit $$fail

# The fuzzed decoders of bytes from the network or the disk. The wire's
# envelope header (action, key, send stamp, budget): never panic, and an
# accepted header names an action, encodes again to its own bytes and
# leaves the payload aliasing the input. The payload decoder (the packed
# form: every message type, as a peer sends it and as the reply store
# reads it back from the log and page images): never panic, allocation
# bounded by the input (a list's count, taken before its slice is made,
# bounded by the bytes; the bound per target is its list items' Go size
# over their shortest encoding), every accepted input packs again to the
# same bytes, and a recycled value, reset as wire.Typed resets one or
# not, decodes every input as a fresh one does. Unpack itself, into
# each keyed reply type (a replay hands the stored bytes to the client
# as they lie): never panic, allocation bounded by the input, and every
# accepted input packs again to the same bytes. The frame reader of a
# framed connection (uvarint length, then the envelope): never panic,
# never accept a frame over the envelope bound, hand back each envelope
# as it arrived, and grow with the bytes that arrived, not with the
# length a frame declares. The
# WAL reader — one CRC32C frame per committed group, updates as
# changed-column bitmaps plus values — and the redo behind it (shipped
# runs, the node's own log): never panic, allocation bounded by the
# input, every accepted group re-encodes to the same bytes, frame and CRC
# included, the walk that decodes no record (truncation, repair,
# shipping) steps through the same groups and stops where the decoding
# walk stops, and a shipped run that is not whole groups in rising LSN order
# is refused with the follower's log left byte-identical. Page and checkpoint-meta images (the
# validator, recovery's page scan, decodeMeta): never panic, allocation
# bounded by the input, and a page the validator accepts stays valid and
# in bounds through insert, erase and compaction. Index keys: two values
# of one column type encode in the order Compare gives them, neither
# encoding a prefix of the other. The index tree (operation runs decoded
# from the input, against a sorted-slice reference): every insert, delete,
# seek and scan in either direction agrees with the reference, and the
# tree keeps its shape through splits, merges and root collapse. Row images (a counted row from the log or
# a page record, as the engine keeps it): never panic, allocation bounded
# by the input, every column reads what the value decoder reads, and the
# cells write back to the same bytes. SQL text (the parser, up to 4 KiB):
# never panic, and every column reference of an accepted statement carries
# its own slot below the statement's count, the same on every parse — the
# binder resolves names by those slots. The in-memory file system (not a
# decoder; operation streams from the input against a flat slice per
# file): every append, positioned write and read, across extent
# boundaries and past the end, ReadFile, Rename and Remove agree with the
# reference. go test -fuzz takes one target per run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackPayload$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzLogReader$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzPageImage$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzOrdIndex$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzRowImage$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzMemVFS$$' -fuzztime 30s ./internal/sqldb

# Differential join-fuzzer acceptance run: 1000 seeded schema/query
# combinations through the engine (planner, plan cache, batched operators;
# snapshot and locked reads) vs the reference evaluator, refQuery, a naive
# nested-loop interpreter in test code — on both engines, in memory and on
# a 4-frame paged pool where every case evicts, as CI does.
joinfuzz:
	JOINFUZZ_CASES=1000 $(GO) test -count=1 ./internal/sqldb -run TestJoinFuzz -v
	JOINFUZZ_POOL_PAGES=4 JOINFUZZ_CASES=1000 $(GO) test -count=1 ./internal/sqldb -run TestJoinFuzz -v

# Chaos-injection torture (seed-reproducible): three execute-node agents
# (cluster.Startd, what cmd/cj2node runs) drive jobs through a
# FaultTransport dropping/duplicating/5xx-faulting 20%+ of wire traffic
# while the CAS is killed and restarted from its WAL; every job must
# complete exactly once. Override CHAOS_SEED / CHAOS_CASES to vary the
# schedule. The agent's own suite rides along: one scripted fault per
# defence (TestStartdProtocol and the TestStartd* beside it), the randomly
# lossy wire, and cj2node's real-time wiring.
CHAOS_SEED ?= 1
CHAOS_CASES ?= 40
chaos:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_CASES=$(CHAOS_CASES) $(GO) test -race -count=1 -v \
		-run 'TestChaosTortureExactlyOnce|TestStartd|TestRunCompletesAJobInRealTime' \
		./internal/core ./internal/cluster ./cmd/cj2node | tee chaos.txt

# Replication chaos (seed-reproducible): a leader/follower pair under a
# 20%+-lossy shipping link; the leader is killed mid-run, the follower
# promotes on lease expiry and must finish the workload exactly once on
# its own timeline. First, the replication suite twenty times over: it
# steps its nodes' ticks under a stepped clock, so the promotion-count and
# stale-term assertions are exact and any flake in them is a bug. The
# acceptance sweep then runs the fixed seed set; run a single schedule with
# CHAOS_SEED=n make replchaos-one.
REPLCHAOS_SEEDS ?= 1 2 3 7 42 1337
replchaos:
	@rm -f replchaos.txt
	$(GO) test -race -count=20 -run TestRepl -skip TestReplChaos ./internal/core | tee replchaos.txt
	@for seed in $(REPLCHAOS_SEEDS); do \
		echo "== replchaos seed $$seed =="; \
		CHAOS_SEED=$$seed CHAOS_CASES=$(CHAOS_CASES) $(GO) test -race -count=1 -v \
			-run 'TestReplChaosLeaderKillPromote' ./internal/core | tee -a replchaos.txt \
			|| exit 1; \
	done

replchaos-one:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_CASES=$(CHAOS_CASES) $(GO) test -race -count=1 -v \
		-run 'TestReplChaosLeaderKillPromote' ./internal/core | tee replchaos.txt

# The chaos targets tee their logs; pipefail makes a failed test, not tee,
# decide the exit status.
chaos replchaos replchaos-one: SHELL := /bin/bash
chaos replchaos replchaos-one: .SHELLFLAGS := -o pipefail -c

# The -race cancellation suite: lock-wait cancel/timeout, mid-scan and
# mid-join cancels, group-commit retraction, snapshot watermark release.
race-cancel:
	$(GO) test -race -count=1 -run 'Cancel|Timeout|Deadline|Fault' ./internal/sqldb ./internal/core ./internal/wire ./cmd/cj2sql

# The -race plan-cache suite: concurrent hammer on two cached statements (a
# point read, an aggregation), epoch invalidation under DDL and row-count
# drift, stmt-cache clock sweeps. A
# quick local subset: `make race` (and so `make check`) runs all of it.
race-plancache:
	$(GO) test -race -count=1 -run 'PlanCache|StmtCache|ExplainCached' ./internal/sqldb

# The -race paged-storage suite: buffer-pool pin/evict/flush races, the
# concurrent-churn workload on a 4-frame pool checkpointed every 1ms,
# and every crash/recovery scenario including the torn-page sweep. Under
# -race the pool poisons every page buffer it takes back, so an image
# still visible to a second owner reads as garbage here, not as a page.
race-pager:
	$(GO) test -race -count=1 ./internal/sqldb/pager
	$(GO) test -race -count=1 -run 'TestPaged' ./internal/sqldb

clean:
	$(GO) clean ./...
