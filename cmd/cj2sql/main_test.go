package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
)

// The smoke test drives the shell end to end: DDL, DML, a rendered SELECT,
// the meta-commands, and the error path, all through the same loop main
// wires to stdin/stdout.
func TestShellParseExecuteRoundTrip(t *testing.T) {
	db := sqldb.New()
	defer db.Close()
	script := strings.Join([]string{
		`CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT NOT NULL, state TEXT)`,
		`INSERT INTO jobs VALUES (1, 'alice', 'idle')`,
		`INSERT INTO jobs VALUES (2, 'bob', 'running')`,
		`SELECT owner FROM jobs WHERE id = 2`,
		`\tables`,
		`\d jobs`,
		`SELEKT nonsense`,
		`\q`,
	}, "\n") + "\n"

	var out strings.Builder
	runShell(db, strings.NewReader(script), &out)
	got := out.String()

	for _, want := range []string{
		"ok (1 rows affected)", // INSERTs acknowledged
		"bob",                  // SELECT result rendered
		"(1 rows)",             // row count footer
		"jobs",                 // \tables listing
		"CREATE TABLE jobs",    // \d schema dump
		"error:",               // bad statement reported, shell kept going
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("shell output missing %q:\n%s", want, got)
		}
	}

	// The shell's writes really landed in the engine.
	rows, err := db.Query(`SELECT count(*) FROM jobs`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int64() != 2 {
		t.Fatalf("jobs table has %v rows, want 2", rows.Data[0][0])
	}
}

// Pointed at a store the daemon ran paged — a CAS on a paged engine,
// stopped cleanly, so the WAL file itself is empty — the shell needs no
// layout flag: the store says it is paged, and \tables and a SELECT see the
// daemon's data.
func TestShellOpensAPagedStoreWithoutBeingTold(t *testing.T) {
	path := t.TempDir() + "/cas.wal"
	engine, err := sqldb.Open(sqldb.Options{VFS: sqldb.OSVFS{}, Path: path, Sync: sqldb.SyncNever, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := core.New(core.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cas.Service.Submit(context.Background(), &core.SubmitRequest{Owner: "alice", Count: 7, LengthSec: 60}); err != nil {
		t.Fatal(err)
	}
	cas.Close()
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if wal, err := os.ReadFile(path); err != nil || len(wal) != 0 {
		t.Fatalf("WAL after the daemon's clean stop: %d bytes, err %v; want an empty file", len(wal), err)
	}

	db, err := openStore(path, "never")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var out strings.Builder
	runShell(db, strings.NewReader("\\tables\nSELECT owner, count(*) FROM jobs GROUP BY owner;\n\\q\n"), &out)
	got := out.String()
	for _, want := range []string{"jobs", "machines", "config", "alice", "7", "(1 rows)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("shell output missing %q:\n%s", want, got)
		}
	}
}

func TestShellQuitStopsBeforeTrailingInput(t *testing.T) {
	db := sqldb.New()
	defer db.Close()
	var out strings.Builder
	runShell(db, strings.NewReader("\\q\nCREATE TABLE t (x INTEGER)\n"), &out)
	if len(db.TableNames()) != 0 {
		t.Fatal("statement after \\q executed")
	}
}

// The shell's session transactions: BEGIN READ ONLY pins a snapshot
// (repeatable reads, concurrent commits invisible, writes rejected);
// BEGIN/COMMIT groups writes; ROLLBACK undoes them.
func TestShellSessionTransactions(t *testing.T) {
	db := sqldb.New()
	defer db.Close()
	mustSetup := []string{
		`CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`,
		`INSERT INTO kv VALUES (1, 10)`,
	}
	for _, s := range mustSetup {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	// Read-only session: a concurrent committed update stays invisible
	// until the snapshot is released.
	ro := &shellSession{db: db}
	var out strings.Builder
	ro.run(context.Background(), `BEGIN READ ONLY`, &out)
	if !strings.Contains(out.String(), "read only, snapshot @") {
		t.Fatalf("BEGIN READ ONLY ack missing: %s", out.String())
	}
	if _, err := db.Exec(`UPDATE kv SET n = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	ro.run(context.Background(), `SELECT n FROM kv WHERE id = 1`, &out)
	if !strings.Contains(out.String(), "10") || strings.Contains(out.String(), "99") {
		t.Fatalf("snapshot session saw concurrent commit:\n%s", out.String())
	}
	out.Reset()
	ro.run(context.Background(), `UPDATE kv SET n = 0`, &out)
	if !strings.Contains(out.String(), "read-only") {
		t.Fatalf("write in read-only session not rejected: %s", out.String())
	}
	out.Reset()
	ro.run(context.Background(), `COMMIT`, &out)

	// Read-write session: rollback undoes, commit persists.
	rw := &shellSession{db: db}
	out.Reset()
	rw.run(context.Background(), `BEGIN`, &out)
	rw.run(context.Background(), `UPDATE kv SET n = 1 WHERE id = 1`, &out)
	rw.run(context.Background(), `ROLLBACK`, &out)
	rows, _ := db.Query(`SELECT n FROM kv WHERE id = 1`)
	if rows.Data[0][0].Int64() != 99 {
		t.Fatalf("rolled-back shell write persisted: %v", rows.Data[0][0])
	}
	rw.run(context.Background(), `BEGIN`, &out)
	rw.run(context.Background(), `UPDATE kv SET n = 7 WHERE id = 1`, &out)
	rw.run(context.Background(), `COMMIT`, &out)
	rows, _ = db.Query(`SELECT n FROM kv WHERE id = 1`)
	if rows.Data[0][0].Int64() != 7 {
		t.Fatalf("committed shell write lost: %v", rows.Data[0][0])
	}
}

// TestShellInterruptCancelsStatement drives the interruptible REPL: an
// interrupt during a long-running statement cancels that statement (the
// engine reports the cancellation) while the shell survives to run the
// next line; an interrupt at a clean prompt exits.
func TestShellInterruptCancelsStatement(t *testing.T) {
	db := sqldb.New()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	if _, err := db.Exec(`INSERT INTO big VALUES ` + sb.String()); err != nil {
		t.Fatal(err)
	}

	in, inW := io.Pipe()
	var out syncBuffer
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runShellInterruptible(db, in, &out, sig)
	}()
	// A cross join that would run for many seconds uncancelled.
	if _, err := io.WriteString(inW, "SELECT count(*) FROM big a, big b WHERE a.k < b.k\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the statement start
	sig <- os.Interrupt
	// The shell must come back for more input: a quick statement works.
	if _, err := io.WriteString(inW, "SELECT 1 + 1\n"); err != nil {
		t.Fatal(err)
	}
	// Wait for the quick statement's result AND the next prompt before
	// interrupting again — an interrupt racing the running statement's
	// select would cancel it instead of exiting at the prompt.
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		s := out.String()
		if strings.Contains(s, "2") && strings.HasSuffix(s, "> ") {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("shell never returned to a clean prompt after the quick statement:\n%s", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Interrupt at the clean prompt exits.
	sig <- os.Interrupt
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shell did not exit on prompt interrupt")
	}
	inW.Close()
	got := out.String()
	if !strings.Contains(got, "canceled") {
		t.Fatalf("output missing statement cancellation:\n%s", got)
	}
	if !strings.Contains(got, "2") {
		t.Fatalf("statement after cancellation did not run:\n%s", got)
	}
	if !strings.Contains(got, "interrupt") {
		t.Fatalf("output missing prompt-interrupt exit:\n%s", got)
	}
}

// syncBuffer is a goroutine-safe strings.Builder for shell output written
// from the REPL loop and its statement workers.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
