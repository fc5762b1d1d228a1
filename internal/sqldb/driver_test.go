package sqldb

import (
	"context"
	"database/sql"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func openSQL(t *testing.T) (*sql.DB, *DB) {
	t.Helper()
	engine := New()
	pool := sql.OpenDB(engine.Connector())
	t.Cleanup(func() { pool.Close() })
	return pool, engine
}

func TestDriverBasicCRUD(t *testing.T) {
	pool, _ := openSQL(t)
	if _, err := pool.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Exec(`INSERT INTO t (name) VALUES (?)`, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := res.LastInsertId()
	if id != 1 {
		t.Fatalf("LastInsertId = %d", id)
	}
	var name string
	if err := pool.QueryRow(`SELECT name FROM t WHERE id = ?`, id).Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name != "alpha" {
		t.Fatalf("name = %q", name)
	}
}

func TestDriverNullScan(t *testing.T) {
	pool, _ := openSQL(t)
	pool.Exec(`CREATE TABLE t (v INTEGER)`)
	pool.Exec(`INSERT INTO t VALUES (NULL)`)
	var v sql.NullInt64
	if err := pool.QueryRow(`SELECT v FROM t`).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Fatal("NULL scanned as valid")
	}
}

func TestDriverTimeRoundTrip(t *testing.T) {
	pool, _ := openSQL(t)
	pool.Exec(`CREATE TABLE t (at TIMESTAMP)`)
	ts := time.Date(2006, 10, 1, 8, 30, 0, 0, time.UTC)
	if _, err := pool.Exec(`INSERT INTO t VALUES (?)`, ts); err != nil {
		t.Fatal(err)
	}
	var got time.Time
	if err := pool.QueryRow(`SELECT at FROM t`).Scan(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ts) {
		t.Fatalf("time = %v, want %v", got, ts)
	}
}

func TestDriverTransactions(t *testing.T) {
	pool, _ := openSQL(t)
	pool.Exec(`CREATE TABLE t (x INTEGER)`)
	tx, err := pool.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int
	pool.QueryRow(`SELECT count(*) FROM t`).Scan(&n)
	if n != 0 {
		t.Fatal("rolled-back insert visible")
	}
	tx, _ = pool.Begin()
	tx.Exec(`INSERT INTO t VALUES (2)`)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pool.QueryRow(`SELECT count(*) FROM t`).Scan(&n)
	if n != 1 {
		t.Fatal("committed insert not visible")
	}
}

func TestDriverPreparedStatements(t *testing.T) {
	pool, _ := openSQL(t)
	pool.Exec(`CREATE TABLE t (x INTEGER)`)
	stmt, err := pool.Prepare(`INSERT INTO t VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 10; i++ {
		if _, err := stmt.Exec(i); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	pool.QueryRow(`SELECT count(*) FROM t`).Scan(&n)
	if n != 10 {
		t.Fatalf("count = %d", n)
	}
}

func TestDriverConnectionPoolConcurrency(t *testing.T) {
	pool, _ := openSQL(t)
	pool.SetMaxOpenConns(8)
	pool.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, w INTEGER)`)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := pool.Exec(`INSERT INTO t (w) VALUES (?)`, w); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var n int
	pool.QueryRow(`SELECT count(*) FROM t`).Scan(&n)
	if n != 16*20 {
		t.Fatalf("count = %d, want %d", n, 16*20)
	}
	// Ids must be unique (AUTOINCREMENT under concurrency).
	var distinct int
	pool.QueryRow(`SELECT count(DISTINCT id) FROM t`).Scan(&distinct)
	if distinct != n {
		t.Fatalf("distinct ids = %d of %d", distinct, n)
	}
}

// TestDriverTwoPoolsShareTheEngine: a pool is a view of the engine whose
// Connector opened it, not a copy — and the Driver a pool reports opens
// connections onto that same engine whatever name it is given.
func TestDriverTwoPoolsShareTheEngine(t *testing.T) {
	pool, engine := openSQL(t)
	if _, err := pool.Exec(`CREATE TABLE t (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	pool2 := sql.OpenDB(engine.Connector())
	defer pool2.Close()
	if _, err := pool2.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	c, err := pool.Driver().Open("ignored")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.(*conn).db != engine {
		t.Fatal("Driver().Open connected to another engine")
	}
	var n int
	if err := pool.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("shared engine count = %d", n)
	}
}

func TestDriverRowsIteration(t *testing.T) {
	pool, _ := openSQL(t)
	pool.Exec(`CREATE TABLE t (x INTEGER)`)
	for i := 1; i <= 5; i++ {
		pool.Exec(`INSERT INTO t VALUES (?)`, i)
	}
	rows, err := pool.Query(`SELECT x FROM t ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	sum := 0
	for rows.Next() {
		var x int
		if err := rows.Scan(&x); err != nil {
			t.Fatal(err)
		}
		sum += x
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if sum != 15 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestAutocommitIsOnePath: a statement outside a transaction behaves the
// same through DB.QueryContext, DB.ExecContext and a database/sql pool. A
// SELECT reads a snapshot — it takes no lock, so a writer holding the row
// exclusively neither blocks it nor shows it the uncommitted value — and is
// bound by the default statement timeout; a write is exactly one commit;
// transaction-control text is refused (sessions use BeginTx).
func TestAutocommitIsOnePath(t *testing.T) {
	engine, err := Open(Options{VFS: NewMemVFS(), Path: "auto.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	pool := sql.OpenDB(engine.Connector())
	defer pool.Close()
	mustExec(t, engine, `CREATE TABLE kv (id INTEGER PRIMARY KEY, n INTEGER NOT NULL)`)
	mustExec(t, engine, `INSERT INTO kv VALUES (1, 10)`)

	const sel = `SELECT n FROM kv WHERE id = ?`
	selects := map[string]func(ctx context.Context) (int64, error){
		"DB.QueryContext": func(ctx context.Context) (int64, error) {
			rows, err := engine.QueryContext(ctx, sel, 1)
			if err != nil {
				return 0, err
			}
			return rows.Data[0][0].Int64(), nil
		},
		"DB.ExecContext": func(ctx context.Context) (int64, error) {
			_, err := engine.ExecContext(ctx, sel, 1)
			return 10, err // Exec hands back no rows
		},
		"sql.DB": func(ctx context.Context) (n int64, err error) {
			err = pool.QueryRowContext(ctx, sel, 1).Scan(&n)
			return n, err
		},
	}

	writer, err := engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`UPDATE kv SET n = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	for name, run := range selects {
		before, reads := engine.LockStats(), engine.VersionStats().SnapshotReads
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		n, err := run(ctx)
		cancel()
		if err != nil || n != 10 {
			t.Errorf("%s beside a writer: n = %d, err = %v; want the committed 10", name, n, err)
		}
		after := engine.LockStats()
		if after.Acquired != before.Acquired || after.Waited != before.Waited {
			t.Errorf("%s took locks: acquired %d → %d, waited %d → %d", name, before.Acquired, after.Acquired, before.Waited, after.Waited)
		}
		if got := engine.VersionStats().SnapshotReads - reads; got != 1 {
			t.Errorf("%s: %d snapshot reads, want 1", name, got)
		}
	}
	if err := writer.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ls := engine.LockStats(); ls.HeldRow != 0 || ls.HeldTable != 0 {
		t.Errorf("locks left held: %d row, %d table", ls.HeldRow, ls.HeldTable)
	}

	engine.SetStmtTimeout(time.Nanosecond)
	for name, run := range selects {
		if _, err := run(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s under a 1ns default statement timeout: err = %v, want deadline exceeded", name, err)
		}
	}
	engine.SetStmtTimeout(0)

	writes := map[string]func() error{
		"DB.ExecContext": func() error {
			_, err := engine.ExecContext(context.Background(), `UPDATE kv SET n = n + 1 WHERE id = 1`)
			return err
		},
		"sql.DB": func() error {
			_, err := pool.Exec(`UPDATE kv SET n = n + 1 WHERE id = 1`)
			return err
		},
	}
	for name, run := range writes {
		before := engine.WALStats().Commits
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := engine.WALStats().Commits - before; got != 1 {
			t.Errorf("%s: %d commits, want 1", name, got)
		}
	}
	if _, err := engine.QueryContext(context.Background(), `UPDATE kv SET n = 0`); err == nil {
		t.Error("DB.QueryContext ran a write")
	}
	for _, text := range []string{`BEGIN`, `BEGIN READ ONLY`, `COMMIT`, `ROLLBACK`} {
		if _, err := pool.Exec(text); err == nil || !strings.Contains(err.Error(), "session layer") {
			t.Errorf("%s through the driver: err = %v, want the session-layer refusal", text, err)
		}
	}
	if got := mustQuery(t, engine, sel, 1).Data[0][0].Int64(); got != 12 {
		t.Errorf("n = %d after two autocommit increments, want 12", got)
	}
}
