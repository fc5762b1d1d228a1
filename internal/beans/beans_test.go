package beans

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorj2/internal/sqldb"
)

// Widget is a test entity exercising every mapped kind.
type Widget struct {
	ID      int64     `bean:"id,pk,auto"`
	Name    string    `bean:"name"`
	Weight  float64   `bean:"weight"`
	Active  bool      `bean:"active"`
	Made    time.Time `bean:"made"`
	private int       // unexported: ignored
}

// PairKey exercises composite primary keys.
type PairKey struct {
	Host string `bean:"host,pk"`
	Slot int64  `bean:"slot,pk"`
	Val  string `bean:"val"`
}

func testPool(t *testing.T) *sql.DB {
	t.Helper()
	_, pool := testEngine(t)
	return pool
}

// testEngine is an in-memory engine holding the test schema, and a
// database/sql pool on it.
func testEngine(t *testing.T) (*sqldb.DB, *sql.DB) {
	t.Helper()
	engine := sqldb.New()
	pool := sql.OpenDB(engine.Connector())
	t.Cleanup(func() { pool.Close() })
	if _, err := pool.Exec(`CREATE TABLE widget (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		weight FLOAT,
		active BOOLEAN,
		made TIMESTAMP
	)`); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(`CREATE TABLE pair_key (
		host TEXT, slot INTEGER, val TEXT, PRIMARY KEY (host, slot)
	)`); err != nil {
		t.Fatal(err)
	}
	return engine, pool
}

func TestMetaMapping(t *testing.T) {
	m, err := MetaOf(Widget{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Table != "widget" {
		t.Fatalf("table = %s", m.Table)
	}
	if len(m.fields) != 5 {
		t.Fatalf("fields = %d (private must be excluded)", len(m.fields))
	}
	if len(m.pks) != 1 || m.pks[0].name != "id" {
		t.Fatalf("pks = %+v", m.pks)
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Widget": "widget", "JobHistory": "job_history",
		"VMState": "vmstate", "MachineHistory2": "machine_history2",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Fatalf("snakeCase(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestInsertFindUpdateDelete(t *testing.T) {
	pool := testPool(t)
	made := time.Date(2006, 10, 1, 9, 0, 0, 0, time.UTC)
	w := &Widget{Name: "gear", Weight: 1.5, Active: true, Made: made}
	if err := Insert(pool, w); err != nil {
		t.Fatal(err)
	}
	if w.ID != 1 {
		t.Fatalf("auto id = %d", w.ID)
	}

	got := &Widget{ID: w.ID}
	if err := Find(pool, got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "gear" || got.Weight != 1.5 || !got.Active || !got.Made.Equal(made) {
		t.Fatalf("found = %+v", got)
	}

	got.Name = "sprocket"
	got.Active = false
	if err := Update(pool, got); err != nil {
		t.Fatal(err)
	}
	again := &Widget{ID: w.ID}
	if err := Find(pool, again); err != nil {
		t.Fatal(err)
	}
	if again.Name != "sprocket" || again.Active {
		t.Fatalf("updated = %+v", again)
	}

	if err := Delete(pool, again); err != nil {
		t.Fatal(err)
	}
	if err := Find(pool, &Widget{ID: w.ID}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("find after delete = %v", err)
	}
}

func TestFindNotFound(t *testing.T) {
	pool := testPool(t)
	err := Find(pool, &Widget{ID: 999})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateDeleteMissingRowsReportNotFound(t *testing.T) {
	pool := testPool(t)
	if err := Update(pool, &Widget{ID: 5, Name: "x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	if err := Delete(pool, &Widget{ID: 5}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing = %v", err)
	}
}

func TestCompositeKey(t *testing.T) {
	pool := testPool(t)
	if err := Insert(pool, &PairKey{Host: "h1", Slot: 2, Val: "a"}); err != nil {
		t.Fatal(err)
	}
	got := &PairKey{Host: "h1", Slot: 2}
	if err := Find(pool, got); err != nil {
		t.Fatal(err)
	}
	if got.Val != "a" {
		t.Fatalf("val = %s", got.Val)
	}
	got.Val = "b"
	if err := Update(pool, got); err != nil {
		t.Fatal(err)
	}
	if err := Delete(pool, &PairKey{Host: "h1", Slot: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectMany(t *testing.T) {
	pool := testPool(t)
	for i := 0; i < 5; i++ {
		active := i%2 == 0
		if err := Insert(pool, &Widget{Name: "w", Weight: float64(i), Active: active, Made: time.Unix(0, 0).UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	ws, err := Select[Widget](pool, "WHERE active = ? ORDER BY weight DESC", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0].Weight != 4 {
		t.Fatalf("selected = %+v", ws)
	}
}

// Blob has a []byte field, loaded from a TEXT column.
type Blob struct {
	ID   int64  `bean:"id,pk"`
	Note string `bean:"note"`
	Body []byte `bean:"body"`
}

// TestEachVisitsThroughOneEntity: Each hands fn every row, in order,
// through one entity loaded afresh each time — a NULL column reads zero
// whatever the row before held — and stops at fn's first error; the bound
// arguments go back to their pool holding nothing of the caller's.
func TestEachVisitsThroughOneEntity(t *testing.T) {
	pool := testPool(t)
	if _, err := pool.Exec(`CREATE TABLE blob (id INTEGER PRIMARY KEY, note TEXT, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{{1, "first", "one"}, {2, nil, nil}, {3, "third", "three"}} {
		if _, err := pool.Exec(`INSERT INTO blob VALUES (?, ?, ?)`, row...); err != nil {
			t.Fatal(err)
		}
	}
	var seen []Blob
	var entity *Blob
	err := Each(pool, func(b *Blob) error {
		if entity == nil {
			entity = b
		} else if b != entity {
			t.Error("Each allocated a second entity")
		}
		seen = append(seen, *b)
		return nil
	}, "ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0].Note != "first" || string(seen[0].Body) != "one" ||
		seen[1].Note != "" || seen[1].Body != nil || seen[2].Note != "third" || string(seen[2].Body) != "three" {
		t.Fatalf("visited %+v", seen)
	}

	stop := errors.New("enough")
	n := 0
	if err := Each(pool, func(*Blob) error { n++; return stop }, "ORDER BY id"); !errors.Is(err, stop) || n != 1 {
		t.Fatalf("Each after fn failed: err %v after %d rows", err, n)
	}

	m, err := MetaOf(Blob{})
	if err != nil {
		t.Fatal(err)
	}
	a := borrowArgs()
	if err := a.bind(&m.fields[1], reflect.ValueOf(&Blob{Note: "bound"}).Elem()); err != nil {
		t.Fatal(err)
	}
	vals := a.vals
	a.release()
	if len(a.vals) != 0 || vals[0] != (sqldb.Value{}) {
		t.Errorf("returned arguments still hold a bound value: %v", vals[:1])
	}
}

// testTx is what the container tests do inside a transaction, on either
// transport.
type testTx interface {
	insert(entity any) error
	exec(sql string, args ...any) error
}

type sqlTestTx struct{ tx *sql.Tx }

func (t sqlTestTx) insert(entity any) error { return Insert(t.tx, entity) }
func (t sqlTestTx) exec(q string, args ...any) error {
	_, err := t.tx.Exec(q, args...)
	return err
}

type engineTestTx struct{ tx *sqldb.Tx }

func (t engineTestTx) insert(entity any) error { return Insert(t.tx, entity) }
func (t engineTestTx) exec(q string, args ...any) error {
	_, err := t.tx.Exec(q, args...)
	return err
}

// inTxFunc is a container's InTx, seen through testTx.
type inTxFunc func(ctx context.Context, fn func(testTx) error) error

// forEachTransport runs f once per transport, each over a fresh engine
// with the test schema: the engine's own transactions (Engine.InTx) and
// database/sql's (Container.InTx). pool reads the engine either way.
func forEachTransport(t *testing.T, f func(t *testing.T, pool *sql.DB, inTx inTxFunc)) {
	t.Run("engine", func(t *testing.T) {
		engine, pool := testEngine(t)
		c := &Engine{DB: engine}
		f(t, pool, func(ctx context.Context, fn func(testTx) error) error {
			return c.InTx(ctx, func(tx *sqldb.Tx) error { return fn(engineTestTx{tx}) })
		})
	})
	t.Run("database/sql", func(t *testing.T) {
		_, pool := testEngine(t)
		c := &Container{DB: pool}
		f(t, pool, func(ctx context.Context, fn func(testTx) error) error {
			return c.InTx(ctx, func(tx *sql.Tx) error { return fn(sqlTestTx{tx}) })
		})
	})
}

func TestInTxCommitAndRollback(t *testing.T) {
	forEachTransport(t, func(t *testing.T, pool *sql.DB, inTx inTxFunc) {
		err := inTx(context.Background(), func(tx testTx) error {
			return tx.insert(&Widget{Name: "tx", Made: time.Unix(0, 0).UTC()})
		})
		if err != nil {
			t.Fatal(err)
		}
		ws, _ := Select[Widget](pool, "")
		if len(ws) != 1 {
			t.Fatalf("committed rows = %d", len(ws))
		}

		sentinel := errors.New("abort")
		err = inTx(context.Background(), func(tx testTx) error {
			if err := tx.insert(&Widget{Name: "doomed", Made: time.Unix(0, 0).UTC()}); err != nil {
				return err
			}
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v", err)
		}
		ws, _ = Select[Widget](pool, "")
		if len(ws) != 1 {
			t.Fatalf("rows after rollback = %d", len(ws))
		}
	})
}

func TestInTxRetriesDeadlocks(t *testing.T) {
	forEachTransport(t, func(t *testing.T, pool *sql.DB, inTx inTxFunc) {
		attempts := 0
		err := inTx(context.Background(), func(testTx) error {
			attempts++
			if attempts < 3 {
				return fmt.Errorf("credit alice: %w", sqldb.ErrDeadlock)
			}
			return nil
		})
		if err != nil || attempts != 3 {
			t.Fatalf("err = %v, attempts = %d", err, attempts)
		}

		// A victim every time: the first run and maxRetries more, then the
		// deadlock is the caller's.
		attempts = 0
		err = inTx(context.Background(), func(testTx) error {
			attempts++
			return sqldb.ErrDeadlock
		})
		if !errors.Is(err, sqldb.ErrDeadlock) || !strings.Contains(err.Error(), "retries exhausted") || attempts != maxRetries+1 {
			t.Fatalf("err = %v after %d attempts, want retries exhausted after %d", err, attempts, maxRetries+1)
		}
	})
}

// TestInTxNoRetryAfterCancel: a victim whose caller has stopped waiting is
// not rerun — the deadlock is answered once.
func TestInTxNoRetryAfterCancel(t *testing.T) {
	forEachTransport(t, func(t *testing.T, pool *sql.DB, inTx inTxFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		attempts := 0
		err := inTx(ctx, func(testTx) error {
			attempts++
			cancel()
			return sqldb.ErrDeadlock
		})
		if !errors.Is(err, sqldb.ErrDeadlock) || attempts != 1 {
			t.Fatalf("err = %v after %d attempts, want the deadlock after 1", err, attempts)
		}
	})
}

// A victim is known by its type: an error that merely says "deadlock" — a
// unique violation on something of that name — is the caller's to see, once.
func TestInTxDoesNotRetryOnTheWordDeadlock(t *testing.T) {
	forEachTransport(t, func(t *testing.T, pool *sql.DB, inTx inTxFunc) {
		if _, err := pool.Exec(`CREATE TABLE deadlock_test (id INTEGER PRIMARY KEY)`); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		err := inTx(context.Background(), func(tx testTx) error {
			attempts++
			return tx.exec(`INSERT INTO deadlock_test VALUES (1), (1)`)
		})
		var uv *sqldb.UniqueViolationError
		if !errors.As(err, &uv) || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v, want a unique violation naming pk_deadlock_test", err)
		}
		if attempts != 1 {
			t.Fatalf("fn ran %d times on a non-deadlock error, want once", attempts)
		}
	})
}

// The engine's own victim, through either transport: two transactions take
// the same two rows in opposite orders; the one chosen to break the cycle is
// rerun, and both updates land.
func TestInTxRetriesAnEngineVictim(t *testing.T) {
	forEachTransport(t, func(t *testing.T, pool *sql.DB, inTx inTxFunc) {
		for _, name := range []string{"a", "b"} {
			if err := Insert(pool, &Widget{Name: name, Made: time.Unix(0, 0).UTC()}); err != nil {
				t.Fatal(err)
			}
		}
		var attempts atomic.Int32
		var holding sync.WaitGroup // both first attempts hold their first row
		holding.Add(2)
		run := func(first, second int64) error {
			met := false
			return inTx(context.Background(), func(tx testTx) error {
				attempts.Add(1)
				if err := tx.exec(`UPDATE widget SET weight = weight + 1 WHERE id = ?`, first); err != nil {
					return err
				}
				if !met {
					met = true
					holding.Done()
					holding.Wait()
				}
				return tx.exec(`UPDATE widget SET weight = weight + 1 WHERE id = ?`, second)
			})
		}
		errs := make(chan error, 2)
		go func() { errs <- run(1, 2) }()
		go func() { errs <- run(2, 1) }()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("InTx: %v", err)
			}
		}
		if n := attempts.Load(); n != 3 {
			t.Fatalf("attempts = %d, want 3 (one victim, rerun once)", n)
		}
		ws, err := Select[Widget](pool, "")
		if err != nil || len(ws) != 2 || ws[0].Weight != 2 || ws[1].Weight != 2 {
			t.Fatalf("widgets = %+v, %v; want both weights 2", ws, err)
		}
	})
}

func TestMetaErrors(t *testing.T) {
	if _, err := MetaOf(42); err == nil {
		t.Fatal("MetaOf(int) should fail")
	}
	type NoPK struct {
		X int64 `bean:"x"`
	}
	if _, err := MetaOf(NoPK{}); err == nil {
		t.Fatal("MetaOf without pk should fail")
	}
	if err := Insert(testPool(t), Widget{}); err == nil {
		t.Fatal("Insert of non-pointer should fail")
	}
}
