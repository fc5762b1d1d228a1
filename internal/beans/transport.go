package beans

import (
	"context"
	"database/sql"
	"errors"
	"fmt"

	"condorj2/internal/sqldb"
)

// transport is how a bean operation reaches the engine. Both calls take
// their arguments as engine values, lent for the call.
type transport interface {
	exec(query string, args []sqldb.Value) (sqldb.Result, error)
	query(query string, args []sqldb.Value) (cursor, error)
}

// cursor is a query's result, read a row at a time and a cell at a time.
type cursor interface {
	// len is the number of rows, or -1 when the transport cannot tell
	// before they are read.
	len() int
	next() bool
	col(i int) sqldb.Value
	// close ends the read and reports what it failed with, if anything.
	close() error
}

func transportOf[Q Querier](q Q) transport {
	switch q := any(q).(type) {
	case *sqldb.Tx:
		return (*native)(q)
	case *sql.Tx:
		return viaSQL{q}
	case *sql.DB:
		return viaSQL{q}
	}
	panic("beans: unreachable Querier")
}

// native is the engine's own transaction as a transport. Statements run
// under the transaction's context, as database/sql's ctx-less calls do.
type native sqldb.Tx

func (t *native) exec(query string, args []sqldb.Value) (sqldb.Result, error) {
	return (*sqldb.Tx)(t).ExecValues(context.Background(), query, args...)
}

func (t *native) query(query string, args []sqldb.Value) (cursor, error) {
	rows, err := (*sqldb.Tx)(t).QueryValues(context.Background(), query, args...)
	if err != nil {
		return nil, err
	}
	return (*nativeRows)(rows), nil
}

// nativeRows is the engine's result as a cursor: its cells are read where
// the statement left them, in the result the transaction lent it.
type nativeRows sqldb.Rows

func (r *nativeRows) len() int              { return (*sqldb.Rows)(r).Len() }
func (r *nativeRows) next() bool            { return (*sqldb.Rows)(r).Next() }
func (r *nativeRows) col(i int) sqldb.Value { return (*sqldb.Rows)(r).Col(i) }
func (r *nativeRows) close() error          { return nil }

// viaSQL is a database/sql transaction or pool as a transport: arguments
// cross as their Go values, which the driver turns back into the same
// engine values, and cells come back as the driver's values.
type viaSQL struct {
	c interface {
		ExecContext(ctx context.Context, query string, args ...any) (sql.Result, error)
		QueryContext(ctx context.Context, query string, args ...any) (*sql.Rows, error)
	}
}

func goValues(args []sqldb.Value) []any {
	out := make([]any, len(args))
	for i, v := range args {
		out[i] = v.Go()
	}
	return out
}

func (t viaSQL) exec(query string, args []sqldb.Value) (sqldb.Result, error) {
	res, err := t.c.ExecContext(context.Background(), query, goValues(args)...)
	if err != nil {
		return sqldb.Result{}, err
	}
	id, _ := res.LastInsertId()
	n, _ := res.RowsAffected()
	return sqldb.Result{LastInsertID: id, RowsAffected: n}, nil
}

func (t viaSQL) query(query string, args []sqldb.Value) (cursor, error) {
	rows, err := t.c.QueryContext(context.Background(), query, goValues(args)...)
	if err != nil {
		return nil, err
	}
	cols, err := rows.Columns()
	if err != nil {
		rows.Close()
		return nil, err
	}
	r := &sqlRows{rows: rows, cells: make([]any, len(cols)), dest: make([]any, len(cols)), vals: make([]sqldb.Value, len(cols))}
	for i := range r.cells {
		r.dest[i] = &r.cells[i]
	}
	return r, nil
}

// sqlRows reads a *sql.Rows as a cursor: each row is scanned as the
// driver's values and turned back into engine values.
type sqlRows struct {
	rows  *sql.Rows
	cells []any
	dest  []any // a pointer to each of cells
	vals  []sqldb.Value
	err   error
}

func (r *sqlRows) len() int { return -1 }

func (r *sqlRows) next() bool {
	if r.err != nil || !r.rows.Next() {
		return false
	}
	if r.err = r.rows.Scan(r.dest...); r.err != nil {
		return false
	}
	for i, c := range r.cells {
		if r.vals[i], r.err = sqldb.FromGo(c); r.err != nil {
			return false
		}
	}
	return true
}

func (r *sqlRows) col(i int) sqldb.Value { return r.vals[i] }

func (r *sqlRows) close() error {
	if r.err == nil {
		r.err = r.rows.Err()
	}
	r.rows.Close()
	return r.err
}

// Engine supplies container-managed transactions on the engine's own
// transactions: the native transport, what the application server runs
// on.
type Engine struct {
	DB *sqldb.DB
}

// InTx runs fn inside a read-write transaction under ctx, committing on
// success, rolling back on error and retrying deadlock victims (inTx).
// The context bounds the whole transaction: lock waits, scans and the
// commit's durability wait are all cancelled when it fires.
func (e *Engine) InTx(ctx context.Context, fn func(tx *sqldb.Tx) error) error {
	return inTx(ctx, e, fn)
}

// InReadTx runs fn in one read-only snapshot transaction under ctx: every
// query fn issues sees one consistent commit timestamp, takes no locks,
// and never blocks — or is blocked by — concurrent writers. Deadlock
// retry is unnecessary by construction. Writes inside fn fail.
func (e *Engine) InReadTx(ctx context.Context, fn func(tx *sqldb.Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	tx, err := e.DB.BeginTx(ctx, sqldb.TxOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

func (e *Engine) begin(ctx context.Context) (*sqldb.Tx, error) {
	return e.DB.BeginTx(ctx, sqldb.TxOptions{})
}

// Container supplies container-managed transactions over a pooled
// database/sql handle: the edge transport.
type Container struct {
	// DB is the pooled connection source.
	DB *sql.DB
}

// InTx is Engine.InTx on a database/sql transaction; database/sql also
// rolls the transaction back when ctx fires.
func (c *Container) InTx(ctx context.Context, fn func(tx *sql.Tx) error) error {
	return inTx(ctx, c, fn)
}

func (c *Container) begin(ctx context.Context) (*sql.Tx, error) {
	return c.DB.BeginTx(ctx, nil)
}

// txn is what both transports' transactions resolve with.
type txn interface {
	Commit() error
	Rollback() error
}

// container is what both transports' containers begin read-write
// transactions with.
type container[T txn] interface {
	begin(ctx context.Context) (T, error)
}

// maxRetries bounds the deadlock retries of one InTx transaction.
const maxRetries = 10

// inTx is the one container transaction loop: begin under ctx, run fn,
// commit on success and roll back on error. Deadlock victims are retried
// — the standard container behaviour the paper's entity beans relied on —
// but a cancelled or timed-out transaction is not: the caller stopped
// waiting, so rerunning the work would only burn the server. The engine
// hands its errors through either transport as they are, so the victim is
// known by its type, not by its text.
func inTx[T txn](ctx context.Context, c container[T], fn func(T) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		tx, err := c.begin(ctx)
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Rollback()
		}
		if ctx.Err() != nil || !errors.Is(err, sqldb.ErrDeadlock) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("beans: transaction retries exhausted: %w", lastErr)
}
