package sqldb

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"time"
)

// This file implements a database/sql driver over the engine — the Go
// analog of the paper's "any data storage application that provides a JDBC
// interface and is registered with the Application Server". It is the
// edge: the pooled handle tests and the benchmark read the CAS through
// (CAS.Pool), and the second transport of internal/beans. The application server itself
// (internal/core) runs on the engine's own transactions through beans'
// native transport — Tx.ExecValues, Tx.QueryValues and the Rows cursor —
// so no statement of its pays database/sql's per-transaction and
// per-query context, goroutine, argument and per-cell boxing costs.

// Connector returns the driver.Connector for this engine:
// sql.OpenDB(db.Connector()) is a connection pool whose every connection
// runs on db.
func (db *DB) Connector() driver.Connector { return connector{db} }

// connector is both halves database/sql asks for: the Connector, and the
// Driver it must name (whose Open ignores the DSN — the engine is the value
// itself, not something a name is resolved to).
type connector struct{ db *DB }

func (c connector) Connect(context.Context) (driver.Conn, error) { return &conn{db: c.db}, nil }
func (c connector) Driver() driver.Driver                        { return c }
func (c connector) Open(string) (driver.Conn, error)             { return &conn{db: c.db}, nil }

type conn struct {
	db *DB
	tx *Tx
}

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
	_ driver.ConnBeginTx    = (*conn)(nil)
	_ driver.Validator      = (*conn)(nil)
)

// Prepare interns the AST through db.parse, so every prepared handle
// for the same SQL text shares one AST — and with it the AST's cached
// compiled plan (plancache.go). database/sql connection pooling
// therefore gets plan reuse across connections for free.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	ast, err := c.db.parse(query)
	if err != nil {
		return nil, err
	}
	return &stmt{conn: c, ast: ast, numInput: NumParams(ast)}, nil
}

func (c *conn) Close() error {
	if c.tx != nil {
		err := c.tx.Rollback()
		c.tx = nil
		return err
	}
	return nil
}

func (c *conn) Begin() (driver.Tx, error) { return c.BeginTx(context.Background(), driver.TxOptions{}) }

// BeginTx implements driver.ConnBeginTx. Isolation options are accepted
// but the engine provides serializable isolation (strict 2PL) for
// read-write transactions; sql.TxOptions{ReadOnly: true} starts a
// lock-free snapshot transaction instead (snapshot isolation: repeatable
// reads, no dirty or phantom reads, writes rejected). ctx becomes the
// transaction's base context: statements issued without their own
// context (tx.Exec under database/sql) inherit its cancellation and
// deadline, so cancelling the BeginTx context aborts in-flight work
// engine-side while database/sql rolls the sql.Tx back.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if c.tx != nil {
		return nil, fmt.Errorf("sqldb: connection already has an open transaction")
	}
	tx, err := c.db.BeginTx(ctx, TxOptions{ReadOnly: opts.ReadOnly})
	if err != nil {
		return nil, err
	}
	c.tx = tx
	return (*connTx)(c), nil
}

// IsValid implements driver.Validator so pooled connections are reused.
func (c *conn) IsValid() bool { return !c.db.closed.Load() }

// run executes a statement on the connection's transaction, or through
// DB.autocommit when none is open, under ctx (the caller's real context:
// ExecContext/QueryContext thread it through unmodified, so cancellation
// reaches every engine blocking point). Transactions open and resolve
// through BeginTx and the driver.Tx it returns, never through SQL text.
// database/sql may hold a result past the statement's transaction, so it
// gets one of its own (Rows.own).
func (c *conn) run(ctx context.Context, ast Statement, bind func(*Tx) ([]Value, error)) (Result, *Rows, error) {
	if c.tx == nil {
		return c.db.autocommit(ctx, ast, bind, (*Rows).own)
	}
	params, err := bind(c.tx)
	if err != nil {
		return Result{}, nil, err
	}
	res, rows, err := c.tx.execStmtCtx(ctx, ast, params)
	if rows != nil {
		rows = rows.own()
	}
	return res, rows, err
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	ast, err := c.db.parse(query)
	if err != nil {
		return nil, err
	}
	res, _, err := c.run(ctx, ast, func(tx *Tx) ([]Value, error) { return bindNamed(tx, args) })
	if err != nil {
		return nil, err
	}
	return sqlResult{res}, nil
}

// QueryContext implements driver.QueryerContext.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	ast, err := c.db.parse(query)
	if err != nil {
		return nil, err
	}
	if !isQuery(ast) {
		return nil, errNotQuery
	}
	_, rows, err := c.run(ctx, ast, func(tx *Tx) ([]Value, error) { return bindNamed(tx, args) })
	if err != nil {
		return nil, err
	}
	return rows.driver(), nil
}

// connTx is the connection seen as its open transaction's driver.Tx: the
// same value under a second method set, so BeginTx allocates nothing.
type connTx conn

func (t *connTx) Commit() error {
	if t.tx == nil {
		return ErrTxDone
	}
	err := t.tx.Commit()
	t.tx = nil
	return err
}

func (t *connTx) Rollback() error {
	if t.tx == nil {
		return ErrTxDone
	}
	err := t.tx.Rollback()
	t.tx = nil
	return err
}

type stmt struct {
	conn     *conn
	ast      Statement
	numInput int
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	res, _, err := s.conn.run(context.Background(), s.ast, func(tx *Tx) ([]Value, error) { return bindValues(tx, args) })
	if err != nil {
		return nil, err
	}
	return sqlResult{res}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if !isQuery(s.ast) {
		return nil, errNotQuery
	}
	_, rows, err := s.conn.run(context.Background(), s.ast, func(tx *Tx) ([]Value, error) { return bindValues(tx, args) })
	if err != nil {
		return nil, err
	}
	return rows.driver(), nil
}

type sqlResult struct{ res Result }

func (r sqlResult) LastInsertId() (int64, error) { return r.res.LastInsertID, nil }
func (r sqlResult) RowsAffected() (int64, error) { return r.res.RowsAffected, nil }

// driverRows is the driver.Rows face of a result's own cursor. It lives
// inside the Rows it reads (Rows.drv), so handing a result to database/sql
// allocates nothing beyond the result, and Next reads each cell through
// Rows.Col straight into database/sql's dest — boxing it there, which is
// what database/sql's interface asks for.
type driverRows struct{ rows *Rows }

// driver returns the result's driver.Rows cursor, rewound.
func (r *Rows) driver() *driverRows {
	r.pos = 0
	r.drv = driverRows{rows: r}
	return &r.drv
}

func (r *driverRows) Columns() []string { return r.rows.Columns }
func (r *driverRows) Close() error      { return nil }

func (r *driverRows) Next(dest []driver.Value) error {
	if !r.rows.Next() {
		return io.EOF
	}
	for i := range dest {
		dest[i] = r.rows.Col(i).Go()
	}
	return nil
}

// bindValues binds a prepared statement's positional arguments in tx's
// parameter buffer.
func bindValues(tx *Tx, args []driver.Value) ([]Value, error) {
	params := tx.bindParams(len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, err
		}
		params[i] = v
	}
	return params, nil
}

// bindNamed binds a statement's ordinal arguments in tx's parameter buffer.
func bindNamed(tx *Tx, args []driver.NamedValue) ([]Value, error) {
	params := tx.bindParams(len(args))
	for _, a := range args {
		v, err := FromGo(a.Value)
		if err != nil {
			return nil, err
		}
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("sqldb: parameter ordinal %d out of range", a.Ordinal)
		}
		params[a.Ordinal-1] = v
	}
	return params, nil
}

// CheckNamedValue implements driver.NamedValueChecker, widening the value
// vocabulary beyond the database/sql defaults (e.g. time.Time passthrough).
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	switch nv.Value.(type) {
	case nil, int64, float64, bool, []byte, string, time.Time:
		return nil
	}
	v, err := FromGo(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v.Go()
	return nil
}
