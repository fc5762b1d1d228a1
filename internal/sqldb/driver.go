package sqldb

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file implements a database/sql driver over the engine — the Go
// analog of the paper's "any data storage application that provides a JDBC
// interface and is registered with the Application Server". The application
// server tier (internal/beans, internal/core) talks to the engine purely
// through database/sql, which supplies the connection pooling the paper
// credits with "reduc[ing] the required number of simultaneous open
// connections to the database".

// DriverName is the name registered with database/sql.
const DriverName = "condorj2db"

var (
	registryMu sync.Mutex
	registry   = make(map[string]*DB)
)

// Serve registers an engine instance under a DSN name so application code
// can sql.Open(DriverName, name). Registering the same name twice replaces
// the previous instance.
func Serve(name string, db *DB) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = db
}

// Unserve removes a DSN registration.
func Unserve(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, name)
}

// Resolve returns the engine registered under a DSN name.
func Resolve(name string) (*DB, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	db, ok := registry[name]
	return db, ok
}

// Driver implements driver.Driver.
type Driver struct{}

func init() { sql.Register(DriverName, Driver{}) }

// Open implements driver.Driver. The DSN must name an engine registered
// with Serve, or use the form "mem:<name>" to lazily create and register a
// fresh in-memory engine shared by all connections to that DSN.
func (Driver) Open(dsn string) (driver.Conn, error) {
	registryMu.Lock()
	db, ok := registry[dsn]
	if !ok && len(dsn) > 4 && dsn[:4] == "mem:" {
		db = New()
		registry[dsn] = db
		ok = true
	}
	registryMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sqldb: no engine registered under DSN %q (call sqldb.Serve first)", dsn)
	}
	return &conn{db: db}, nil
}

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

// run executes a statement on the connection's transaction, or in
// autocommit mode when none is open, under ctx (the caller's real
// context: ExecContext/QueryContext thread it through unmodified, so
// cancellation reaches every engine blocking point). Autocommit
// SELECT/EXPLAIN runs as a lock-free snapshot read, matching DB.Query.
// Transaction-control statements (BEGIN [READ ONLY] / COMMIT / ROLLBACK)
// manage the connection's transaction, so SQL-level `BEGIN READ ONLY`
// opens the same snapshot transaction sql.TxOptions{ReadOnly: true} does
// — note that statement-level transactions bind to one connection (use
// sql.Conn or sql.Tx, not a pooled sql.DB, to keep subsequent statements
// on it).
func (c *conn) run(ctx context.Context, ast Statement, params []Value) (Result, *Rows, error) {
	switch s := ast.(type) {
	case *BeginStmt:
		if c.tx != nil {
			return Result{}, nil, fmt.Errorf("sqldb: connection already has an open transaction")
		}
		// The statement's ctx ends with the BEGIN exchange; the session
		// transaction it opens must not die with it.
		tx, err := c.db.BeginTx(context.Background(), TxOptions{ReadOnly: s.ReadOnly})
		if err != nil {
			return Result{}, nil, err
		}
		c.tx = tx
		return Result{}, nil, nil
	case *CommitStmt:
		if c.tx == nil {
			return Result{}, nil, fmt.Errorf("sqldb: COMMIT with no open transaction")
		}
		err := c.tx.CommitContext(ctx)
		c.tx = nil
		return Result{}, nil, err
	case *RollbackStmt:
		if c.tx == nil {
			return Result{}, nil, fmt.Errorf("sqldb: ROLLBACK with no open transaction")
		}
		err := c.tx.Rollback()
		c.tx = nil
		return Result{}, nil, err
	}
	if c.tx != nil {
		return c.tx.execStmtCtx(ctx, ast, params)
	}
	var tx *Tx
	var err error
	ctx, cancel := c.db.stmtCtx(ctx)
	defer cancel()
	switch ast.(type) {
	case *SelectStmt, *ExplainStmt:
		tx, err = c.db.BeginTx(ctx, TxOptions{ReadOnly: true})
	default:
		tx, err = c.db.BeginTx(ctx, TxOptions{})
	}
	if err != nil {
		return Result{}, nil, err
	}
	tx.implicit = true
	res, rows, err := tx.execStmt(ast, params)
	if err != nil {
		tx.db.noteStmtErr(err)
		tx.Rollback()
		return Result{}, nil, err
	}
	if err := tx.Commit(); err != nil {
		return Result{}, nil, err
	}
	return res, rows, nil
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	ast, err := c.db.parse(query)
	if err != nil {
		return nil, err
	}
	params, err := c.bind(args)
	if err != nil {
		return nil, err
	}
	res, _, err := c.run(ctx, ast, params)
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
	switch ast.(type) {
	case *SelectStmt, *ExplainStmt:
	default:
		return nil, fmt.Errorf("sqldb: Query requires a SELECT or EXPLAIN statement")
	}
	params, err := c.bind(args)
	if err != nil {
		return nil, err
	}
	_, rows, err := c.run(ctx, ast, params)
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
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	res, _, err := s.conn.run(context.Background(), s.ast, params)
	if err != nil {
		return nil, err
	}
	return sqlResult{res}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	switch s.ast.(type) {
	case *SelectStmt, *ExplainStmt:
	default:
		return nil, fmt.Errorf("sqldb: Query requires a SELECT or EXPLAIN statement")
	}
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	_, rows, err := s.conn.run(context.Background(), s.ast, params)
	if err != nil {
		return nil, err
	}
	return rows.driver(), nil
}

type sqlResult struct{ res Result }

func (r sqlResult) LastInsertId() (int64, error) { return r.res.LastInsertID, nil }
func (r sqlResult) RowsAffected() (int64, error) { return r.res.RowsAffected, nil }

// driverRows is the driver.Rows cursor over a materialized result. It
// lives inside the Rows it reads (Rows.drv), so handing a result to
// database/sql allocates nothing beyond the result — and a result of row
// references is read where it lies: Next picks each cell out of the row
// the statement read straight into database/sql's dest.
type driverRows struct {
	rows *Rows
	pos  int
}

// driver returns the result's driver.Rows cursor, rewound.
func (r *Rows) driver() *driverRows {
	r.drv = driverRows{rows: r}
	return &r.drv
}

func (r *driverRows) Columns() []string { return r.rows.Columns }
func (r *driverRows) Close() error      { return nil }

func (r *driverRows) Next(dest []driver.Value) error {
	rows := r.rows
	if rows.picks != nil {
		if (r.pos+1)*rows.width > len(rows.refs) {
			return io.EOF
		}
		refs := rows.refs[r.pos*rows.width : (r.pos+1)*rows.width]
		r.pos++
		for i, p := range rows.picks {
			dest[i] = p.of(refs).Go()
		}
		return nil
	}
	if r.pos >= len(rows.Data) {
		return io.EOF
	}
	row := rows.Data[r.pos]
	r.pos++
	for i, v := range row {
		dest[i] = v.Go()
	}
	return nil
}

func driverToValues(args []driver.Value) ([]Value, error) {
	params := make([]Value, len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, err
		}
		params[i] = v
	}
	return params, nil
}

// bind converts a statement's arguments, borrowing the open transaction's
// parameter buffer when there is one (an autocommit statement's
// transaction does not exist yet).
func (c *conn) bind(args []driver.NamedValue) ([]Value, error) {
	var params []Value
	if c.tx != nil {
		params = c.tx.bindParams(len(args))
	} else {
		params = make([]Value, len(args))
	}
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
