// Command cj2sql is an interactive SQL shell for the embedded database
// engine — the administrator's "expressive query language over the
// operational data". Point it at a CAS WAL file (offline inspection; a
// store the daemon ran paged opens paged — the layout is read from its
// files) or an empty path for a scratch database.
//
//	cj2sql -data /var/lib/condorj2/cas.wal
//	> SELECT state, count(*) FROM jobs GROUP BY state;
//	> \d jobs
//	> \tables
//
// Ctrl-C while a statement runs cancels that statement (the engine
// unwinds its lock waits and scans) and returns to the prompt; Ctrl-C at
// a clean prompt exits the shell.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	"condorj2/internal/sqldb"
)

func main() {
	data := flag.String("data", "", "WAL file to open (empty = scratch in-memory database)")
	sync := flag.String("sync", "group", "WAL sync policy: group (commits wait for their group's fsync) or never (same pipeline, no fsync)")
	flag.Parse()

	db, err := openStore(*data, *sync)
	if err != nil {
		log.Fatalf("cj2sql: %v", err)
	}
	if *data != "" {
		fmt.Printf("opened %s (%d tables)\n", *data, len(db.TableNames()))
	} else {
		fmt.Println("scratch in-memory database")
	}
	defer db.Close()
	interrupts := make(chan os.Signal, 1)
	signal.Notify(interrupts, os.Interrupt)
	defer signal.Stop(interrupts)
	runShellInterruptible(db, os.Stdin, os.Stdout, interrupts)
}

// openStore opens the store whose WAL is at data — log-only or paged, as
// its files say — or a scratch in-memory database for an empty path.
func openStore(data, sync string) (*sqldb.DB, error) {
	if data == "" {
		return sqldb.New(), nil
	}
	policy, err := sqldb.ParseSyncPolicy(sync)
	if err != nil {
		return nil, err
	}
	return sqldb.Open(sqldb.Options{VFS: sqldb.OSVFS{}, Path: data, Sync: policy})
}

// shellSession is the REPL's statement executor: statements run in
// autocommit mode until BEGIN [READ ONLY] opens a session transaction,
// which COMMIT/ROLLBACK resolves. BEGIN READ ONLY gives the
// administrator a lock-free consistent snapshot to explore a live pool
// from, without stalling — or being stalled by — the job pipeline.
type shellSession struct {
	db *sqldb.DB
	tx *sqldb.Tx
}

// runShell drives the read-eval-print loop over the given streams (split
// from main so the shell is testable end to end). Statements are not
// interruptible; main wires runShellInterruptible instead.
func runShell(db *sqldb.DB, in io.Reader, out io.Writer) {
	runShellInterruptible(db, in, out, nil)
}

// runShellInterruptible is the REPL with signal handling: an interrupt
// during a statement cancels that statement's context — the engine backs
// out of lock waits and scans and the shell prints the cancellation —
// while an interrupt at a clean prompt exits the shell. Input is read on
// its own goroutine so the loop can watch lines and interrupts together.
func runShellInterruptible(db *sqldb.DB, in io.Reader, out io.Writer, interrupts <-chan os.Signal) {
	sess := &shellSession{db: db}
	defer sess.close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for {
		fmt.Fprint(out, "> ")
		var line string
		var ok bool
		select {
		case line, ok = <-lines:
			if !ok {
				return
			}
		case <-interrupts:
			fmt.Fprintln(out, "interrupt")
			return
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\tables`:
			for _, t := range db.TableNames() {
				fmt.Fprintln(out, t)
			}
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\d `))
			if schema, ok := db.Schema(name); ok {
				fmt.Fprintln(out, schema.DDL())
			} else {
				fmt.Fprintf(out, "no table %q\n", name)
			}
		default:
			sess.runInterruptible(line, out, interrupts)
		}
	}
}

// close abandons any transaction left open at exit.
func (s *shellSession) close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// runInterruptible executes one statement on a worker goroutine under a
// cancellable context; an interrupt while it runs cancels the context
// and waits for the engine to unwind (promptly — every blocking point is
// ctx-aware), keeping the shell alive at the next prompt.
func (s *shellSession) runInterruptible(sql string, out io.Writer, interrupts <-chan os.Signal) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.run(ctx, sql, out)
	}()
	for {
		select {
		case <-done:
			return
		case <-interrupts:
			fmt.Fprintln(out, "^C cancelling statement")
			cancel()
		}
	}
}

func (s *shellSession) run(ctx context.Context, sql string, out io.Writer) {
	upper := strings.ToUpper(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";")))
	switch {
	case strings.HasPrefix(upper, "BEGIN"):
		if s.tx != nil {
			fmt.Fprintln(out, "error: transaction already open (COMMIT or ROLLBACK first)")
			return
		}
		stmt, err := sqldb.Parse(sql)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		b, ok := stmt.(*sqldb.BeginStmt)
		if !ok {
			fmt.Fprintln(out, "error: expected a BEGIN statement")
			return
		}
		// The session transaction outlives this statement's ctx: open it
		// on the background context; per-statement cancellation still
		// applies to each statement run inside it.
		if b.ReadOnly {
			s.tx, err = s.db.BeginReadOnly()
		} else {
			s.tx, err = s.db.Begin()
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		if b.ReadOnly {
			fmt.Fprintf(out, "begin (read only, snapshot @%d)\n", s.tx.Snapshot())
		} else {
			fmt.Fprintln(out, "begin")
		}
		return
	case upper == "COMMIT", upper == "ROLLBACK":
		if s.tx == nil {
			fmt.Fprintln(out, "error: no open transaction")
			return
		}
		var err error
		if upper == "COMMIT" {
			err = s.tx.CommitContext(ctx)
		} else {
			err = s.tx.Rollback()
		}
		s.tx = nil
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintln(out, strings.ToLower(upper))
		return
	}
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		var rows *sqldb.Rows
		var err error
		if s.tx != nil {
			rows, err = s.tx.QueryContext(ctx, sql)
		} else {
			rows, err = s.db.QueryContext(ctx, sql)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		printRows(out, rows)
		return
	}
	var res sqldb.Result
	var err error
	if s.tx != nil {
		res, err = s.tx.ExecContext(ctx, sql)
	} else {
		res, err = s.db.ExecContext(ctx, sql)
	}
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "ok (%d rows affected)\n", res.RowsAffected)
}

func printRows(out io.Writer, rows *sqldb.Rows) {
	widths := make([]int, len(rows.Columns))
	cells := make([][]string, 0, len(rows.Data)+1)
	header := make([]string, len(rows.Columns))
	for i, c := range rows.Columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range rows.Data {
		line := make([]string, len(row))
		for i, v := range row {
			s := strings.Trim(v.String(), "'")
			line[i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		for i, cell := range line {
			fmt.Fprintf(out, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(out)
		if ri == 0 {
			for _, w := range widths {
				fmt.Fprint(out, strings.Repeat("-", w), "  ")
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "(%d rows)\n", rows.Len())
}
