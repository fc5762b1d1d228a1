package sqldb

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCreateTableFull(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE jobs (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		owner VARCHAR(64) NOT NULL,
		prio FLOAT DEFAULT 0.5,
		submitted TIMESTAMP,
		active BOOLEAN DEFAULT TRUE,
		UNIQUE (owner, submitted)
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	s := ct.Schema
	if s.Name != "jobs" || len(s.Columns) != 5 {
		t.Fatalf("schema = %+v", s)
	}
	if !s.Columns[0].AutoIncrement || len(s.PKCols) != 1 || s.PKCols[0] != 0 {
		t.Fatalf("pk = %+v", s)
	}
	if s.Columns[1].Type != Text || !s.Columns[1].NotNull {
		t.Fatalf("owner = %+v", s.Columns[1])
	}
	if !s.Columns[2].HasDefault || s.Columns[2].Default.Float64() != 0.5 {
		t.Fatalf("prio = %+v", s.Columns[2])
	}
	if len(s.Uniques) != 1 || len(s.Uniques[0]) != 2 {
		t.Fatalf("uniques = %+v", s.Uniques)
	}
}

func TestParseSelectClauses(t *testing.T) {
	stmt, err := Parse(`SELECT DISTINCT j.owner AS who, count(*) n
		FROM jobs j LEFT JOIN runs r ON r.job_id = j.id
		WHERE j.state = ? AND j.prio > 0.1
		GROUP BY j.owner HAVING count(*) > 1
		ORDER BY n DESC, who LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if !s.Distinct || len(s.Exprs) != 2 || s.Exprs[0].Alias != "who" || s.Exprs[1].Alias != "n" {
		t.Fatalf("exprs = %+v", s.Exprs)
	}
	if len(s.From) != 2 || s.From[1].Join != JoinLeft || s.From[1].On == nil {
		t.Fatalf("from = %+v", s.From)
	}
	if s.Where == nil || len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatal("missing clauses")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order = %+v", s.OrderBy)
	}
	if s.Limit == nil || s.Offset == nil {
		t.Fatal("missing limit/offset")
	}
	if NumParams(stmt) != 1 {
		t.Fatalf("params = %d", NumParams(stmt))
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse(`SELECT 1 WHERE a = 1 OR b = 2 AND c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	w := stmt.(*SelectStmt).Where.(*Binary)
	if w.Op != "or" {
		t.Fatalf("top op = %s, want or (AND binds tighter)", w.Op)
	}
	if r, ok := w.R.(*Binary); !ok || r.Op != "and" {
		t.Fatalf("right = %+v", w.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt, _ := Parse(`SELECT 1 + 2 * 3 - 4`)
	e := stmt.(*SelectStmt).Exprs[0].Expr.(*Binary)
	// ((1 + (2*3)) - 4)
	if e.Op != "-" {
		t.Fatalf("top = %s", e.Op)
	}
	l := e.L.(*Binary)
	if l.Op != "+" {
		t.Fatalf("left = %s", l.Op)
	}
	if m, ok := l.R.(*Binary); !ok || m.Op != "*" {
		t.Fatalf("mul = %+v", l.R)
	}
}

func TestParseNotVariants(t *testing.T) {
	for _, src := range []string{
		`SELECT 1 WHERE x NOT IN (1,2)`,
		`SELECT 1 WHERE x NOT BETWEEN 1 AND 2`,
		`SELECT 1 WHERE x NOT LIKE 'a%'`,
		`SELECT 1 WHERE x IS NOT NULL`,
		`SELECT 1 WHERE NOT (x = 1)`,
	} {
		if _, err := Parse(src); err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC 1`,
		`SELECT FROM t`,
		`CREATE TABLE ()`,
		`CREATE TABLE t (x INTEGER PRIMARY KEY, y TEXT PRIMARY KEY)`,
		`INSERT INTO t`,
		`INSERT INTO t VALUES (1,`,
		`SELECT * FROM t WHERE`,
		`SELECT 'unterminated`,
		`UPDATE t SET`,
		`DELETE t`,
		`CREATE UNIQUE TABLE t (x INTEGER)`,
		`SELECT 1 !`,
		`SELECT 1; SELECT 2`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt, err := Parse(`SELECT 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := stmt.(*SelectStmt).Exprs[0].Expr.(*Literal)
	if lit.Val.Text() != "it's" {
		t.Fatalf("text = %q", lit.Val.Text())
	}
}

func TestParseComments(t *testing.T) {
	stmt, err := Parse("SELECT 1 -- trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*SelectStmt); !ok {
		t.Fatal("wrong statement")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select * from T where X = 1 order by X`); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(`SeLeCt 1`); err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	stmt, err := Parse(`SELECT -5, -2.5, 1e3, 2.5e-2`)
	if err != nil {
		t.Fatal(err)
	}
	exprs := stmt.(*SelectStmt).Exprs
	if exprs[0].Expr.(*Literal).Val.Int64() != -5 {
		t.Fatal("-5")
	}
	if exprs[1].Expr.(*Literal).Val.Float64() != -2.5 {
		t.Fatal("-2.5")
	}
	if exprs[2].Expr.(*Literal).Val.Float64() != 1000 {
		t.Fatal("1e3")
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 3 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseSemicolonTolerated(t *testing.T) {
	if _, err := Parse(`SELECT 1;`); err != nil {
		t.Fatal(err)
	}
}

// Property: DDL() output re-parses to an identical schema (round trip).
func TestPropertyDDLRoundTrip(t *testing.T) {
	types := []Type{Int, Float, Text, Bool, Time}
	f := func(colCount uint8, pkCol uint8, seed int64) bool {
		n := int(colCount%6) + 1
		s := TableSchema{Name: "t"}
		for i := 0; i < n; i++ {
			ti := (int(seed%int64(len(types))) + len(types) + i) % len(types)
			s.Columns = append(s.Columns, Column{
				Name: string(rune('a' + i)),
				Type: types[ti],
			})
		}
		pk := int(pkCol) % n
		s.PKCols = []int{pk}
		s.Columns[pk].NotNull = true
		ddl := s.DDL()
		stmt, err := Parse(ddl)
		if err != nil {
			return false
		}
		got := stmt.(*CreateTableStmt).Schema
		return got.DDL() == ddl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lexer never panics and either errors or terminates with EOF
// on arbitrary printable input.
func TestPropertyLexerTotal(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r < 32 || r > 126 {
				return ' '
			}
			return r
		}, s)
		toks, err := lexAll(clean)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].kind == tkEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse holds the parser to the slot contract the binder relies on:
// parsing never panics, every column reference of an accepted statement
// carries its own slot below the statement's count, every slot is carried,
// and the same text parses to the same slots. Inputs are capped at 4 KiB.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`SELECT a, b AS x, count(*) FROM t JOIN u ON t.id = u.id WHERE a > ? GROUP BY a, b HAVING x > 1 ORDER BY x DESC, 2 LIMIT 3 OFFSET 1`,
		`SELECT *, t.* FROM t LEFT JOIN u ON u.a = t.a AND u.b IS NOT NULL`,
		`UPDATE t SET a = a + 1, b = coalesce(b, c) WHERE id IN (1, 2) AND s LIKE 'x%'`,
		`DELETE FROM t WHERE a BETWEEN b AND c OR NOT d`,
		`INSERT INTO t (a, b) VALUES (1, x), (2, -y)`,
		`EXPLAIN SELECT sum(DISTINCT a) FROM t WHERE b = ?`,
		`SELECT 1`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("over 4 KiB")
		}
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		n, slots := parsedSlots(stmt)
		seen := make([]bool, n)
		for _, s := range slots {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("%q: slots %v over a count of %d", src, slots, n)
			}
			seen[s] = true
		}
		if len(slots) != n {
			t.Fatalf("%q: %d column references, count %d", src, len(slots), n)
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("%q parses once, then fails: %v", src, err)
		}
		if n2, slots2 := parsedSlots(again); n2 != n || !slices.Equal(slots, slots2) {
			t.Fatalf("%q: slots %v (count %d), then %v (count %d)", src, slots, n, slots2, n2)
		}
	})
}

// parsedSlots is a statement's column-reference count and the slot of each
// reference, in walk order.
func parsedSlots(stmt Statement) (int, []int) {
	if e, ok := stmt.(*ExplainStmt); ok {
		return parsedSlots(e.Stmt)
	}
	var n int
	switch s := stmt.(type) {
	case *SelectStmt:
		n = s.Slots
	case *UpdateStmt:
		n = s.Slots
	case *DeleteStmt:
		n = s.Slots
	case *InsertStmt:
		n = s.Slots
	}
	var slots []int
	walkStatement(stmt, func(e Expr) {
		if cr, ok := e.(*ColRef); ok {
			slots = append(slots, cr.Slot)
		}
	})
	return n, slots
}
