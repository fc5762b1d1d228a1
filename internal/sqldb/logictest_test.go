package sqldb

// Golden-file SQL logic tests: internal/sqldb/testdata/*.sql scripts hold
// statements, expected result rows, and expected EXPLAIN output. One
// table-driven runner executes them all, so a planner change shows up as
// a reviewable golden diff instead of a scattered test edit.
//
// File format (line oriented):
//
//	-- comment            (kept with the following block)
//	exec                  (statement until a blank line; no output)
//	CREATE TABLE t (...)
//
//	query                 (statement until ----, then expected rows)
//	SELECT ... ;
//	----
//	1|idle
//	2|run
//
//	explain               (like query, but runs EXPLAIN <statement>)
//	error                 (statement until ----, then an error substring)
//
// Every query block's expected rows are also what refQuery, the oracle in
// refquery_test.go, must return: a golden the engine and the oracle
// disagree on fails either way.
//
// Regenerate expectations with:
//
//	GOLDEN_UPDATE=1 go test ./internal/sqldb -run TestSQLLogicGolden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type logicBlock struct {
	prefix    []string // comment/blank lines preceding the block, verbatim
	directive string
	arg       string
	sql       []string
	expect    []string
}

func TestSQLLogicGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.sql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files under testdata/ (err=%v)", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) { runLogicFile(t, f) })
	}
}

func parseLogicFile(t *testing.T, path string) []*logicBlock {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var blocks []*logicBlock
	var prefix []string
	i := 0
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "--") {
			prefix = append(prefix, line)
			i++
			continue
		}
		b := &logicBlock{prefix: prefix}
		prefix = nil
		fields := strings.Fields(trimmed)
		b.directive = fields[0]
		if len(fields) > 1 {
			b.arg = strings.Join(fields[1:], " ")
		}
		i++
		switch b.directive {
		case "exec":
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				b.sql = append(b.sql, lines[i])
				i++
			}
		case "query", "explain", "error":
			for i < len(lines) && strings.TrimSpace(lines[i]) != "----" {
				if strings.TrimSpace(lines[i]) == "" {
					t.Fatalf("%s: %s block missing ---- separator", path, b.directive)
				}
				b.sql = append(b.sql, lines[i])
				i++
			}
			i++ // skip ----
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				b.expect = append(b.expect, lines[i])
				i++
			}
		default:
			t.Fatalf("%s: unknown directive %q", path, b.directive)
		}
		blocks = append(blocks, b)
	}
	// Keep the trailing comments on regeneration.
	if len(prefix) > 0 {
		blocks = append(blocks, &logicBlock{prefix: prefix, directive: ""})
	}
	return blocks
}

func renderLogicRows(rows *Rows) []string {
	var out []string
	for _, row := range rows.Data {
		parts := make([]string, len(row))
		for i, v := range row {
			if v.Type() == Text {
				parts[i] = v.Text()
			} else {
				parts[i] = v.String()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func runLogicFile(t *testing.T, path string) {
	t.Helper()
	blocks := parseLogicFile(t, path)
	db := New()
	update := os.Getenv("GOLDEN_UPDATE") != ""
	changed := false
	for bi, b := range blocks {
		sql := strings.TrimSpace(strings.Join(b.sql, "\n"))
		switch b.directive {
		case "":
		case "exec":
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%s block %d: exec %q: %v", path, bi, sql, err)
			}
		case "query", "explain":
			q := sql
			if b.directive == "explain" {
				q = "EXPLAIN " + sql
			}
			rows, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s block %d: query %q: %v", path, bi, q, err)
			}
			got := renderLogicRows(rows)
			if b.directive == "query" {
				ref, err := refQuery(db, q)
				if err != nil {
					t.Fatalf("%s block %d: oracle %q: %v", path, bi, q, err)
				}
				if want := renderLogicRows(ref); !equalLines(want, got) {
					t.Errorf("%s block %d: %q\n engine:\n  %s\noracle:\n  %s",
						path, bi, q, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
				}
			}
			if update {
				if !equalLines(got, b.expect) {
					b.expect = got
					changed = true
				}
				continue
			}
			if !equalLines(got, b.expect) {
				t.Errorf("%s block %d: %q\n got:\n  %s\nwant:\n  %s\n(GOLDEN_UPDATE=1 regenerates)",
					path, bi, q, strings.Join(got, "\n  "), strings.Join(b.expect, "\n  "))
			}
		case "error":
			_, err := db.Query(sql)
			if err == nil {
				if _, err = db.Exec(sql); err == nil {
					t.Errorf("%s block %d: %q succeeded, want error", path, bi, sql)
					continue
				}
			}
			want := strings.TrimSpace(strings.Join(b.expect, "\n"))
			if update {
				if want != err.Error() {
					b.expect = []string{err.Error()}
					changed = true
				}
				continue
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s block %d: error %q does not contain %q", path, bi, err.Error(), want)
			}
		}
	}
	if update && changed {
		writeLogicFile(t, path, blocks)
		t.Logf("regenerated %s", path)
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != strings.TrimRight(b[i], " \t") {
			return false
		}
	}
	return true
}

func writeLogicFile(t *testing.T, path string, blocks []*logicBlock) {
	t.Helper()
	var sb strings.Builder
	for _, b := range blocks {
		for _, p := range b.prefix {
			sb.WriteString(p)
			sb.WriteByte('\n')
		}
		if b.directive == "" {
			continue
		}
		sb.WriteString(b.directive)
		if b.arg != "" {
			sb.WriteString(" " + b.arg)
		}
		sb.WriteByte('\n')
		for _, l := range b.sql {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		switch b.directive {
		case "query", "explain", "error":
			sb.WriteString("----\n")
			for _, l := range b.expect {
				sb.WriteString(l)
				sb.WriteByte('\n')
			}
		}
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
