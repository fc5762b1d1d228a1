package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyCASImportsDatabaseSQL keeps database/sql at the edge: the service
// layer runs on the engine's own transactions through beans' native
// transport, and the only database/sql in the package is CAS.Pool, the
// handle tests, tools and the benchmark read the CAS through.
func TestOnlyCASImportsDatabaseSQL(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		seen++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "database/sql" && name != "cas.go" {
				t.Errorf("%s imports database/sql: statements of the service layer run on *sqldb.Tx (beans.Engine)", name)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no non-test Go files found beside the test")
	}
}
