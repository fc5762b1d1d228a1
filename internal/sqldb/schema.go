package sqldb

import (
	"fmt"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name          string
	Type          Type
	NotNull       bool
	AutoIncrement bool
	HasDefault    bool
	Default       Value
}

// TableSchema describes a table: its columns and declared constraints.
type TableSchema struct {
	Name    string
	Columns []Column
	// PKCols lists primary-key column indexes in declaration order.
	PKCols []int
	// Uniques lists unique constraints, each a set of column indexes.
	Uniques [][]int
}

// ColumnIndex finds a column by (case-insensitive) name, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// validate checks schema well-formedness at CREATE TABLE time.
func (s *TableSchema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("sqldb: empty table name")
	}
	seen := make(map[string]bool, len(s.Columns))
	if len(s.Columns) == 0 {
		return fmt.Errorf("sqldb: table %s has no columns", s.Name)
	}
	for i := range s.Columns {
		c := &s.Columns[i]
		if c.Name == "" {
			return fmt.Errorf("sqldb: table %s: empty column name", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("sqldb: table %s: duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = true
		if c.AutoIncrement && c.Type != Int {
			return fmt.Errorf("sqldb: table %s: AUTOINCREMENT requires INTEGER column, %s is %s", s.Name, c.Name, c.Type)
		}
		if c.HasDefault && !c.Default.IsNull() {
			if _, err := coerce(c.Default, c.Type); err != nil {
				return fmt.Errorf("sqldb: table %s column %s: DEFAULT %s: %v", s.Name, c.Name, c.Default, err)
			}
		}
	}
	for _, pk := range s.PKCols {
		if pk < 0 || pk >= len(s.Columns) {
			return fmt.Errorf("sqldb: table %s: primary key column out of range", s.Name)
		}
	}
	return nil
}

// DDL renders a CREATE TABLE statement that reproduces the schema; used by
// the WAL to make DDL replayable and by the SQL shell's \d command.
func (s *TableSchema) DDL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", s.Name)
	singlePK := len(s.PKCols) == 1
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if singlePK && s.PKCols[0] == i {
			b.WriteString(" PRIMARY KEY")
		}
		if c.AutoIncrement {
			b.WriteString(" AUTOINCREMENT")
		}
		if c.NotNull && !(singlePK && s.PKCols[0] == i) {
			b.WriteString(" NOT NULL")
		}
		if c.HasDefault {
			fmt.Fprintf(&b, " DEFAULT %s", c.Default.String())
		}
	}
	if len(s.PKCols) > 1 {
		names := make([]string, len(s.PKCols))
		for i, idx := range s.PKCols {
			names[i] = s.Columns[idx].Name
		}
		fmt.Fprintf(&b, ", PRIMARY KEY (%s)", strings.Join(names, ", "))
	}
	for _, u := range s.Uniques {
		names := make([]string, len(u))
		for i, idx := range u {
			names[i] = s.Columns[idx].Name
		}
		fmt.Fprintf(&b, ", UNIQUE (%s)", strings.Join(names, ", "))
	}
	b.WriteString(")")
	return b.String()
}

// IndexSchema describes a secondary (or primary) index.
type IndexSchema struct {
	Name    string
	Table   string
	Columns []string // column names in key order
	Unique  bool
}

// DDL renders the CREATE INDEX statement for WAL replay.
func (ix *IndexSchema) DDL() string {
	u := ""
	if ix.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, ix.Name, ix.Table, strings.Join(ix.Columns, ", "))
}
