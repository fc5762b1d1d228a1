package sqldb

// Abstract syntax trees for the SQL dialect. The parser produces these;
// the planner consumes them.

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Schema      TableSchema
	IfNotExists bool
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Index       IndexSchema
	IfNotExists bool
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// DropIndexStmt is DROP INDEX.
type DropIndexStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string // empty means all columns in declaration order
	Rows    [][]Expr
	Slots   int // column references in Rows (ColRef.Slot); VALUES may name none
}

// JoinType distinguishes join flavours.
type JoinType int

// Join flavours.
const (
	JoinInner JoinType = iota
	JoinLeft
)

// TableRef is one table in a FROM clause. The first table of a SELECT has
// Join fields unset.
type TableRef struct {
	Table string
	Alias string // defaults to Table
	Join  JoinType
	On    Expr // nil for the first table
}

// SelectExpr is one projected output of a SELECT.
type SelectExpr struct {
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Distinct bool
	Exprs    []SelectExpr
	From     []TableRef // empty for expression-only SELECT (e.g. SELECT 1+1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr // nil when absent
	// Slots is how many column references the statement holds: the parser
	// numbers them 0..Slots-1 (ColRef.Slot), and a plan resolves each once.
	Slots int

	// plan is the compiled-plan cache slot (plancache.go). The statement
	// cache interns one AST per SQL text, so anchoring the plan here keys
	// it by SQL text with no extra map; ASTs must be shared by pointer.
	plan planSlot
}

// SetClause is one column assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE ... SET ... [WHERE].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
	Slots int // column references in Sets and Where, as on SelectStmt

	// plan caches the compiled target plan (plancache.go): the
	// synthesized single-table SELECT over Where that finds the rows to
	// update.
	plan planSlot
}

// DeleteStmt is DELETE FROM ... [WHERE].
type DeleteStmt struct {
	Table string
	Where Expr
	Slots int // column references in Where, as on SelectStmt

	// plan caches the compiled target plan, as on UpdateStmt.
	plan planSlot
}

// BeginStmt, CommitStmt and RollbackStmt control explicit transactions.
type (
	// BeginStmt is BEGIN [TRANSACTION] [READ ONLY]. ReadOnly selects a
	// lock-free snapshot transaction (DB.BeginReadOnly).
	BeginStmt struct{ ReadOnly bool }
	// CommitStmt is COMMIT.
	CommitStmt struct{}
	// RollbackStmt is ROLLBACK.
	RollbackStmt struct{}
)

func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}
func (*DropIndexStmt) stmtNode()   {}
func (*InsertStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*BeginStmt) stmtNode()       {}
func (*CommitStmt) stmtNode()      {}
func (*RollbackStmt) stmtNode()    {}

// Expr is any SQL expression.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct{ Val Value }

// Param is a positional '?' placeholder (0-based index).
type Param struct{ Index int }

// ColRef names a column, optionally qualified by table or alias. Slot is
// its number within its statement, given by the parser: a plan holds what
// the name resolved to at that position (selectPlan.cols), so evaluation
// reads a row, never a name.
type ColRef struct {
	Table, Name string
	Slot        int
}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-" or "not"
	X  Expr
}

// Binary is a two-operand operation: arithmetic (+ - * / %), comparison
// (= <> < <= > >=), or logical (and, or).
type Binary struct {
	Op   string
	L, R Expr
}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string // lower-case
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// LikeExpr is x [NOT] LIKE pattern, with % and _ wildcards.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (*Literal) exprNode()     {}
func (*Param) exprNode()       {}
func (*ColRef) exprNode()      {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
func (*FuncCall) exprNode()    {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*IsNullExpr) exprNode()  {}
func (*LikeExpr) exprNode()    {}
