package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// ExplainStmt is EXPLAIN <select|update|delete>: it reports the chosen
// access path per table instead of executing the statement.
type ExplainStmt struct {
	Stmt Statement
	// SQL is the explained statement's own text, from the token after
	// EXPLAIN to the end.
	SQL string
}

func (*ExplainStmt) stmtNode() {}

// execExplain plans the wrapped statement and renders one row per step.
func (tx *Tx) execExplain(s *ExplainStmt) (*Rows, error) {
	// EXPLAIN goes through the plan cache like execution does: the
	// explained statement is interned by the statement cache under its own
	// text, so EXPLAIN <sql> and <sql> share one AST and one plan slot, and
	// the plan shown is the one <sql> runs. A hit is rendered with a
	// [CACHED] marker on the access column.
	stmt, err := tx.db.parse(s.SQL)
	if err != nil {
		return nil, err
	}
	// A SELECT explained from a read-only transaction will execute as a
	// snapshot read (the plan is the same either way; the read column says
	// which). UPDATE/DELETE targets always read locked.
	_, isSelect := stmt.(*SelectStmt)
	snap := tx.readOnly && isSelect
	var (
		plan *selectPlan
		hit  bool
	)
	switch inner := stmt.(type) {
	case *SelectStmt:
		plan, hit, err = tx.planSelect(inner)
	case *UpdateStmt:
		plan, hit, err = tx.planTargetPlan(inner, &inner.plan)
	case *DeleteStmt:
		plan, hit, err = tx.planTargetPlan(inner, &inner.plan)
	default:
		return nil, fmt.Errorf("sqldb: EXPLAIN supports SELECT, UPDATE and DELETE")
	}
	if err != nil {
		return nil, err
	}
	// EXPLAIN reads only the catalog and plan, never rows: intention-
	// shared keeps it from blocking behind row-level writers, and a
	// read-only transaction takes nothing at all.
	if !tx.readOnly {
		if err := tx.lockPlan(plan, lockIntentShared, lockIntentShared); err != nil {
			return nil, err
		}
	}
	// The read column renders the concurrency mode per table: SNAPSHOT
	// READ never touches the lock manager; LOCKED READ takes the 2PL
	// shared locks the access path calls for. Plan tests assert monitoring
	// queries really are lock-free through this column.
	readMode := "LOCKED READ"
	if snap {
		readMode = "SNAPSHOT READ"
	}
	cached := ""
	if hit {
		cached = " [CACHED]"
	}
	rows := tx.scratch().lendRows([]string{"table", "access", "read", "join", "rows"})
	// One row per step, in the chosen execution order: the row order IS the
	// join order; the join column is the per-edge strategy (- for a lone
	// table); the rows column is the estimated cumulative cardinality after
	// the step.
	var inputEst float64
	for i := range plan.steps {
		st := &plan.steps[i]
		b := plan.bindings[st.bind]
		join := "-"
		if len(plan.steps) > 1 {
			join = describeStep(st)
		}
		rows.Data = append(rows.Data, []Value{
			NewText(b.tbl.schema.Name),
			NewText(describeAccess(st.access, b.tbl) + cached),
			NewText(readMode),
			NewText(join),
			NewInt(int64(math.Round(st.estOut))),
		})
		inputEst = st.estOut
	}
	// Aggregated SELECTs fold into groups (executor.go); render that as a
	// final pipeline-breaking step with the estimated group count.
	if plan.aggregated {
		rows.Data = append(rows.Data, []Value{
			NewText("-"),
			NewText(describeAggregate(plan.stmt)),
			NewText("-"),
			NewText("-"),
			NewInt(estGroups(plan, inputEst)),
		})
	}
	return rows, nil
}

// describeAggregate renders the hash-aggregation step with its grouping
// keys (empty for a global aggregate).
func describeAggregate(sel *SelectStmt) string {
	if len(sel.GroupBy) == 0 {
		return "HASH AGGREGATE"
	}
	keys := make([]string, len(sel.GroupBy))
	for i, e := range sel.GroupBy {
		keys[i] = exprString(e)
	}
	return fmt.Sprintf("HASH AGGREGATE (%s)", strings.Join(keys, ", "))
}

// estGroups estimates the number of output groups: 1 for a global
// aggregate, the column's distinct count (capped at the input estimate)
// for a key of one cell, and a 1-in-10 reduction otherwise.
func estGroups(plan *selectPlan, inputEst float64) int64 {
	keys := plan.agg.keys
	if len(keys) == 0 {
		return 1
	}
	est := inputEst / 10
	if oneCell(keys) {
		est = plan.bindings[keys[0].bind].tbl.distinctOfCol(keys[0].col)
	}
	est = min(est, inputEst)
	return int64(math.Round(max(est, 1)))
}

// describeStep renders one join step's strategy, including hash-join keys
// and build side.
func describeStep(st *stepPlan) string {
	if st.strat != stratHash {
		return st.strat.String()
	}
	parts := make([]string, len(st.hashOuter))
	for i := range st.hashOuter {
		parts[i] = fmt.Sprintf("%s = %s", exprString(st.hashOuter[i].e), exprString(st.hashInner[i].e))
	}
	side := ""
	if st.buildOuter {
		side = " BUILD OUTER"
	}
	return fmt.Sprintf("HASH JOIN%s (%s)", side, strings.Join(parts, ", "))
}

// describeAccess renders one access path.
func describeAccess(ap accessPlan, tbl *table) string {
	if ap.index == nil {
		return "SEQ SCAN"
	}
	var parts []string
	for j, e := range ap.eqExprs {
		parts = append(parts, fmt.Sprintf("%s = %s",
			tbl.schema.Columns[ap.index.cols[j]].Name, exprString(e)))
	}
	if ap.loExpr != nil || ap.hiExpr != nil {
		col := tbl.schema.Columns[ap.index.cols[len(ap.eqExprs)]].Name
		if ap.loExpr != nil {
			op := ">"
			if ap.loInc {
				op = ">="
			}
			parts = append(parts, fmt.Sprintf("%s %s %s", col, op, exprString(ap.loExpr)))
		}
		if ap.hiExpr != nil {
			op := "<"
			if ap.hiInc {
				op = "<="
			}
			parts = append(parts, fmt.Sprintf("%s %s %s", col, op, exprString(ap.hiExpr)))
		}
	}
	suffix := ""
	if ap.ordered > 0 {
		suffix = " ORDER"
		if ap.reverse {
			suffix = " ORDER REVERSE"
		}
		if ap.grouped {
			// Reverse by this column's values, forward under each.
			suffix += " BY " + tbl.schema.Columns[ap.index.cols[len(ap.eqExprs)]].Name
		}
	}
	return fmt.Sprintf("INDEX SCAN USING %s (%s)%s", ap.index.schema.Name, strings.Join(parts, ", "), suffix)
}

// exprString renders an expression approximately as SQL (for EXPLAIN and
// error messages).
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return "NULL"
	case *Literal:
		return x.Val.String()
	case *Param:
		return fmt.Sprintf("?%d", x.Index+1)
	case *ColRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Unary:
		if x.Op == "not" {
			return "NOT " + exprString(x.X)
		}
		return x.Op + exprString(x.X)
	case *Binary:
		op := x.Op
		if op == "and" || op == "or" {
			op = strings.ToUpper(op)
		}
		return fmt.Sprintf("(%s %s %s)", exprString(x.L), op, exprString(x.R))
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *InExpr:
		items := make([]string, len(x.List))
		for i, a := range x.List {
			items[i] = exprString(a)
		}
		not := ""
		if x.Not {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sIN (%s)", exprString(x.X), not, strings.Join(items, ", "))
	case *BetweenExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sBETWEEN %s AND %s", exprString(x.X), not, exprString(x.Lo), exprString(x.Hi))
	case *IsNullExpr:
		if x.Not {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case *LikeExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sLIKE %s", exprString(x.X), not, exprString(x.Pattern))
	default:
		return fmt.Sprintf("%T", e)
	}
}
