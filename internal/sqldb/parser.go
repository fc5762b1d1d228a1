package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	p.accept(tkSym, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	pos    int
	src    string
	params int
	slots  int // column references numbered so far (ColRef.Slot)
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error near byte %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// at reports whether the current token has the given kind and (for idents
// and symbols) text.
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(tkIdent, kw) }

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) expectKeyword(kw string) error {
	if p.accept(tkIdent, kw) {
		return nil
	}
	return p.errf("expected %s, found %q", strings.ToUpper(kw), p.cur().text)
}

// reservedWords cannot be used as identifiers (table, column, alias names).
var reservedWords = map[string]bool{
	"select": true, "insert": true, "update": true, "delete": true,
	"create": true, "drop": true, "from": true, "where": true,
	"group": true, "having": true, "order": true, "limit": true,
	"offset": true, "join": true, "inner": true, "left": true,
	"outer": true, "on": true, "as": true, "and": true, "or": true,
	"not": true, "in": true, "between": true, "like": true, "is": true,
	"null": true, "true": true, "false": true, "values": true,
	"into": true, "set": true, "distinct": true, "union": true,
	"primary": true, "unique": true, "default": true, "table": true,
	"index": true, "begin": true, "commit": true, "rollback": true,
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	name := p.cur().text
	if reservedWords[name] {
		return "", p.errf("reserved word %q cannot be an identifier", name)
	}
	p.advance()
	return name, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("create"):
		return p.parseCreate()
	case p.atKeyword("drop"):
		return p.parseDrop()
	case p.atKeyword("insert"):
		return p.parseInsert()
	case p.atKeyword("select"):
		return p.parseSelect()
	case p.atKeyword("update"):
		return p.parseUpdate()
	case p.atKeyword("delete"):
		return p.parseDelete()
	case p.atKeyword("explain"):
		p.advance()
		start := p.cur().pos
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, SQL: p.src[start:]}, nil
	case p.atKeyword("begin"):
		p.advance()
		p.accept(tkIdent, "transaction")
		if p.accept(tkIdent, "read") {
			if !p.accept(tkIdent, "only") {
				return nil, p.errf("expected ONLY after BEGIN ... READ")
			}
			return &BeginStmt{ReadOnly: true}, nil
		}
		return &BeginStmt{}, nil
	case p.atKeyword("commit"):
		p.advance()
		return &CommitStmt{}, nil
	case p.atKeyword("rollback"):
		p.advance()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errf("unsupported statement starting with %q", p.cur().text)
	}
}

func (p *parser) parseIfNotExists() bool {
	if p.atKeyword("if") {
		p.advance()
		p.expectKeyword("not")
		p.expectKeyword("exists")
		return true
	}
	return false
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // create
	unique := p.accept(tkIdent, "unique")
	switch {
	case p.atKeyword("table"):
		if unique {
			return nil, p.errf("UNIQUE applies to indexes, not tables")
		}
		p.advance()
		return p.parseCreateTable()
	case p.atKeyword("index"):
		p.advance()
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tkSym, "("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Schema: TableSchema{Name: name}, IfNotExists: ine}
	s := &stmt.Schema
	for {
		switch {
		case p.atKeyword("primary"):
			p.advance()
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			cols, err := p.parseColumnNameList()
			if err != nil {
				return nil, err
			}
			if len(s.PKCols) > 0 {
				return nil, p.errf("duplicate PRIMARY KEY")
			}
			for _, c := range cols {
				idx := s.ColumnIndex(c)
				if idx < 0 {
					return nil, p.errf("PRIMARY KEY names unknown column %q", c)
				}
				s.Columns[idx].NotNull = true
				s.PKCols = append(s.PKCols, idx)
			}
		case p.atKeyword("unique"):
			p.advance()
			cols, err := p.parseColumnNameList()
			if err != nil {
				return nil, err
			}
			var u []int
			for _, c := range cols {
				idx := s.ColumnIndex(c)
				if idx < 0 {
					return nil, p.errf("UNIQUE names unknown column %q", c)
				}
				u = append(u, idx)
			}
			s.Uniques = append(s.Uniques, u)
		default:
			col, pk, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
			if pk {
				if len(s.PKCols) > 0 {
					return nil, p.errf("duplicate PRIMARY KEY")
				}
				s.PKCols = []int{len(s.Columns) - 1}
			}
		}
		if p.accept(tkSym, ",") {
			continue
		}
		break
	}
	if err := p.expect(tkSym, ")"); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnNameList() ([]string, error) {
	if err := p.expect(tkSym, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.accept(tkSym, ",") {
			continue
		}
		break
	}
	if err := p.expect(tkSym, ")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *parser) parseColumnDef() (Column, bool, error) {
	var col Column
	name, err := p.ident()
	if err != nil {
		return col, false, err
	}
	col.Name = name
	typ, err := p.parseType()
	if err != nil {
		return col, false, err
	}
	col.Type = typ
	pk := false
	for {
		switch {
		case p.atKeyword("primary"):
			p.advance()
			if err := p.expectKeyword("key"); err != nil {
				return col, false, err
			}
			pk = true
			col.NotNull = true
		case p.atKeyword("autoincrement"):
			p.advance()
			col.AutoIncrement = true
		case p.atKeyword("not"):
			p.advance()
			if err := p.expectKeyword("null"); err != nil {
				return col, false, err
			}
			col.NotNull = true
		case p.atKeyword("default"):
			p.advance()
			v, err := p.parseLiteralValue()
			if err != nil {
				return col, false, err
			}
			col.HasDefault = true
			col.Default = v
		default:
			return col, pk, nil
		}
	}
}

func (p *parser) parseType() (Type, error) {
	name, err := p.ident()
	if err != nil {
		return Null, err
	}
	switch name {
	case "int", "integer", "bigint", "smallint":
		return Int, nil
	case "float", "double", "real", "decimal", "numeric":
		return Float, nil
	case "text", "string", "clob":
		return Text, nil
	case "varchar", "char":
		// Optional length, accepted and ignored: VARCHAR(255).
		if p.accept(tkSym, "(") {
			if p.cur().kind != tkNumber {
				return Null, p.errf("expected length after %s(", name)
			}
			p.advance()
			if err := p.expect(tkSym, ")"); err != nil {
				return Null, err
			}
		}
		return Text, nil
	case "bool", "boolean":
		return Bool, nil
	case "timestamp", "datetime":
		return Time, nil
	default:
		return Null, p.errf("unknown type %q", name)
	}
}

func (p *parser) parseLiteralValue() (Value, error) {
	neg := false
	if p.at(tkSym, "-") {
		neg = true
		p.advance()
	}
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.advance()
		v, err := parseNumber(t.text)
		if err != nil {
			return Value{}, p.errf("%v", err)
		}
		if neg {
			if v.Type() == Int {
				return NewInt(-v.Int64()), nil
			}
			return NewFloat(-v.Float64()), nil
		}
		return v, nil
	case t.kind == tkString:
		p.advance()
		return NewText(t.text), nil
	case t.kind == tkIdent && (t.text == "true" || t.text == "false"):
		p.advance()
		return NewBool(t.text == "true"), nil
	case t.kind == tkIdent && t.text == "null":
		p.advance()
		return NullValue(), nil
	default:
		return Value{}, p.errf("expected literal, found %q", t.text)
	}
}

func parseNumber(text string) (Value, error) {
	if !strings.ContainsAny(text, ".eE") {
		i, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			return NewInt(i), nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Value{}, fmt.Errorf("bad numeric literal %q", text)
	}
	return NewFloat(f), nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseColumnNameList()
	if err != nil {
		return nil, err
	}
	return &CreateIndexStmt{
		Index:       IndexSchema{Name: name, Table: table, Columns: cols, Unique: unique},
		IfNotExists: ine,
	}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // drop
	var isTable bool
	switch {
	case p.atKeyword("table"):
		isTable = true
	case p.atKeyword("index"):
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
	p.advance()
	ifExists := false
	if p.atKeyword("if") {
		p.advance()
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if isTable {
		return &DropTableStmt{Name: name, IfExists: ifExists}, nil
	}
	return &DropIndexStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.at(tkSym, "(") {
		cols, err := p.parseColumnNameList()
		if err != nil {
			return nil, err
		}
		stmt.Columns = cols
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(tkSym, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tkSym, ",") {
				continue
			}
			break
		}
		if err := p.expect(tkSym, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.accept(tkSym, ",") {
			continue
		}
		break
	}
	stmt.Slots = p.slots
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.advance() // select
	stmt := &SelectStmt{}
	stmt.Distinct = p.accept(tkIdent, "distinct")
	p.accept(tkIdent, "all")
	for {
		se, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		stmt.Exprs = append(stmt.Exprs, se)
		if p.accept(tkSym, ",") {
			continue
		}
		break
	}
	if p.accept(tkIdent, "from") {
		refs, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		stmt.From = refs
	}
	if p.accept(tkIdent, "where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.atKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.accept(tkSym, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tkIdent, "having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.atKeyword("order") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tkIdent, "desc") {
				item.Desc = true
			} else {
				p.accept(tkIdent, "asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.accept(tkSym, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tkIdent, "limit") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
	}
	if p.accept(tkIdent, "offset") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Offset = e
	}
	stmt.Slots = p.slots
	return stmt, nil
}

func (p *parser) parseSelectExpr() (SelectExpr, error) {
	if p.accept(tkSym, "*") {
		return SelectExpr{Star: true}, nil
	}
	// t.* needs two tokens of lookahead.
	if p.cur().kind == tkIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tkSym && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tkSym && p.toks[p.pos+2].text == "*" {
		tbl := p.cur().text
		p.pos += 3
		return SelectExpr{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectExpr{}, err
	}
	se := SelectExpr{Expr: e}
	if p.accept(tkIdent, "as") {
		alias, err := p.ident()
		if err != nil {
			return SelectExpr{}, err
		}
		se.Alias = alias
	} else if p.cur().kind == tkIdent && !selectClauseKeyword(p.cur().text) {
		se.Alias = p.cur().text
		p.advance()
	}
	return se, nil
}

func selectClauseKeyword(kw string) bool {
	switch kw {
	case "from", "where", "group", "having", "order", "limit", "offset",
		"inner", "left", "join", "on", "as", "asc", "desc", "and", "or", "not",
		"union", "values", "set":
		return true
	}
	return false
}

func (p *parser) parseFrom() ([]TableRef, error) {
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs := []TableRef{first}
	for {
		var jt JoinType
		switch {
		case p.atKeyword("join"):
			p.advance()
		case p.atKeyword("inner"):
			p.advance()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
		case p.atKeyword("left"):
			p.advance()
			p.accept(tkIdent, "outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		case p.at(tkSym, ","):
			p.advance() // comma join = inner join with ON TRUE; WHERE filters
		default:
			return refs, nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		ref.Join = jt
		if p.accept(tkIdent, "on") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ref.On = e
		}
		refs = append(refs, ref)
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	if p.accept(tkIdent, "as") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tkIdent && !fromClauseKeyword(p.cur().text) {
		ref.Alias = p.cur().text
		p.advance()
	}
	return ref, nil
}

func fromClauseKeyword(kw string) bool {
	switch kw {
	case "join", "inner", "left", "on", "where", "group", "having", "order",
		"limit", "offset", "as", "set", "union":
		return true
	}
	return false
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // update
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tkSym, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Column: col, Value: e})
		if p.accept(tkSym, ",") {
			continue
		}
		break
	}
	if p.accept(tkIdent, "where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	stmt.Slots = p.slots
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // delete
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.accept(tkIdent, "where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	stmt.Slots = p.slots
	return stmt, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or → and → not → comparison (= <> < <= > >= LIKE IN BETWEEN IS) →
//	additive (+ -) → multiplicative (* / %) → unary (-) → primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkIdent, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkIdent, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tkIdent, "not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		not := false
		if p.atKeyword("not") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tkIdent {
			switch p.toks[p.pos+1].text {
			case "in", "between", "like":
				p.advance()
				not = true
			}
		}
		switch {
		case p.at(tkSym, "=") || p.at(tkSym, "<>") || p.at(tkSym, "<") ||
			p.at(tkSym, "<=") || p.at(tkSym, ">") || p.at(tkSym, ">="):
			op := p.cur().text
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		case p.atKeyword("in"):
			p.advance()
			if err := p.expect(tkSym, "("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.accept(tkSym, ",") {
					continue
				}
				break
			}
			if err := p.expect(tkSym, ")"); err != nil {
				return nil, err
			}
			l = &InExpr{X: l, List: list, Not: not}
		case p.atKeyword("between"):
			p.advance()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
		case p.atKeyword("like"):
			p.advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat, Not: not}
		case p.atKeyword("is"):
			p.advance()
			isNot := p.accept(tkIdent, "not")
			if err := p.expectKeyword("null"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: isNot}
		default:
			if not {
				return nil, p.errf("dangling NOT")
			}
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tkSym, "+") || p.at(tkSym, "-") {
		op := p.cur().text
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tkSym, "*") || p.at(tkSym, "/") || p.at(tkSym, "%") {
		op := p.cur().text
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkSym, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok && lit.Val.isNumeric() {
			if lit.Val.Type() == Int {
				return &Literal{Val: NewInt(-lit.Val.Int64())}, nil
			}
			return &Literal{Val: NewFloat(-lit.Val.Float64())}, nil
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.advance()
		v, err := parseNumber(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Literal{Val: v}, nil
	case tkString:
		p.advance()
		return &Literal{Val: NewText(t.text)}, nil
	case tkParam:
		p.advance()
		e := &Param{Index: p.params}
		p.params++
		return e, nil
	case tkSym:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tkSym, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkIdent:
		switch t.text {
		case "true", "false":
			p.advance()
			return &Literal{Val: NewBool(t.text == "true")}, nil
		case "null":
			p.advance()
			return &Literal{Val: NullValue()}, nil
		}
		if reservedWords[t.text] {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		name := t.text
		p.advance()
		// Function call?
		if p.at(tkSym, "(") {
			p.advance()
			fc := &FuncCall{Name: name}
			if p.accept(tkSym, "*") {
				fc.Star = true
			} else if !p.at(tkSym, ")") {
				fc.Distinct = p.accept(tkIdent, "distinct")
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if p.accept(tkSym, ",") {
						continue
					}
					break
				}
			}
			if err := p.expect(tkSym, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column reference?
		cr := &ColRef{Name: name, Slot: p.slots}
		if p.accept(tkSym, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cr.Table, cr.Name = name, col
		}
		p.slots++
		return cr, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// NumParams reports how many '?' placeholders a parsed statement contains.
func NumParams(stmt Statement) int {
	n := 0
	walkStatement(stmt, func(e Expr) {
		if _, ok := e.(*Param); ok {
			n++
		}
	})
	return n
}

func walkStatement(stmt Statement, fn func(Expr)) {
	we := func(e Expr) { walkExpr(e, fn) }
	switch s := stmt.(type) {
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				we(e)
			}
		}
	case *SelectStmt:
		for _, se := range s.Exprs {
			we(se.Expr)
		}
		for _, r := range s.From {
			we(r.On)
		}
		we(s.Where)
		for _, e := range s.GroupBy {
			we(e)
		}
		we(s.Having)
		for _, o := range s.OrderBy {
			we(o.Expr)
		}
		we(s.Limit)
		we(s.Offset)
	case *UpdateStmt:
		for _, set := range s.Sets {
			we(set.Value)
		}
		we(s.Where)
	case *DeleteStmt:
		we(s.Where)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *InExpr:
		walkExpr(x.X, fn)
		for _, a := range x.List {
			walkExpr(a, fn)
		}
	case *BetweenExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *LikeExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Pattern, fn)
	}
}
