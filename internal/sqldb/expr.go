package sqldb

import (
	"fmt"
	"strings"
	"time"
)

// evalEnv supplies everything an expression needs at evaluation time: the
// current (possibly joined) row, statement parameters, the clock for NOW(),
// and — after aggregation — a group's finished aggregate values.
type evalEnv struct {
	// rows is the row bound to each binding of the plan, noRow on the
	// padded side of a LEFT JOIN; cols is the plan's slot table, where
	// each column reference's slot says which of them it reads.
	rows   []rowImage
	cols   []pick
	params []Value
	now    time.Time

	// A group's finished aggregate values (executor.go), one per aggregate
	// call, at the call's aggIdx position: one env serves every group.
	aggIdx  map[*FuncCall]int
	aggVals []Value

	// aliasRow is the output row being finished, which an ORDER BY or
	// HAVING reference to an output alias reads (a pick with bind -1).
	aliasRow []Value
}

// eval evaluates an expression with SQL NULL semantics: any operand NULL
// makes arithmetic and comparisons NULL; AND/OR use three-valued logic.
func (env *evalEnv) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index >= len(env.params) {
			return Value{}, fmt.Errorf("sqldb: statement wants parameter %d, only %d bound", x.Index+1, len(env.params))
		}
		return env.params[x.Index], nil
	case *ColRef:
		p := env.cols[x.Slot]
		if p.bind < 0 {
			return env.aliasRow[p.col], nil
		}
		return p.of(env.rows), nil
	case *Unary:
		return env.evalUnary(x)
	case *Binary:
		return env.evalBinary(x)
	case *FuncCall:
		if env.aggIdx != nil {
			if i, ok := env.aggIdx[x]; ok {
				return env.aggVals[i], nil
			}
		}
		return env.evalFunc(x)
	case *InExpr:
		return env.evalIn(x)
	case *BetweenExpr:
		return env.evalBetween(x)
	case *IsNullExpr:
		v, err := env.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		return NewBool(v.IsNull() != x.Not), nil
	case *LikeExpr:
		return env.evalLike(x)
	default:
		return Value{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

func (env *evalEnv) evalUnary(x *Unary) (Value, error) {
	v, err := env.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return NullValue(), nil
	}
	switch x.Op {
	case "-":
		switch v.Type() {
		case Int:
			return NewInt(-v.Int64()), nil
		case Float:
			return NewFloat(-v.Float64()), nil
		}
		return Value{}, fmt.Errorf("sqldb: cannot negate %s", v.Type())
	case "not":
		if v.Type() != Bool {
			return Value{}, fmt.Errorf("sqldb: NOT requires BOOLEAN, got %s", v.Type())
		}
		return NewBool(!v.Bool()), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
}

func (env *evalEnv) evalBinary(x *Binary) (Value, error) {
	// Three-valued AND/OR need special NULL handling and short-circuiting.
	if x.Op == "and" || x.Op == "or" {
		l, err := env.eval(x.L)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && l.Type() != Bool {
			return Value{}, fmt.Errorf("sqldb: %s requires BOOLEAN operands", strings.ToUpper(x.Op))
		}
		if x.Op == "and" && !l.IsNull() && !l.Bool() {
			return NewBool(false), nil
		}
		if x.Op == "or" && !l.IsNull() && l.Bool() {
			return NewBool(true), nil
		}
		r, err := env.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && r.Type() != Bool {
			return Value{}, fmt.Errorf("sqldb: %s requires BOOLEAN operands", strings.ToUpper(x.Op))
		}
		switch {
		case l.IsNull() && r.IsNull():
			return NullValue(), nil
		case l.IsNull():
			if x.Op == "and" {
				if !r.Bool() {
					return NewBool(false), nil
				}
			} else if r.Bool() {
				return NewBool(true), nil
			}
			return NullValue(), nil
		case r.IsNull():
			if x.Op == "and" {
				if !l.Bool() {
					return NewBool(false), nil
				}
			} else if l.Bool() {
				return NewBool(true), nil
			}
			return NullValue(), nil
		default:
			if x.Op == "and" {
				return NewBool(l.Bool() && r.Bool()), nil
			}
			return NewBool(l.Bool() || r.Bool()), nil
		}
	}

	l, err := env.eval(x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := env.eval(x.R)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return NullValue(), nil
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := Compare(l, r)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "=":
			return NewBool(c == 0), nil
		case "<>":
			return NewBool(c != 0), nil
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		default:
			return NewBool(c >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		return arith(x.Op, l, r)
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

func arith(op string, l, r Value) (Value, error) {
	if op == "+" && l.Type() == Text && r.Type() == Text {
		return NewText(l.Text() + r.Text()), nil
	}
	if !l.isNumeric() || !r.isNumeric() {
		return Value{}, fmt.Errorf("sqldb: %s requires numeric operands, got %s and %s", op, l.Type(), r.Type())
	}
	if l.Type() == Int && r.Type() == Int {
		a, b := l.Int64(), r.Int64()
		switch op {
		case "+":
			return NewInt(a + b), nil
		case "-":
			return NewInt(a - b), nil
		case "*":
			return NewInt(a * b), nil
		case "/":
			if b == 0 {
				return Value{}, fmt.Errorf("sqldb: division by zero")
			}
			return NewInt(a / b), nil
		case "%":
			if b == 0 {
				return Value{}, fmt.Errorf("sqldb: division by zero")
			}
			return NewInt(a % b), nil
		}
	}
	a, b := l.Float64(), r.Float64()
	switch op {
	case "+":
		return NewFloat(a + b), nil
	case "-":
		return NewFloat(a - b), nil
	case "*":
		return NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return Value{}, fmt.Errorf("sqldb: division by zero")
		}
		return NewFloat(a / b), nil
	case "%":
		return Value{}, fmt.Errorf("sqldb: %% requires INTEGER operands")
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", op)
}

func (env *evalEnv) evalIn(x *InExpr) (Value, error) {
	v, err := env.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return NullValue(), nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := env.eval(item)
		if err != nil {
			return Value{}, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		c, err := Compare(v, iv)
		if err != nil {
			return Value{}, err
		}
		if c == 0 {
			return NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return NullValue(), nil
	}
	return NewBool(x.Not), nil
}

func (env *evalEnv) evalBetween(x *BetweenExpr) (Value, error) {
	v, err := env.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	lo, err := env.eval(x.Lo)
	if err != nil {
		return Value{}, err
	}
	hi, err := env.eval(x.Hi)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return NullValue(), nil
	}
	cl, err := Compare(v, lo)
	if err != nil {
		return Value{}, err
	}
	ch, err := Compare(v, hi)
	if err != nil {
		return Value{}, err
	}
	in := cl >= 0 && ch <= 0
	return NewBool(in != x.Not), nil
}

func (env *evalEnv) evalLike(x *LikeExpr) (Value, error) {
	v, err := env.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	p, err := env.eval(x.Pattern)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || p.IsNull() {
		return NullValue(), nil
	}
	if v.Type() != Text || p.Type() != Text {
		return Value{}, fmt.Errorf("sqldb: LIKE requires TEXT operands")
	}
	return NewBool(likeMatch(v.Text(), p.Text()) != x.Not), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte),
// case-sensitive, by backtracking on %.
func likeMatch(s, pat string) bool {
	var si, pi int
	var starP, starS = -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// aggregateNames is the set of aggregate function names.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// isAggregate reports whether the call is an aggregate invocation.
func isAggregate(fc *FuncCall) bool { return aggregateNames[fc.Name] }

// hasAggregate reports whether the expression tree contains any aggregate.
func hasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if fc, ok := x.(*FuncCall); ok && isAggregate(fc) {
			found = true
		}
	})
	return found
}

func (env *evalEnv) evalFunc(x *FuncCall) (Value, error) {
	if isAggregate(x) {
		return Value{}, fmt.Errorf("sqldb: aggregate %s() used outside aggregation context", strings.ToUpper(x.Name))
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := env.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "abs":
		if err := wantArgs(x, args, 1); err != nil {
			return Value{}, err
		}
		v := args[0]
		if v.IsNull() {
			return v, nil
		}
		switch v.Type() {
		case Int:
			if v.Int64() < 0 {
				return NewInt(-v.Int64()), nil
			}
			return v, nil
		case Float:
			if v.Float64() < 0 {
				return NewFloat(-v.Float64()), nil
			}
			return v, nil
		}
		return Value{}, fmt.Errorf("sqldb: ABS requires a numeric argument")
	case "length":
		if err := wantArgs(x, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return NullValue(), nil
		}
		if args[0].Type() != Text {
			return Value{}, fmt.Errorf("sqldb: LENGTH requires TEXT")
		}
		return NewInt(int64(len(args[0].Text()))), nil
	case "lower", "upper":
		if err := wantArgs(x, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return NullValue(), nil
		}
		if args[0].Type() != Text {
			return Value{}, fmt.Errorf("sqldb: %s requires TEXT", strings.ToUpper(x.Name))
		}
		if x.Name == "lower" {
			return NewText(strings.ToLower(args[0].Text())), nil
		}
		return NewText(strings.ToUpper(args[0].Text())), nil
	case "coalesce", "ifnull":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return NullValue(), nil
	case "now", "current_timestamp":
		if len(args) != 0 {
			return Value{}, fmt.Errorf("sqldb: NOW takes no arguments")
		}
		return NewTime(env.now), nil
	default:
		return Value{}, fmt.Errorf("sqldb: unknown function %s", strings.ToUpper(x.Name))
	}
}

func wantArgs(x *FuncCall, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sqldb: %s expects %d argument(s), got %d", strings.ToUpper(x.Name), n, len(args))
	}
	return nil
}

// truthy applies WHERE semantics: only TRUE passes (NULL and FALSE do not).
func truthy(v Value, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Type() != Bool {
		return false, fmt.Errorf("sqldb: predicate is %s, want BOOLEAN", v.Type())
	}
	return v.Bool(), nil
}
