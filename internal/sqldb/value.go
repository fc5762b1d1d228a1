// Package sqldb is an embedded relational database engine written from
// scratch on the Go standard library. It stands in for the IBM DB2 instance
// the CondorJ2 paper ran against: SQL parsing, planning and execution,
// ordered (skiplist) indexes with point, prefix and range scans, strict
// two-phase-locking transactions with deadlock detection, a write-ahead
// log with crash recovery, and a database/sql driver (the paper's "any
// data storage application that provides a JDBC interface").
//
// The dialect covers what a 3-tier cluster manager needs: CREATE TABLE /
// CREATE INDEX, INSERT, SELECT with joins, grouping, ordering and limits,
// UPDATE, DELETE, and explicit transactions. All data is typed (INTEGER,
// FLOAT, TEXT, BOOLEAN, TIMESTAMP) with SQL NULL three-valued logic.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the engine's column types.
type Type uint8

// Column type constants.
const (
	Null Type = iota
	Int
	Float
	Text
	Bool
	Time
)

// String names the type as it appears in DDL.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	case Bool:
		return "BOOLEAN"
	case Time:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single SQL value. The zero Value is SQL NULL. It is 32 bytes:
// every stored row, row copy and result row is a []Value, so a field here
// is a field on every cell the engine holds.
type Value struct {
	typ Type
	i   int64 // Int; Bool (0/1); Time (microseconds since Unix epoch, UTC); Float (IEEE 754 bits)
	s   string
}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{typ: Int, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{typ: Float, i: int64(math.Float64bits(v))} }

// float returns a Float value's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{typ: Text, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: Bool, i: i}
}

// NewTime returns a TIMESTAMP value with microsecond precision in UTC.
func NewTime(v time.Time) Value {
	return Value{typ: Time, i: v.UTC().UnixMicro()}
}

// NullValue returns SQL NULL.
func NullValue() Value { return Value{} }

// Type reports the value's type; NULL for the zero Value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.typ == Null }

// Int64 returns the value as an int64 (Int, Bool and Time values; 0 for
// a Float, whose bits share the field).
func (v Value) Int64() int64 {
	if v.typ == Float {
		return 0
	}
	return v.i
}

// Float64 returns the numeric value as float64 (Int and Float values).
func (v Value) Float64() float64 {
	if v.typ == Int {
		return float64(v.i)
	}
	return v.float()
}

// Text returns the TEXT payload.
func (v Value) Text() string { return v.s }

// Bool returns the BOOLEAN payload.
func (v Value) Bool() bool { return v.Int64() != 0 }

// TimeValue returns the TIMESTAMP payload in UTC.
func (v Value) TimeValue() time.Time { return time.UnixMicro(v.Int64()).UTC() }

// Go converts to the natural Go representation used by database/sql.
func (v Value) Go() any {
	switch v.typ {
	case Null:
		return nil
	case Int:
		return v.i
	case Float:
		return v.float()
	case Text:
		return v.s
	case Bool:
		return v.i != 0
	case Time:
		return v.TimeValue()
	default:
		return nil
	}
}

// FromGo converts a Go value into a Value. It accepts the database/sql
// driver value vocabulary plus all Go integer widths.
func FromGo(x any) (Value, error) {
	switch v := x.(type) {
	case nil:
		return NullValue(), nil
	case int:
		return NewInt(int64(v)), nil
	case int8:
		return NewInt(int64(v)), nil
	case int16:
		return NewInt(int64(v)), nil
	case int32:
		return NewInt(int64(v)), nil
	case int64:
		return NewInt(v), nil
	case uint:
		return NewInt(int64(v)), nil
	case uint32:
		return NewInt(int64(v)), nil
	case uint64:
		return NewInt(int64(v)), nil
	case float32:
		return NewFloat(float64(v)), nil
	case float64:
		return NewFloat(v), nil
	case string:
		return NewText(v), nil
	case []byte:
		return NewText(string(v)), nil
	case bool:
		return NewBool(v), nil
	case time.Time:
		return NewTime(v), nil
	case Value:
		return v, nil
	default:
		return Value{}, fmt.Errorf("sqldb: unsupported Go type %T", x)
	}
}

// String renders the value for display and for DDL round-tripping.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Bool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case Time:
		return "'" + v.TimeValue().Format(timeLayout) + "'"
	default:
		return "?"
	}
}

const timeLayout = "2006-01-02 15:04:05.999999"

func (v Value) isNumeric() bool { return v.typ == Int || v.typ == Float }

// Compare orders two non-NULL values. Numeric types compare numerically
// across Int/Float. Comparing incompatible types returns an error.
// Comparisons involving NULL must be handled by the caller (three-valued
// logic); Compare treats NULL as less than everything for index ordering.
func Compare(a, b Value) (int, error) {
	if a.typ == Null || b.typ == Null {
		switch {
		case a.typ == Null && b.typ == Null:
			return 0, nil
		case a.typ == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.isNumeric() && b.isNumeric() {
		if a.typ == Int && b.typ == Int {
			return cmpInt(a.i, b.i), nil
		}
		return cmpFloat(a.Float64(), b.Float64()), nil
	}
	if a.typ != b.typ {
		return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.typ, b.typ)
	}
	switch a.typ {
	case Text:
		return strings.Compare(a.s, b.s), nil
	case Bool, Time:
		return cmpInt(a.i, b.i), nil
	default:
		return 0, fmt.Errorf("sqldb: cannot compare %s values", a.typ)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// coerce converts v to column type t where a lossless, conventional
// conversion exists (int→float, int 0/1→bool, text timestamp literal→time,
// int/float cross-assignment). It rejects anything else.
func coerce(v Value, t Type) (Value, error) {
	if v.typ == Null || v.typ == t {
		return v, nil
	}
	switch t {
	case Float:
		if v.typ == Int {
			return NewFloat(float64(v.i)), nil
		}
	case Int:
		if f := v.float(); v.typ == Float && f == float64(int64(f)) {
			return NewInt(int64(f)), nil
		}
		if v.typ == Bool {
			return NewInt(v.i), nil
		}
	case Bool:
		if v.typ == Int && (v.i == 0 || v.i == 1) {
			return NewBool(v.i == 1), nil
		}
	case Time:
		if v.typ == Text {
			for _, layout := range []string{timeLayout, "2006-01-02 15:04:05", "2006-01-02", time.RFC3339, time.RFC3339Nano} {
				if ts, err := time.Parse(layout, v.s); err == nil {
					return NewTime(ts), nil
				}
			}
			return Value{}, fmt.Errorf("sqldb: cannot parse %q as TIMESTAMP", v.s)
		}
		if v.typ == Int {
			return Value{typ: Time, i: v.i}, nil
		}
	case Text:
		// No implicit conversion to TEXT; be strict.
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %s value in %s column", v.typ, t)
}

// Key is a composite index key.
type Key []Value

// compareKeys orders composite keys lexicographically; shorter prefixes
// order before longer keys that extend them.
func compareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareKeyPart(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// compareKeyPart orders one key column the way every index does: Compare,
// and — mixed-type keys cannot occur in a well-typed index — by type tag
// as a deterministic safety net.
func compareKeyPart(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		c = int(a.typ) - int(b.typ)
	}
	return c
}
