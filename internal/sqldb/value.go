// Package sqldb is an embedded relational database engine written from
// scratch on the Go standard library. It stands in for the IBM DB2 instance
// the CondorJ2 paper ran against: SQL parsing, planning and execution,
// ordered (B+tree) indexes with point, prefix and range scans, strict
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
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
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

// Index keys are byte strings whose order is the index's order, so the
// B+tree compares them with a plain byte compare and a paged tree could
// store them as they are. An entry's key is its indexed columns, each
// encoded by appendKeyValue, then the rid in 8 bytes (appendKeyRid). An
// index column holds one type — every stored value is coerced to its
// column's — so no key compares two types.
//
// Every column encoding is self-delimiting: none is a proper prefix of
// another value's. So a key's leading columns are a byte prefix of it, and
// truncating a key to a probe's length compares the columns the probe has.

// Key tags: NULL first, as Compare orders it.
const (
	keyNull    byte = 0x00
	keyNotNull byte = 0x01
)

// appendKeyValue appends v's index-key encoding to b: keyNull, or
// keyNotNull and then, for Int, Bool and Time, the 8 bytes big-endian with
// the sign bit flipped; for Float, floatKeyBits big-endian; for Text, the
// bytes with each 0x00 written 0x00 0xFF, then the terminator 0x00 0x01.
func appendKeyValue(b []byte, v Value) []byte {
	if v.typ == Null {
		return append(b, keyNull)
	}
	b = append(b, keyNotNull)
	switch v.typ {
	case Float:
		return binary.BigEndian.AppendUint64(b, floatKeyBits(v.float()))
	case Text:
		s := v.s
		for {
			i := strings.IndexByte(s, 0)
			if i < 0 {
				break
			}
			b = append(append(b, s[:i]...), 0x00, 0xFF)
			s = s[i+1:]
		}
		return append(append(b, s...), 0x00, 0x01)
	default: // Int, Bool, Time
		return binary.BigEndian.AppendUint64(b, uint64(v.i)^1<<63)
	}
}

// floatKeyBits maps f's IEEE bits to an unsigned integer in f's order:
// negatives have every bit flipped, the rest the sign bit set. −0 is +0,
// as Compare has them equal; every NaN is the one quiet NaN, which sorts
// above +Inf.
func floatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// appendKeyRid appends an entry key's rid: 8 bytes big-endian, sign bit
// flipped (rids are never negative, but the order holds regardless).
func appendKeyRid(b []byte, rid int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(rid)^1<<63)
}

// keyRid reads the rid back from the last 8 bytes of an entry key.
func keyRid(k string) int64 {
	n := len(k) - 8
	_ = k[n+7]
	u := uint64(k[n])<<56 | uint64(k[n+1])<<48 | uint64(k[n+2])<<40 | uint64(k[n+3])<<32 |
		uint64(k[n+4])<<24 | uint64(k[n+5])<<16 | uint64(k[n+6])<<8 | uint64(k[n+7])
	return int64(u ^ 1<<63)
}

// keyValueLen is the length of the encoded value of type t that k starts
// with.
func keyValueLen(k string, t Type) int {
	if k[0] == keyNull {
		return 1
	}
	if t != Text {
		return 9
	}
	for i := 1; ; {
		j := strings.IndexByte(k[i:], 0)
		if k[i+j+1] == 0x01 {
			return i + j + 2
		}
		i += j + 2
	}
}

// comparePrefix compares k against p after truncating k to p's length, so
// any key extending p compares equal. An empty p compares equal to
// everything.
func comparePrefix(k, p string) int {
	return strings.Compare(k[:min(len(k), len(p))], p)
}

// view is b as a string, not copied: a probe key built in a reused buffer,
// or a key the B+tree assembled in a caller's buffer. It is valid while b
// is not written, and nothing may keep it — the B+tree copies the keys
// insert is given into its leaves.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
