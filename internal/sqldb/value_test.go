package sqldb

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueSize pins the cell size: every stored row, row copy and result
// row is a []Value, so a fifth more per cell is a fifth more resident heap.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", got)
	}
}

// TestFloatBitsRoundTrip covers a FLOAT's payload living in the integer
// field as IEEE 754 bits: accessors, the WAL/page encoding, comparison and
// coercion must all behave as they did with a dedicated float64 field,
// including for the values whose bit patterns are easy to get wrong.
func TestFloatBitsRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1, -1, 2.5, -2.5, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		float64(math.MaxInt64), float64(math.MinInt64)} {
		v := NewFloat(f)
		if v.Type() != Float {
			t.Fatalf("NewFloat(%v).Type() = %v", f, v.Type())
		}
		same := func(got float64) bool {
			return math.Float64bits(got) == math.Float64bits(f)
		}
		if !same(v.Float64()) {
			t.Errorf("Float64() = %v, want %v", v.Float64(), f)
		}
		if g, ok := v.Go().(float64); !ok || !same(g) {
			t.Errorf("Go() = %v, want %v", v.Go(), f)
		}
		if v.Int64() != 0 {
			t.Errorf("Int64() on Float %v = %d, want 0", f, v.Int64())
		}
		// The encoding is the 8 IEEE bytes, little-endian, after the tag.
		buf := appendValue(nil, v)
		if len(buf) != 9 || buf[0] != byte(Float) {
			t.Fatalf("encoding of %v = %x", f, buf)
		}
		back, ok := (&byteReader{b: buf}).value()
		if !ok || back != v {
			t.Errorf("decode(encode(%v)) = %v, %v", f, back, ok)
		}
		if fv, err := FromGo(f); err != nil || fv != v {
			t.Errorf("FromGo(%v) = %v, %v", f, fv, err)
		}
	}

	cmp := []struct {
		a, b Value
		want int
	}{
		{NewFloat(negZero), NewFloat(0), 0},
		{NewFloat(negZero), NewInt(0), 0},
		{NewFloat(-1), NewFloat(1), -1},
		{NewFloat(math.Inf(-1)), NewFloat(-math.MaxFloat64), -1},
		{NewFloat(math.Inf(1)), NewInt(math.MaxInt64), 1},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(2.5), NewFloat(2.5), 0},
		// NaN is unordered: neither side is less, so Compare reports 0.
		{NewFloat(math.NaN()), NewFloat(1), 0},
		{NewFloat(1), NewFloat(math.NaN()), 0},
	}
	for _, c := range cmp {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}

	coerced := []struct {
		in   Value
		to   Type
		want Value
		ok   bool
	}{
		{NewInt(7), Float, NewFloat(7), true},
		{NewFloat(7), Int, NewInt(7), true},
		{NewFloat(negZero), Int, NewInt(0), true},
		{NewFloat(-3), Int, NewInt(-3), true},
		{NewFloat(2.5), Int, Value{}, false},
		{NewFloat(math.NaN()), Int, Value{}, false},
		{NewFloat(math.Inf(1)), Float, NewFloat(math.Inf(1)), true},
		{NewFloat(1), Bool, Value{}, false},
		{NewFloat(1), Text, Value{}, false},
	}
	for _, c := range coerced {
		got, err := coerce(c.in, c.to)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("coerce(%v, %v) = %v, %v; want %v, ok=%v", c.in, c.to, got, err, c.want, c.ok)
		}
	}
	if s := NewFloat(negZero).String(); s != "-0" {
		t.Errorf("String(-0) = %q", s)
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Type() != Int || v.Int64() != 42 {
		t.Fatalf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Type() != Float || v.Float64() != 2.5 {
		t.Fatalf("NewFloat: %v", v)
	}
	if v := NewText("hi"); v.Type() != Text || v.Text() != "hi" {
		t.Fatalf("NewText: %v", v)
	}
	if v := NewBool(true); v.Type() != Bool || !v.Bool() {
		t.Fatalf("NewBool: %v", v)
	}
	ts := time.Date(2006, 10, 1, 12, 0, 0, 123456000, time.UTC)
	if v := NewTime(ts); v.Type() != Time || !v.TimeValue().Equal(ts) {
		t.Fatalf("NewTime: %v vs %v", v.TimeValue(), ts)
	}
	if !NullValue().IsNull() {
		t.Fatal("NullValue not null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value should be NULL")
	}
}

func TestValueGoRoundTrip(t *testing.T) {
	cases := []any{nil, int64(7), 3.25, "text", true, false,
		time.Date(2007, 1, 2, 3, 4, 5, 0, time.UTC)}
	for _, c := range cases {
		v, err := FromGo(c)
		if err != nil {
			t.Fatalf("FromGo(%v): %v", c, err)
		}
		got := v.Go()
		switch want := c.(type) {
		case time.Time:
			if !got.(time.Time).Equal(want) {
				t.Fatalf("time round trip: %v != %v", got, want)
			}
		default:
			if got != c {
				t.Fatalf("round trip: %v != %v", got, c)
			}
		}
	}
}

func TestFromGoIntWidths(t *testing.T) {
	for _, c := range []any{int(1), int8(1), int16(1), int32(1), uint(1), uint32(1), uint64(1)} {
		v, err := FromGo(c)
		if err != nil {
			t.Fatalf("FromGo(%T): %v", c, err)
		}
		if v.Type() != Int || v.Int64() != 1 {
			t.Fatalf("FromGo(%T) = %v", c, v)
		}
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Fatal("FromGo(struct{}) should fail")
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	c, err := Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Fatalf("2 vs 2.0: c=%d err=%v", c, err)
	}
	c, _ = Compare(NewInt(2), NewFloat(2.5))
	if c != -1 {
		t.Fatalf("2 vs 2.5: c=%d", c)
	}
	if _, err := Compare(NewInt(1), NewText("x")); err == nil {
		t.Fatal("int vs text should error")
	}
}

func TestCompareNullOrdering(t *testing.T) {
	c, _ := Compare(NullValue(), NewInt(0))
	if c != -1 {
		t.Fatal("NULL should index-order before values")
	}
	c, _ = Compare(NullValue(), NullValue())
	if c != 0 {
		t.Fatal("NULL vs NULL should be 0 for index ordering")
	}
}

func TestCoerce(t *testing.T) {
	v, err := coerce(NewInt(3), Float)
	if err != nil || v.Type() != Float || v.Float64() != 3 {
		t.Fatalf("int→float: %v %v", v, err)
	}
	v, err = coerce(NewFloat(3.0), Int)
	if err != nil || v.Type() != Int || v.Int64() != 3 {
		t.Fatalf("3.0→int: %v %v", v, err)
	}
	if _, err := coerce(NewFloat(3.5), Int); err == nil {
		t.Fatal("3.5→int should fail")
	}
	v, err = coerce(NewInt(1), Bool)
	if err != nil || !v.Bool() {
		t.Fatalf("1→bool: %v %v", v, err)
	}
	if _, err := coerce(NewInt(2), Bool); err == nil {
		t.Fatal("2→bool should fail")
	}
	v, err = coerce(NewText("2006-10-01 12:30:00"), Time)
	if err != nil || v.Type() != Time {
		t.Fatalf("text→time: %v %v", v, err)
	}
	if _, err := coerce(NewText("not a time"), Time); err == nil {
		t.Fatal("bad text→time should fail")
	}
	if _, err := coerce(NewInt(1), Text); err == nil {
		t.Fatal("int→text should fail (no implicit stringification)")
	}
	// NULL coerces to anything.
	v, err = coerce(NullValue(), Text)
	if err != nil || !v.IsNull() {
		t.Fatalf("null coerce: %v %v", v, err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":    NullValue(),
		"42":      NewInt(42),
		"TRUE":    NewBool(true),
		"'it''s'": NewText("it's"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// Property: Compare is antisymmetric and transitive-ish over ints/floats.
func TestPropertyCompareConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: composite key comparison is lexicographic and antisymmetric.
func TestPropertyCompareKeys(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		ka := probe(NewInt(a1), NewInt(a2))
		kb := probe(NewInt(b1), NewInt(b2))
		c := strings.Compare(ka, kb)
		want := 0
		switch {
		case a1 < b1 || (a1 == b1 && a2 < b2):
			want = -1
		case a1 > b1 || (a1 == b1 && a2 > b2):
			want = 1
		}
		return c == want && strings.Compare(kb, ka) == -want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareKeysPrefix(t *testing.T) {
	short := probe(NewInt(1))
	long := probe(NewInt(1), NewInt(0))
	if short >= long || comparePrefix(long, short) != 0 {
		t.Fatal("prefix should order before extension")
	}
}
