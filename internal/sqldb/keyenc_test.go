package sqldb

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// refCompareKeys is the order index keys had when they were []Value:
// column by column with Compare, a shorter key first.
func refCompareKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		c, err := Compare(a[i], b[i])
		if err != nil {
			c = int(a[i].typ) - int(b[i].typ)
		}
		if c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// keyEncodingCases are the values of each column type whose encodings are
// easy to get wrong, NULL included.
func keyEncodingCases() map[Type][]Value {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 1, -1, 2.5, -2.5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), float64(math.MaxInt64), float64(math.MinInt64)}
	texts := []string{"", "\x00", "\x00\x00", "\x00\x01", "\x01", "a", "a\x00", "a\x00b", "a\x01", "ab", "b", "\xff", "\xff\x00"}
	times := []time.Time{time.Unix(0, 0), time.Unix(-1, 0), time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2006, 10, 1, 12, 0, 0, 1000, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC)}
	cases := map[Type][]Value{
		Int:  {NewInt(math.MinInt64), NewInt(math.MinInt64 + 1), NewInt(-1), NewInt(0), NewInt(1), NewInt(math.MaxInt64)},
		Bool: {NewBool(false), NewBool(true)},
	}
	for _, f := range floats {
		cases[Float] = append(cases[Float], NewFloat(f))
	}
	for _, s := range texts {
		cases[Text] = append(cases[Text], NewText(s))
	}
	for _, ts := range times {
		cases[Time] = append(cases[Time], NewTime(ts))
	}
	for typ := range cases {
		cases[typ] = append(cases[typ], NullValue())
	}
	return cases
}

// checkKeyPair holds two values of one column type to the key rules: their
// encodings order as Compare does, they are equal exactly when Compare
// says so, neither is a proper prefix of the other, keyValueLen finds each
// one's end, and the order survives a following column and the rid.
func checkKeyPair(t *testing.T, typ Type, a, b Value) {
	t.Helper()
	ea, eb := probe(a), probe(b)
	want := sign(refCompareKeys([]Value{a}, []Value{b}))
	if got := sign(strings.Compare(ea, eb)); got != want {
		t.Fatalf("%v vs %v: bytes order %d, values %d (%x, %x)", a, b, got, want, ea, eb)
	}
	if ea != eb && (strings.HasPrefix(ea, eb) || strings.HasPrefix(eb, ea)) {
		t.Fatalf("%v vs %v: one encoding is a prefix of the other (%x, %x)", a, b, ea, eb)
	}
	if n := keyValueLen(ea+eb, typ); n != len(ea) {
		t.Fatalf("keyValueLen(%v followed by %v) = %d, want %d", a, b, n, len(ea))
	}
	ka, kb := []Value{a, b, NewInt(7)}, []Value{b, a, NewInt(3)}
	if got, want := sign(strings.Compare(entry(7, a, b), entry(3, b, a))), sign(refCompareKeys(ka, kb)); got != want {
		t.Fatalf("entries (%v, %v, 7) vs (%v, %v, 3): bytes order %d, values %d", a, b, b, a, got, want)
	}
}

// TestKeyEncodingOrder: for every column type, the byte order of encoded
// keys is the order the []Value keys had, and every encoding is
// self-delimiting.
func TestKeyEncodingOrder(t *testing.T) {
	for typ, vals := range keyEncodingCases() {
		for _, a := range vals {
			for _, b := range vals {
				checkKeyPair(t, typ, a, b)
			}
		}
	}
	if probe(NullValue()) >= probe(NewInt(math.MinInt64)) || probe(NullValue()) >= probe(NewText("")) {
		t.Error("NULL must sort first")
	}
	if probe(NewFloat(math.Copysign(0, -1))) != probe(NewFloat(0)) {
		t.Error("-0 and +0 must encode alike")
	}
	for _, rid := range []int64{0, 1, 255, 1 << 40, math.MaxInt64} {
		if got := keyRid(entry(rid, NewText("a\x00b"), NullValue())); got != rid {
			t.Errorf("keyRid = %d, want %d", got, rid)
		}
	}
}

// FuzzKeyOrder holds arbitrary pairs of one column type to the key rules.
// NaN has no order under Compare and is pinned by TestKeyEncodingNaN.
func FuzzKeyOrder(f *testing.F) {
	f.Add(uint8(0), int64(-1), int64(1), 0.0, math.Copysign(0, -1), "a", "a\x00b", false, false)
	f.Add(uint8(1), int64(math.MinInt64), int64(math.MaxInt64), math.Inf(-1), math.SmallestNonzeroFloat64, "", "\x00", true, false)
	f.Add(uint8(2), int64(0), int64(0), -2.5, 2.5, "ab", "a", false, true)
	f.Add(uint8(4), int64(1)<<50, int64(-1)<<50, 1.0, 1.0, "\x00\xff", "\x00\x01", false, false)
	f.Fuzz(func(t *testing.T, sel uint8, i1, i2 int64, f1, f2 float64, s1, s2 string, null1, null2 bool) {
		if f1 != f1 || f2 != f2 {
			t.Skip("NaN")
		}
		typ := []Type{Int, Float, Text, Bool, Time}[sel%5]
		make := func(i int64, f float64, s string, null bool) Value {
			switch {
			case null:
				return NullValue()
			case typ == Int:
				return NewInt(i)
			case typ == Float:
				return NewFloat(f)
			case typ == Text:
				return NewText(s)
			case typ == Bool:
				return NewBool(i&1 == 1)
			default:
				return Value{typ: Time, i: i}
			}
		}
		checkKeyPair(t, typ, make(i1, f1, s1, null1), make(i2, f2, s2, null2))
	})
}

// TestKeyEncodingNaN pins what the index does with NaN, which a FLOAT
// column can hold — bound as a parameter, or computed (Inf - Inf). Every
// NaN encodes as one key, above +Inf: an indexed NaN is found by a point
// lookup on NaN, sorts last in an index-ordered walk, and leaves the index
// with its row.
func TestKeyEncodingNaN(t *testing.T) {
	nans := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000042)}
	for _, n := range nans {
		if probe(NewFloat(n)) != probe(NewFloat(math.NaN())) {
			t.Errorf("NaN %x encodes apart from the canonical NaN", math.Float64bits(n))
		}
		if probe(NewFloat(n)) <= probe(NewFloat(math.Inf(1))) {
			t.Errorf("NaN %x does not sort above +Inf", math.Float64bits(n))
		}
	}

	db := New()
	defer db.Close()
	for _, s := range []string{
		`CREATE TABLE f (id INTEGER PRIMARY KEY, x FLOAT)`,
		`CREATE INDEX f_x ON f (x)`,
		`INSERT INTO f VALUES (1, 1.5)`,
		`INSERT INTO f VALUES (3, 1e308 * 10)`,
		`INSERT INTO f VALUES (4, 1e308 * 10 - 1e308 * 10)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := db.Exec(`INSERT INTO f VALUES (2, ?)`, -math.NaN()); err != nil {
		t.Fatal(err)
	}
	ids := func(sql string, args ...any) []int64 {
		t.Helper()
		rows, err := db.Query(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, r := range rows.Data {
			got = append(got, r[0].Int64())
		}
		return got
	}
	for _, q := range []string{`EXPLAIN SELECT id FROM f ORDER BY x LIMIT 10`, `EXPLAIN SELECT id FROM f WHERE x = ?`} {
		rows, err := db.Query(q, math.NaN())
		if err != nil {
			t.Fatal(err)
		}
		if plan := fmt.Sprint(rows.Data); !strings.Contains(plan, "USING f_x") {
			t.Fatalf("%s: %s, want the walk over f_x", q, plan)
		}
	}
	if got := ids(`SELECT id FROM f ORDER BY x LIMIT 10`); len(got) != 4 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ORDER BY x = %v, want 1, 3, then the two NaNs", got)
	}
	if got := ids(`SELECT id FROM f WHERE x = ? ORDER BY id`, math.NaN()); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("x = NaN found %v, want [2 4]", got)
	}
	if _, err := db.Exec(`DELETE FROM f WHERE id = 2 OR id = 4`); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	tbl := db.table("f")
	if n := tbl.findIndex("f_x").tree.size; n != 2 {
		t.Fatalf("f_x holds %d entries after the NaN rows left, want 2", n)
	}
}

// TestUniqueViolationKey: the error of a duplicate key carries the
// violating key's values, in index order.
func TestUniqueViolationKey(t *testing.T) {
	db := New()
	defer db.Close()
	for _, s := range []string{
		`CREATE TABLE vms (id INTEGER PRIMARY KEY, machine TEXT NOT NULL, seq INTEGER NOT NULL, UNIQUE (machine, seq))`,
		`INSERT INTO vms VALUES (1, 'node-a', 0)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.Exec(`INSERT INTO vms VALUES (2, 'node-a', 0)`)
	var uv *UniqueViolationError
	if !errors.As(err, &uv) {
		t.Fatalf("error %T %v, want UniqueViolationError", err, err)
	}
	if want := []Value{NewText("node-a"), NewInt(0)}; len(uv.Key) != 2 || uv.Key[0] != want[0] || uv.Key[1] != want[1] {
		t.Fatalf("Key = %v, want %v", uv.Key, want)
	}
}

// TestKeyLockTargetsAgree: under a unique index on each column type, the
// key lock an INSERT takes is the one a locked point read of the same key
// takes — the read's constant coerced to the column's type first, so an
// INTEGER constant against a FLOAT column names the same lock.
func TestKeyLockTargetsAgree(t *testing.T) {
	at := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		typ          string
		stored, read any
	}{
		{"INTEGER", int64(7), int64(7)},
		{"FLOAT", 3.0, int64(3)},
		{"TEXT", "node-0417", "node-0417"},
		{"BOOLEAN", true, int64(1)},
		{"TIMESTAMP", at, "2006-10-01 00:00:00"},
	} {
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, k ` + c.typ + `, UNIQUE (k))`); err != nil {
			t.Fatal(err)
		}
		keyLocks := func(stmt string, arg any) []lockTarget {
			t.Helper()
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
			if strings.HasPrefix(stmt, "SELECT") {
				_, err = tx.Query(stmt, arg)
			} else {
				_, err = tx.Exec(stmt, arg)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", c.typ, stmt, err)
			}
			uq := db.table("t").findIndex("uq_t_0")
			var got []lockTarget
			for _, l := range tx.locked {
				if l.index == uq.num {
					got = append(got, l)
				}
			}
			return got
		}
		wrote := keyLocks(`INSERT INTO t VALUES (1, ?)`, c.stored)
		read := keyLocks(`SELECT id FROM t WHERE k = ?`, c.read)
		if len(wrote) != 1 || len(read) != 1 || wrote[0] != read[0] {
			t.Errorf("%s: INSERT took key locks %v, the point read %v", c.typ, wrote, read)
		}
		db.Close()
	}
}
