package wire_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// checkPacked holds one value (a pointer to a message struct) to the
// packed form's contract: unpacked again it encodes to the same XML, and
// packs to the same bytes.
func checkPacked(t *testing.T, ptr any) {
	t.Helper()
	packed, err := wire.Pack(nil, ptr)
	if err != nil {
		t.Fatalf("Pack(%#v): %v", ptr, err)
	}
	back := reflect.New(reflect.TypeOf(ptr).Elem()).Interface()
	if err := wire.Unpack(packed, back); err != nil {
		t.Fatalf("Unpack(Pack(%#v)) = %v; packed %x", ptr, err, packed)
	}
	want, err := codecEncode(ptr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codecEncode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("XML after the packed trip\n  got %q\n want %q", got, want)
	}
	if again, _ := wire.Pack(nil, back); !bytes.Equal(again, packed) {
		t.Fatalf("repacked %x, packed %x", again, packed)
	}
}

// TestPackRoundTrip runs every message type through the packed form:
// the zero value, generated values — dirty ones carry invalid UTF-8,
// characters XML cannot hold and empty non-nil slices — and the extremes
// of every number.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range messages {
		typ := reflect.TypeOf(m)
		t.Run(typ.Name(), func(t *testing.T) {
			checkPacked(t, reflect.New(typ).Interface())
			for i := 0; i < 300; i++ {
				ptr := reflect.New(typ)
				fill(rng, ptr.Elem(), i%2 == 0)
				checkPacked(t, ptr.Interface())
			}
		})
	}
	checkPacked(t, &core.HeartbeatResponse{Commands: []core.VMCommand{
		{Seq: math.MinInt64, Command: "\xff\x00\uFFFE", MatchID: math.MaxInt64, JobID: -1, Owner: "日本\r\n"},
		{},
	}})
	checkPacked(t, &core.HeartbeatResponse{Commands: []core.VMCommand{}})
	checkPacked(t, &core.ReplShipResponse{AppliedLSN: math.MaxUint64})
	checkPacked(t, &core.SubmitRequest{Priority: math.NaN(), InputDatasets: []int64{0, math.MinInt64}})
}

// TestPackedSizes pins the packed form of the replies the reply store
// keeps most often.
func TestPackedSizes(t *testing.T) {
	beat := &core.HeartbeatResponse{}
	for seq := int64(0); seq < 4; seq++ {
		beat.Commands = append(beat.Commands, core.VMCommand{Seq: seq, Command: core.CmdOK})
	}
	for _, c := range []struct {
		v    any
		want string
	}{
		// count 4, then per command: Seq, "OK", MatchID, JobID, Owner "", LengthSec
		{beat, "04" + "00024f4b00000000" + "02024f4b00000000" + "04024f4b00000000" + "06024f4b00000000"},
		{&core.AcceptMatchResponse{OK: true}, "0100"},
		{&core.SubmitResponse{FirstJobID: 1000, LastJobID: 1009, WorkflowID: -1}, "d00fe20f01"},
	} {
		got, err := wire.Pack(nil, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if h := hex.EncodeToString(got); h != c.want {
			t.Errorf("Pack(%+v) = %s, want %s", c.v, h, c.want)
		}
	}
}

// narrow has the field kinds the message types lack: numbers narrower
// than 64 bits and a float32.
type narrow struct {
	I8  int8     `xml:"I8"`
	U16 uint16   `xml:"U16"`
	F32 float32  `xml:"F32"`
	OK  bool     `xml:"OK"`
	S   []string `xml:"L>S"`
}

// TestUnpackRejects: each input strays from the one byte form, most of
// them from valid's, and is refused.
func TestUnpackRejects(t *testing.T) {
	valid := []byte{0x02, 0x00, 0, 0, 0, 0, 0x01, 0x01, 0x01, 'x'} // {1, 0, 0, true, ["x"]}
	var v narrow
	if err := wire.Unpack(valid, &v); err != nil || v.I8 != 1 || v.U16 != 0 || !v.OK || len(v.S) != 1 || v.S[0] != "x" {
		t.Fatalf("valid input: %+v, %v", v, err)
	}
	// narrow's fields in order: I8 U16 F32 OK S.
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"cut inside the float", valid[:5]},
		{"cut before the last string byte", valid[:len(valid)-1]},
		{"a byte after the value", append(append([]byte(nil), valid...), 0)},
		{"int8 out of range", []byte{0x80, 0x02, 0x00, 0, 0, 0, 0, 0x01, 0x00}},
		{"uint16 out of range", []byte{0x02, 0x80, 0x80, 0x04, 0, 0, 0, 0, 0x01, 0x00}},
		{"varint not shortest", []byte{0x82, 0x00, 0x00, 0, 0, 0, 0, 0x01, 0x00}},
		{"varint past 64 bits", []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"bool byte 2", []byte{0x02, 0x00, 0, 0, 0, 0, 0x02, 0x00}},
		{"signalling NaN float32", []byte{0x02, 0x00, 0x01, 0x00, 0x80, 0x7f, 0x01, 0x00}},
		{"count past the bytes left", []byte{0x02, 0x00, 0, 0, 0, 0, 0x01, 0x02, 0x01}},
		{"length past the bytes left", []byte{0x02, 0x00, 0, 0, 0, 0, 0x01, 0x01, 0x02, 'x'}},
	} {
		if err := wire.Unpack(c.in, &v); err == nil {
			t.Errorf("%s: % x accepted as %+v", c.name, c.in, v)
		}
	}
	if err := wire.Unpack(valid, v); err == nil {
		t.Error("Unpack into a non-pointer accepted")
	}
	if _, err := wire.Pack(nil, (*narrow)(nil)); err == nil {
		t.Error("Pack of a nil pointer accepted")
	}
}

// keyedReplies are the reply types the reply store keeps packed.
var keyedReplies = []any{
	core.SubmitResponse{}, core.HeartbeatResponse{}, core.AcceptMatchResponse{},
	core.ConfigSetResponse{}, core.RegisterDatasetResponse{},
}

// FuzzUnpackPayload feeds arbitrary bytes to Unpack as each keyed reply
// type. Packed replies come back from the log, from page images and from
// shipped groups, so the decoder must not panic, must allocate no more
// than a small multiple of its input, and must accept only what Pack
// writes: an accepted input packs again to exactly itself.
func FuzzUnpackPayload(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i, m := range keyedReplies {
		for j := 0; j < 4; j++ {
			ptr := reflect.New(reflect.TypeOf(m))
			fill(rng, ptr.Elem(), j%2 == 0)
			packed, err := wire.Pack(nil, ptr.Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(packed, uint8(i))
		}
	}
	f.Add([]byte{0x04, 0x00, 0x02, 'O', 'K', 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		out := reflect.New(reflect.TypeOf(keyedReplies[int(which)%len(keyedReplies)])).Interface()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Unpack(data, out)
		runtime.ReadMemStats(&after)
		// TotalAlloc is the whole process's: the constant leaves room for
		// the fuzz worker's own goroutines.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(64<<10)); alloc > limit {
			t.Fatalf("unpacking %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		again, err := wire.Pack(nil, out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted % x as %+v, which packs to % x", data, out, again)
		}
	})
}
