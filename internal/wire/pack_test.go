package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// messages lists every struct type of core/messages.go plus the wire
// Fault; TestMessagesListIsComplete keeps it honest.
var messages = []any{
	core.ReplShipRequest{}, core.ReplShipResponse{},
	core.ReplJoinRequest{}, core.ReplJoinResponse{},
	core.SubmitRequest{}, core.SubmitResponse{},
	core.VMStatus{}, core.HeartbeatRequest{}, core.VMCommand{}, core.HeartbeatResponse{},
	core.AcceptMatchRequest{}, core.AcceptMatchResponse{},
	core.ReleaseJobRequest{}, core.ReleaseJobResponse{},
	core.StateCount{}, core.PoolStatusRequest{}, core.PoolStatusResponse{},
	core.QueueStatusRequest{}, core.QueueJob{}, core.QueueStatusResponse{},
	core.UserStatsRequest{}, core.UserStatsResponse{},
	core.ConfigGetRequest{}, core.ConfigGetResponse{},
	core.ConfigSetRequest{}, core.ConfigSetResponse{},
	core.RegisterDatasetRequest{}, core.RegisterDatasetResponse{},
	core.ProvenanceRequest{}, core.ProvenanceResponse{},
	wire.Fault{},
}

func TestMessagesListIsComplete(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../core/messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if _, ok := ts.Type.(*ast.StructType); ok {
				declared = append(declared, ts.Name.Name)
			}
		}
		return true
	})
	var listed []string
	for _, m := range messages {
		if typ := reflect.TypeOf(m); typ.PkgPath() == "condorj2/internal/core" {
			listed = append(listed, typ.Name())
		}
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Fatalf("core/messages.go declares %v\nthe tests cover %v", declared, listed)
	}
}

// codecDecode and codecEncode reach the payload decoder and encoder
// through the package's entry points: a payload is what an envelope
// carries.
func codecDecode(data []byte, out any) error {
	return wire.DecodePayload(&wire.Envelope{Action: "test", Payload: data}, out)
}

func codecEncode(v any) ([]byte, error) {
	raw, err := wire.Encode("test", v)
	if err != nil {
		return nil, err
	}
	env, err := wire.DecodeEnvelope(raw)
	if err != nil {
		return nil, err
	}
	return env.Payload, nil
}

// Generated strings are drawn from these pieces: markup, quotes and
// whitespace, multi-byte runes, and bytes that are not UTF-8 or not
// characters at all. The packed form carries a string's bytes as they
// are, so every one of them round-trips.
var pieces = []string{"a", "Z", "0", " ", "node-17", "<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "]]>", "é", "日本", "😀", "\uFFFD", "&amp;", "\x7f",
	"\xff", "\xc3", "\xe2\x82", "\x00", "\x01", "\x1f", "\uFFFE", "\uFFFF", "\xed\xa0\x80"}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// fill sets every field of struct v to a generated value, zero values
// frequent among them. A clean value has no empty non-nil slices, which
// unpack into a fresh value as nil, so it is deeply equal to itself after
// a round trip.
func fill(rng *rand.Rand, v reflect.Value, clean bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i), clean)
		}
	case reflect.String:
		v.SetString(randString(rng))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 0, 1, -1, 42, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(8)])
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Uint64:
		v.SetUint([]uint64{0, 0, 1, math.MaxUint64, rng.Uint64()}[rng.Intn(5)])
	case reflect.Float64:
		v.SetFloat([]float64{0, math.Copysign(0, -1), 1, -2.5, 1e100, 1e-7, math.Inf(1), rng.NormFloat64()}[rng.Intn(8)])
	case reflect.Slice:
		n := []int{0, 0, 1, 2, 5}[rng.Intn(5)]
		switch {
		case n > 0:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i), clean)
			}
		case !clean && rng.Intn(2) == 0:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.SetZero()
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// same compares decoded values: deeply equal, or printing alike (NaN is
// not equal to itself).
func same(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkPacked holds one value (a pointer to a message struct) to the
// packed form's contract: it travels as its packed form, unpacks into a
// fresh value and into a recycled one to values that pack to the same
// bytes, and a clean value (fill) comes back equal to itself.
func checkPacked(t *testing.T, ptr any, clean bool) {
	t.Helper()
	packed, err := wire.Pack(nil, ptr)
	if err != nil {
		t.Fatalf("Pack(%#v): %v", ptr, err)
	}
	if payload, err := codecEncode(ptr); err != nil || !bytes.Equal(payload, packed) {
		t.Fatalf("frame payload %x, %v; packed %x", payload, err, packed)
	}
	typ := reflect.TypeOf(ptr).Elem()
	fresh := reflect.New(typ).Interface()
	if err := codecDecode(packed, fresh); err != nil {
		t.Fatalf("Unpack(Pack(%#v)) = %v; packed %x", ptr, err, packed)
	}
	recycled := reflect.New(typ)
	fill(rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(packed)))), recycled.Elem(), false)
	if err := codecDecode(packed, recycled.Interface()); err != nil {
		t.Fatalf("Unpack(Pack(%#v)) into a recycled value = %v", ptr, err)
	}
	for _, back := range []any{fresh, recycled.Interface()} {
		if again, _ := wire.Pack(nil, back); !bytes.Equal(again, packed) {
			t.Fatalf("unpacked %#v, which packs to %x; packed %x", back, again, packed)
		}
	}
	if clean && !same(fresh, ptr) {
		t.Fatalf("round trip\n  got %#v\n want %#v", fresh, ptr)
	}
}

// TestPackRoundTrip runs every message type through the packed form:
// the zero value, generated values — dirty ones carry empty non-nil
// slices — and the extremes of every number.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range messages {
		typ := reflect.TypeOf(m)
		t.Run(typ.Name(), func(t *testing.T) {
			checkPacked(t, reflect.New(typ).Interface(), true)
			for i := 0; i < 300; i++ {
				ptr := reflect.New(typ)
				clean := i%2 == 0
				fill(rng, ptr.Elem(), clean)
				checkPacked(t, ptr.Interface(), clean)
			}
		})
	}
	checkPacked(t, &core.HeartbeatResponse{Commands: []core.VMCommand{
		{Seq: math.MinInt64, Command: "\xff\x00\uFFFE", MatchID: math.MaxInt64, JobID: -1, Owner: "日本\r\n"},
		{},
	}}, true)
	checkPacked(t, &core.HeartbeatResponse{Commands: []core.VMCommand{}}, false)
	checkPacked(t, &core.ReplShipResponse{AppliedLSN: math.MaxUint64}, true)
	checkPacked(t, &core.SubmitRequest{Priority: math.NaN(), InputDatasets: []int64{0, math.MinInt64}}, true)
	checkPacked(t, &core.ReplShipRequest{Log: []byte{0, 0xff, '<', 0x80}}, true)
}

// TestCodecLargeBatch: a 1 MiB replication run travels as its bytes, one
// length ahead of them, not base64-encoded.
func TestCodecLargeBatch(t *testing.T) {
	run := bytes.Repeat([]byte("\x00\x01\xfe\xff<&>"), 1<<17)
	ship := &core.ReplShipRequest{Term: 3, Leader: "http://a/services", LeaderLSN: 9, Log: run}
	checkPacked(t, ship, true)
	payload, err := codecEncode(ship)
	if err != nil {
		t.Fatal(err)
	}
	if overhead := len(payload) - len(run); overhead > 32 {
		t.Fatalf("a %d-byte run packs into %d bytes", len(run), len(payload))
	}
}

// TestCodecNilPayloads: a nil payload, typed or not, is an envelope that
// is all header.
func TestCodecNilPayloads(t *testing.T) {
	want := wire.AppendHeader(nil, &wire.Envelope{Action: "act"})
	for _, payload := range []any{nil, (*core.SubmitRequest)(nil)} {
		got, err := wire.Encode("act", payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode(%#v) = %q, want %q", payload, got, want)
		}
	}
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
		{&core.ReplShipRequest{Term: 2, Leader: "l", LeaderLSN: 300, Log: []byte{0xca, 0xfe}}, "02016cac0202cafe"},
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
	I8  int8
	U16 uint16
	F32 float32
	OK  bool
	S   []string
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

// TestListAllocatedAtItsLength: Unpack replaces a list, never appends to
// it. A list the target's capacity holds is filled in that backing array,
// its old items past the count cleared; one it does not hold is allocated
// once, with exactly the count as its capacity; an empty list leaves a
// fresh value's list nil.
func TestListAllocatedAtItsLength(t *testing.T) {
	cmds := &core.HeartbeatResponse{Commands: []core.VMCommand{
		{Seq: 0, Command: core.CmdOK}, {Seq: 1, Command: core.CmdMatchInfo, MatchID: 7}, {Seq: 2, Command: "Command"},
	}}
	packed, err := wire.Pack(nil, cmds)
	if err != nil {
		t.Fatal(err)
	}
	var hb core.HeartbeatResponse
	if err := codecDecode(packed, &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Commands) != 3 || cap(hb.Commands) != 3 || !reflect.DeepEqual(&hb, cmds) {
		t.Fatalf("decoded %d commands into capacity %d: %+v", len(hb.Commands), cap(hb.Commands), hb.Commands)
	}

	var empty core.HeartbeatResponse
	if err := codecDecode([]byte{0}, &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Commands != nil {
		t.Fatalf("a count of 0 decoded to %#v, want nil", empty.Commands)
	}

	jobs := &core.QueueStatusResponse{Jobs: []core.QueueJob{{ID: 2, Owner: "b", State: "idle", LengthSec: 5}, {ID: 3, Owner: "c", State: "running", LengthSec: 6}}}
	if packed, err = wire.Pack(nil, jobs); err != nil {
		t.Fatal(err)
	}
	held := make([]core.QueueJob, 4, 4)
	for i := range held {
		held[i] = core.QueueJob{ID: int64(10 + i), Owner: "old", State: "completed"}
	}
	roomy := core.QueueStatusResponse{Jobs: held[:3]}
	if err := codecDecode(packed, &roomy); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&roomy, jobs) || &roomy.Jobs[0] != &held[0] || held[2] != (core.QueueJob{}) {
		t.Fatalf("into a list of capacity 4: %+v (backing array kept: %v), old item past the count %+v", roomy.Jobs, &roomy.Jobs[0] == &held[0], held[2])
	}
	tight := core.QueueStatusResponse{Jobs: []core.QueueJob{{ID: 1, Owner: "a"}}}
	if err := codecDecode(packed, &tight); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&tight, jobs) || cap(tight.Jobs) != 2 {
		t.Fatalf("into a list of capacity 1: %+v, capacity %d; want the two jobs alone, capacity 2", tight.Jobs, cap(tight.Jobs))
	}
}

// TestListCountBoundedByBytes: a count that the bytes after it cannot
// hold, at the shortest item the decoder accepts, is refused before the
// list is made — 1 MiB promising 1,048,576 QueueJobs would otherwise
// allocate 50 MB.
func TestListCountBoundedByBytes(t *testing.T) {
	data := append(binary.AppendUvarint(nil, 1<<20), make([]byte, 1<<20)...)
	var out core.QueueStatusResponse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := codecDecode(data, &out)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count past the bytes was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("refusing %d bytes allocated %d", len(data), alloc)
	}
}

// FuzzDecodeEnvelope feeds the envelope header decoder what a peer could
// send in a frame. It must never panic, and an accepted envelope names an
// action, encodes again to exactly its input (so varints are minimal and
// lengths within the frame), and leaves its Payload aliasing the input's
// tail.
func FuzzDecodeEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	headers := []wire.Envelope{
		{Action: "act"},
		{Action: core.ActionSubmitJob, Key: "0123456789abcdef0123456789abcdef", Sent: 1_700_000_000_000},
		{Action: core.ActionHeartbeat, Sent: 1, Budget: 30_000},
		{Action: "é\x00", Key: "k\xc3\xa9", Sent: math.MaxInt64, Budget: math.MaxInt64},
	}
	for _, m := range messages {
		for _, hdr := range headers {
			ptr := reflect.New(reflect.TypeOf(m))
			fill(rng, ptr.Elem(), false)
			payload, err := wire.Pack(nil, ptr.Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append(wire.AppendHeader(nil, &hdr), payload...))
		}
	}
	beat, err := wire.Pack(nil, &core.HeartbeatRequest{Machine: "n1", VMs: []core.VMStatus{{Seq: 0, State: "idle"}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range []string{
		"",
		"\x00",
		"\x00\x00\x00\x00",      // no action
		"\x01",                  // cut in the action
		"\x01a",                 // no key
		"\x01a\x00",             // no Sent
		"\x01a\x00\x00",         // no Budget
		"\x01a\x00\x00\x00",     // the least envelope: no payload
		"\x81\x00a\x00\x00\x00", // length not in its shortest form
		"\x01a\x00\x80\x00\x00", // Sent not in its shortest form
		"\x01a\x00\x00\x80\x00", // Budget not in its shortest form
		"\x05a\x00\x00\x00",     // action past the end
		"\x01a\x05k\x00\x00",    // key past the end
		"\x01a\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00",     // Sent at MaxInt64
		"\x01a\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00", // Sent past MaxInt64
		"\x01a\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", // Budget past 64 bits
		"\x01\xff\x00\x00\x00",                                  // action not UTF-8
		"\x01a\x01\xc3\x00\x00",                                 // key not UTF-8
		"\x09heartbeat\x00\x00\x00" + string(beat),
		`<Envelope action="ping"><pingReq><Name>x</Name></pingReq></Envelope>`, // an XML envelope of old
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := wire.DecodeEnvelope(data)
		if err != nil {
			return
		}
		if env.Action == "" {
			t.Fatalf("DecodeEnvelope(%q) accepted an envelope with no action", data)
		}
		if again := append(wire.AppendHeader(nil, env), env.Payload...); !bytes.Equal(again, data) {
			t.Fatalf("DecodeEnvelope(%q) = %+v, which encodes to %q", data, env, again)
		}
		if n := len(env.Payload); n > 0 && (&env.Payload[:1][0] != &data[len(data)-n] || cap(env.Payload) != n) {
			t.Fatalf("DecodeEnvelope(%q): Payload is not the input's tail", data)
		}
	})
}

// FuzzDecodePayload feeds arbitrary bytes to the payload decoder as each
// message type. Payloads come from peers, and replies from the reply
// store's log and page images, so the decoder must never panic and must
// accept only what Pack writes: an accepted input packs again to exactly
// itself. Its allocation is bounded by the target: strings and []bytes
// take at most twice the input, and each list at most its Go item size
// over the shortest item the decoder accepts, per byte
// (wire.ListBytesPerByte) — so a decoder that made a list at a count the
// bytes do not bound fails on the long counts among the seeds. A recycled
// value — one that held another value, reset as Typed resets it or not
// reset at all — must decode every input as a fresh value does.
func FuzzDecodePayload(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	index := func(target any) uint8 {
		return uint8(slices.IndexFunc(messages, func(v any) bool { return reflect.TypeOf(v) == reflect.TypeOf(target) }))
	}
	for i, m := range messages {
		for j := 0; j < 50; j++ {
			ptr := reflect.New(reflect.TypeOf(m))
			fill(rng, ptr.Elem(), j%2 == 0)
			packed, err := wire.Pack(nil, ptr.Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(packed, uint8(i))
		}
	}
	var listing core.QueueStatusResponse
	for id := int64(1); id <= 1000; id++ {
		listing.Jobs = append(listing.Jobs, core.QueueJob{ID: id, Owner: "alice", State: "idle", LengthSec: 30})
	}
	data, err := wire.Pack(nil, &listing)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, index(listing))
	f.Add(append(binary.AppendUvarint(nil, 2500), make([]byte, 10000)...), index(core.QueueStatusResponse{}))
	f.Add(append(binary.AppendUvarint(nil, 2501), make([]byte, 10000)...), index(core.QueueStatusResponse{}))
	f.Add(append([]byte{0, 0, 0, 0, 0, 0x90, 0x4e}, make([]byte, 10000)...), index(core.HeartbeatRequest{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, index(core.HeartbeatResponse{}))
	f.Add([]byte{0x04, 0x00, 0x02, 'O', 'K', 0, 0, 0, 0}, index(core.HeartbeatResponse{}))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		typ := reflect.TypeOf(messages[int(which)%len(messages)])
		out := reflect.New(typ).Interface()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := codecDecode(data, out)
		runtime.ReadMemStats(&after)
		// TotalAlloc is the whole process's: the constant leaves room for
		// the fuzz worker's own goroutines.
		limit := uint64(float64(len(data))*(2+1.25*wire.ListBytesPerByte(typ))) + 64<<10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("decoding %d bytes into %s allocated %d, limit %d", len(data), typ, alloc, limit)
		}
		if err == nil {
			if again, _ := wire.Pack(nil, out); !bytes.Equal(again, data) {
				t.Fatalf("accepted % x as %+v, which packs to % x", data, out, again)
			}
		}
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		for _, reset := range []bool{true, false} {
			held := reflect.New(typ)
			fill(rng, held.Elem(), false)
			if reset {
				wire.ResetMessage(held.Interface())
			}
			herr := codecDecode(data, held.Interface())
			if (herr == nil) != (err == nil) {
				t.Fatalf("decode %q: into a fresh %s: %v; into a recycled one (reset %v): %v", data, typ, err, reset, herr)
			}
			if err != nil {
				continue
			}
			if recycled, _ := wire.Pack(nil, held.Interface()); !bytes.Equal(recycled, data) {
				t.Fatalf("decode %q\n    fresh %#v\n recycled %#v (reset %v)", data, out, held.Interface(), reset)
			}
		}
	})
}

// TestUnsupportedTagsFailAtRegistration: a message type the packed form
// cannot carry whole stops the process when its handler is built.
func TestUnsupportedTagsFailAtRegistration(t *testing.T) {
	type pointer struct {
		Next *core.StateCount
	}
	type mapped struct {
		Labels map[string]string
	}
	type boxed struct {
		Any any
	}
	type array struct {
		IDs [4]int64
	}
	type nested struct {
		Rows [][]int64
	}
	type embedded struct {
		core.StateCount
	}
	type hidden struct {
		At  stamp
		Seq int64
	}
	type recursive struct {
		Children []recursive
	}
	type ok struct{}
	mustPanic := func(name string, register func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: handler registered", name)
			}
		}()
		register()
	}
	mux := wire.NewMux()
	mustPanic("pointer field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok, *pointer) error { return nil }))
	})
	mustPanic("map field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *mapped, *ok) error { return nil }))
	})
	mustPanic("interface field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *boxed, *ok) error { return nil }))
	})
	mustPanic("array field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *array, *ok) error { return nil }))
	})
	mustPanic("slice of slices", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *nested, *ok) error { return nil }))
	})
	mustPanic("embedded field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *embedded, *ok) error { return nil }))
	})
	mustPanic("struct with unexported fields", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *hidden, *ok) error { return nil }))
	})
	mustPanic("recursive type", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok, *recursive) error { return nil }))
	})
	if len(mux.Actions()) != 0 {
		t.Fatalf("actions registered: %v", mux.Actions())
	}
	// The client side has no registration step: the same types fail the call.
	if _, err := wire.Encode("a", &pointer{}); err == nil {
		t.Fatal("Encode accepted a pointer field")
	}
}

// stamp is a type whose state is unexported, as time.Time's is: packing
// it would carry nothing.
type stamp struct{ sec int64 }
