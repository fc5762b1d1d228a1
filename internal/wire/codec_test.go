package wire_test

// The codec's contract is "whatever encoding/xml would have done", so
// encoding/xml is the oracle: every message type is encoded and decoded
// both ways over generated values, hand-written documents and fuzzed
// bytes, and the two must agree byte for byte and field for field.

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"condorj2/internal/core"
	"condorj2/internal/wire"
)

// messages lists every struct type of core/messages.go plus the wire
// frame types; TestMessagesListIsComplete keeps it honest.
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
	wire.Fault{}, wire.Envelope{},
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
		t.Fatalf("core/messages.go declares %v\nthe differential test covers %v", declared, listed)
	}
}

// codecDecode and codecEncode reach the decoder and the encoder through
// the package's public entry points: a payload is what an envelope frames.
func codecDecode(data []byte, out any) error {
	return wire.DecodePayload(&wire.Envelope{Action: "test", Payload: data}, out)
}

func codecEncode(v any) ([]byte, error) {
	raw, err := wire.Encode("test", v)
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(bytes.TrimPrefix(raw, []byte(`<Envelope action="test">`)), []byte(`</Envelope>`)), nil
}

// Generated strings are drawn from these pieces: markup and
// quote characters, the whitespace encoding/xml escapes, multi-byte
// runes, and — unless the value must round-trip — bytes and code points
// XML cannot carry, which both encoders replace with U+FFFD.
var (
	cleanPieces = []string{"a", "Z", "0", " ", "node-17", "<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "]]>", "é", "日本", "😀", "\uFFFD", "&amp;", "<!--", "\x7f"}
	dirtyPieces = []string{"\xff", "\xc3", "\xe2\x82", "\x00", "\x01", "\x1f", "\uFFFE", "\uFFFF", "\xed\xa0\x80"}
)

func randString(rng *rand.Rand, clean bool) string {
	pieces := cleanPieces
	if !clean {
		pieces = append(pieces[:len(pieces):len(pieces)], dirtyPieces...)
	}
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// fill sets every field of struct v to a generated value. Zero values are
// frequent so ,omitempty is exercised; a clean value has only strings XML
// can carry and no empty non-nil slices, so it survives a round trip.
func fill(rng *rand.Rand, v reflect.Value, clean bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name != "XMLName" {
				fill(rng, v.Field(i), clean)
			}
		}
	case reflect.String:
		v.SetString(randString(rng, clean))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 0, 1, -1, 42, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(8)])
	case reflect.Uint64:
		v.SetUint([]uint64{0, 0, 1, math.MaxUint64, rng.Uint64()}[rng.Intn(5)])
	case reflect.Float64:
		v.SetFloat([]float64{0, math.Copysign(0, -1), 1, -2.5, 1e100, 1e-7, math.Inf(1), rng.NormFloat64()}[rng.Intn(8)])
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 { // Envelope.Payload: raw inner XML
			v.SetBytes([]byte([]string{"", "<P></P>", "<P><Q>1</Q></P><!-- c -->", "text &amp; more"}[rng.Intn(4)]))
			return
		}
		n := []int{0, 0, 1, 2, 5}[rng.Intn(5)]
		switch {
		case n > 0:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i), clean)
				if item := v.Index(i); clean && item.CanInt() && item.Int() == 0 {
					item.SetInt(7) // ,omitempty on a slice drops its zero items: no round trip
				}
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
// not equal to itself). Envelope payloads compare by content.
func same(a, b any) bool {
	if ea, ok := a.(*wire.Envelope); ok {
		eb := b.(*wire.Envelope)
		return ea.Action == eb.Action && ea.Key == eb.Key && ea.Sent == eb.Sent && bytes.Equal(ea.Payload, eb.Payload)
	}
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkValue holds the codec to encoding/xml on one value (a pointer to
// a message struct).
func checkValue(t *testing.T, ptr any, roundTrips bool) {
	t.Helper()
	want, err := xml.Marshal(ptr)
	if err != nil {
		t.Fatalf("xml.Marshal(%#v): %v", ptr, err)
	}
	got, err := codecEncode(ptr)
	if err != nil {
		t.Fatalf("encode %#v: %v", ptr, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encode %#v\n codec %q\n   xml %q", ptr, got, want)
	}
	typ := reflect.TypeOf(ptr).Elem()
	viaXML, viaCodec := reflect.New(typ).Interface(), reflect.New(typ).Interface()
	if err := xml.Unmarshal(want, viaXML); err != nil {
		t.Fatalf("xml.Unmarshal(%q): %v", want, err)
	}
	if err := codecDecode(want, viaCodec); err != nil {
		t.Fatalf("decode %q: %v", want, err)
	}
	if !same(viaCodec, viaXML) {
		t.Fatalf("decode %q\n codec %#v\n   xml %#v", want, viaCodec, viaXML)
	}
	if roundTrips && !same(viaCodec, ptr) {
		t.Fatalf("round trip through %q\n  got %#v\n want %#v", want, viaCodec, ptr)
	}
}

func TestCodecMatchesEncodingXML(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range messages {
		typ := reflect.TypeOf(m)
		t.Run(typ.Name(), func(t *testing.T) {
			checkValue(t, reflect.New(typ).Interface(), true) // all zero
			for i := 0; i < 300; i++ {
				ptr := reflect.New(typ)
				clean := i%2 == 0
				fill(rng, ptr.Elem(), clean)
				checkValue(t, ptr.Interface(), clean)
			}
		})
	}
}

func TestCodecLargeBatch(t *testing.T) {
	data := strings.Repeat("QUJDRA+/", 1<<17) // 1 MiB of base64
	checkValue(t, &core.ReplShipRequest{Term: 3, Leader: "http://a/services", LeaderLSN: 9, Log: data}, true)
}

func TestCodecNilPayloads(t *testing.T) {
	for _, payload := range []any{nil, (*core.SubmitRequest)(nil)} {
		got, err := wire.Encode("act", payload)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := xml.Marshal(wire.Envelope{Action: "act"})
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode(%#v) = %q, want %q", payload, got, want)
		}
	}
}

// documents are inputs the generated values never produce: what a
// foreign or older client may legally (or illegally) send.
var documents = []string{
	// accepted by encoding/xml
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<HeartbeatRequest><Machine>n1</Machine></HeartbeatRequest>`,
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?><HeartbeatRequest/>`,
	`<!-- hello --> text before <HeartbeatRequest><!-- in --><Machine>n<!-- mid -->1</Machine></HeartbeatRequest> trailing <<< garbage`,
	`<HeartbeatRequest><Machine><![CDATA[a<b&c]]]]><![CDATA[>]]></Machine><Boot> true </Boot><TotalMemoryMB>
  2048	</TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;&#xD800;</Machine></HeartbeatRequest>`,
	"<HeartbeatRequest><Machine>a\r\nb\rc\n&#xD;\n</Machine></HeartbeatRequest>",
	`<HeartbeatRequest><Unknown a="1" b='2'><Deep><Machine>no</Machine></Deep></Unknown><Machine>yes</Machine><Machine>last wins</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><VMs><VM><Seq>0</Seq><State>idle</State></VM><Other/><VM/></VMs><VMs><VM><Seq>+7</Seq><Seq></Seq></VM></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><VM><Seq>1</Seq></VM><VMs>text<VMs><VM><Seq>2</Seq></VM></VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>a<b>skipped</b>c<d/>e</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest  ><Machine >x</Machine ></HeartbeatRequest
>`,
	`<x:HeartbeatRequest xmlns:x="urn:x"><x:Machine>pfx</x:Machine><y:VMs><z:VM><Seq>1</Seq></z:VM></y:VMs></x:HeartbeatRequest>`,
	`<AnyRootName><Machine>root name is free without XMLName</Machine></AnyRootName>`,
	`<HeartbeatRequest><?pi data ?><Machine>x</Machine><?xml version="1.0"?></HeartbeatRequest>`,
	`<SubmitRequest><Priority> 1.5e3 </Priority><Count>-3</Count><InputDatasets><ID>1</ID><ID> 2 </ID></InputDatasets></SubmitRequest>`,
	`<SubmitRequest><Priority>0x1p-2</Priority><Priority>Inf</Priority></SubmitRequest>`,
	`<AcceptMatchResponse><OK>1</OK></AcceptMatchResponse>`,
	`<AcceptMatchResponse><OK>T</OK><OK></OK></AcceptMatchResponse>`,
	`<ReplShipRequest><Term>18446744073709551615</Term></ReplShipRequest>`,
	// A ship carrying a run, then one in the per-group form of earlier
	// builds, which reads as a ship carrying no log.
	`<ReplShipRequest><Term>2</Term><Leader>l</Leader><LeaderLSN>9</LeaderLSN><Log>QUJDRA+/</Log></ReplShipRequest>`,
	`<ReplShipRequest><Term>2</Term><Batches><Batch><LSN>8</LSN><Data>QUJD</Data></Batch></Batches></ReplShipRequest>`,
	`<Envelope action="ping" idem='k"1' sent="12" extra="x"><P><Q/></P>tail</Envelope>`,
	`<Envelope action="a" action="b" sent=" 7 "/>`,
	`<Envelope action="a&amp;b&#10;" x:sent="5" sent=""><![CDATA[<raw>]]></Envelope>`,
	`<Envelope action="multi
line	tab"></Envelope>`,
	`<Fault><Code>Overloaded</Code><Message>m</Message><RetryAfterMs>250</RetryAfterMs></Fault>`,
	`<é><Machine>non-ASCII name</Machine></é>`,
	// rejected by encoding/xml
	``,
	`   `,
	`just text`,
	`</HeartbeatRequest>`,
	`<HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>x</HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>x</Machine></heartbeatrequest>`,
	`<HeartbeatRequest><Unknown><a></b></Unknown></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&nbsp;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&amp</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#x110000;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#0;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#X41;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>a]]>b</Machine></HeartbeatRequest>`,
	"<HeartbeatRequest><Machine>\x00</Machine></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>\xff</Machine></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>\uFFFE</Machine></HeartbeatRequest>",
	`<HeartbeatRequest><Machine><![CDATA[open</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><!-- a -- b --></HeartbeatRequest>`,
	`<HeartbeatRequest><!-- open</HeartbeatRequest>`,
	`<HeartbeatRequest><!- x --></HeartbeatRequest>`,
	`<HeartbeatRequest><? ?></HeartbeatRequest>`,
	`<HeartbeatRequest><?pi open</HeartbeatRequest>`,
	`<?xml version="1.1"?><HeartbeatRequest/>`,
	`<?xml version="1.0" encoding="latin-1"?><HeartbeatRequest/>`,
	`<HeartbeatRequest a></HeartbeatRequest>`,
	`<HeartbeatRequest a=b></HeartbeatRequest>`,
	`<HeartbeatRequest a="<"></HeartbeatRequest>`,
	`<HeartbeatRequest a="1></HeartbeatRequest>`,
	`<HeartbeatRequest a="1"b="2"/>`,
	`<HeartbeatRequest / >`,
	`<1abc/>`,
	`<a:b:c/>`,
	`<-a/>`,
	`< a/>`,
	`<`,
	`<a`,
	`<a b`,
	`<a b=`,
	`<a b="`,
	`<HeartbeatRequest><TotalMemoryMB>12x</TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><TotalMemoryMB>   </TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><TotalMemoryMB>9223372036854775808</TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><TotalMemoryMB>1_000</TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><Boot>yes</Boot></HeartbeatRequest>`,
	`<ReplShipRequest><Term>-1</Term></ReplShipRequest>`,
	`<SubmitRequest><Priority>fast</Priority></SubmitRequest>`,
	`<Envelope action="a" sent="soon"/>`,
	`<NotEnvelope action="a"/>`,
	`<Fault/><Fault>`,
}

// decodeTargets are the types fuzzed and hand-written documents are
// decoded into: the two frame types and the shapes with paths, nested
// structs, omitempty and every scalar kind.
var decodeTargets = []any{
	wire.Envelope{}, wire.Fault{}, core.HeartbeatRequest{}, core.HeartbeatResponse{},
	core.SubmitRequest{}, core.AcceptMatchResponse{}, core.ReplShipRequest{}, core.PoolStatusResponse{},
}

// checkDecode holds the codec's decoder to xml.Unmarshal on arbitrary
// bytes: same accept/reject decision, same value. It returns false when
// the input falls in one of the two documented differences.
func checkDecode(t *testing.T, data []byte, target any) bool {
	t.Helper()
	typ := reflect.TypeOf(target)
	viaXML, viaCodec := reflect.New(typ).Interface(), reflect.New(typ).Interface()
	errXML := xml.Unmarshal(data, viaXML)
	errCodec := codecDecode(data, viaCodec)
	if errCodec != nil && strings.Contains(errCodec.Error(), "directive") {
		return false // <!DOCTYPE …> and friends: rejected here, skipped there
	}
	if errXML != nil && errCodec == nil && strings.Contains(errXML.Error(), "invalid XML name") && !isASCII(data) {
		return false // a non-ASCII name outside XML's letter tables: accepted here
	}
	if (errXML == nil) != (errCodec == nil) {
		t.Fatalf("decode %q into %s\n codec err: %v\n   xml err: %v", data, typ, errCodec, errXML)
	}
	if errXML == nil && !same(viaCodec, viaXML) {
		t.Fatalf("decode %q\n codec %#v\n   xml %#v", data, viaCodec, viaXML)
	}
	if env, ok := viaCodec.(*wire.Envelope); ok && errCodec == nil && len(env.Payload) > 0 {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(env.Payload)))
		base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		if start < base || start+uintptr(cap(env.Payload)) > base+uintptr(len(data)) {
			t.Fatalf("decode %q: Payload reaches outside the input", data)
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

func TestDecodeMatchesEncodingXML(t *testing.T) {
	for _, doc := range documents {
		for _, target := range decodeTargets {
			checkDecode(t, []byte(doc), target)
		}
	}
}

// TestDecodeKnownDifferences pins the two places the decoder is narrower
// or wider than encoding/xml, so a change to either is a decision.
func TestDecodeKnownDifferences(t *testing.T) {
	var req core.HeartbeatRequest
	doctype := `<!DOCTYPE x [<!ENTITY a "b">]><HeartbeatRequest><Machine>m</Machine></HeartbeatRequest>`
	if err := codecDecode([]byte(doctype), &req); err == nil || xml.Unmarshal([]byte(doctype), &req) != nil {
		t.Fatalf("directive: codec err %v; encoding/xml is expected to skip it", err)
	}
	odd := "<HeartbeatRequest><×>x</×><Machine>m</Machine></HeartbeatRequest>" // U+00D7 is no XML letter
	if err := codecDecode([]byte(odd), &req); err != nil || req.Machine != "m" || xml.Unmarshal([]byte(odd), &req) == nil {
		t.Fatalf("non-letter name: codec err %v, Machine %q; encoding/xml is expected to reject it", err, req.Machine)
	}
}

func fuzzSeeds(f *testing.F, add func(data []byte)) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range messages {
		ptr := reflect.New(reflect.TypeOf(m))
		fill(rng, ptr.Elem(), false)
		data, err := xml.Marshal(ptr.Interface())
		if err != nil {
			f.Fatal(err)
		}
		add(data)
		env, err := wire.Encode("act", ptr.Interface())
		if err != nil {
			f.Fatal(err)
		}
		add(env)
	}
	for _, doc := range documents {
		add([]byte(doc))
	}
	ping, _ := wire.Encode("ping", &struct {
		XMLName struct{} `xml:"pingReq"`
		Name    string   `xml:"Name"`
		N       int      `xml:"N"`
	}{Name: "startd", N: 21})
	add(ping)
}

func FuzzDecodeEnvelope(f *testing.F) {
	fuzzSeeds(f, func(data []byte) { f.Add(data) })
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkDecode(t, data, wire.Envelope{}) {
			return
		}
		// The envelope decoder adds one rule on top: an envelope names
		// its action.
		var ref wire.Envelope
		wantErr := xml.Unmarshal(data, &ref) != nil || ref.Action == ""
		if _, err := wire.DecodeEnvelope(data); (err != nil) != wantErr {
			t.Fatalf("DecodeEnvelope(%q) err = %v, want error: %v", data, err, wantErr)
		}
	})
}

func FuzzDecodePayload(f *testing.F) {
	fuzzSeeds(f, func(data []byte) {
		for i := range decodeTargets {
			f.Add(data, uint8(i))
		}
	})
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		checkDecode(t, data, decodeTargets[int(which)%len(decodeTargets)])
	})
}

// TestUnsupportedTagsFailAtRegistration: a message type outside the
// codec's vocabulary stops the process when its handler is built.
func TestUnsupportedTagsFailAtRegistration(t *testing.T) {
	type chardata struct {
		Text string `xml:",chardata"`
	}
	type deepPath struct {
		IDs []int64 `xml:"A>B>C"`
	}
	type pointer struct {
		Next *core.StateCount `xml:"Next"`
	}
	type rawBytes struct {
		Data []byte `xml:"Data"`
	}
	type clash struct {
		VMs  string   `xml:"VMs"`
		List []string `xml:"VMs>VM"`
	}
	type stamped struct {
		At xmlTime `xml:"At"`
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
	mustPanic("chardata", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *chardata) (*ok, error) { return nil, nil }))
	})
	mustPanic("deep path", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *deepPath) (*ok, error) { return nil, nil }))
	})
	mustPanic("pointer field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok) (*pointer, error) { return nil, nil }))
	})
	mustPanic("[]byte element", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *rawBytes) (*ok, error) { return nil, nil }))
	})
	mustPanic("element and parent share a name", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *clash) (*ok, error) { return nil, nil }))
	})
	mustPanic("TextMarshaler field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *stamped) (*ok, error) { return nil, nil }))
	})
	if len(mux.Actions()) != 0 {
		t.Fatalf("actions registered: %v", mux.Actions())
	}
	// The client side has no registration step: the same types fail the call.
	if _, err := wire.Encode("a", &chardata{}); err == nil {
		t.Fatal("Encode accepted a ,chardata type")
	}
}

type xmlTime struct{ sec int64 }

func (x xmlTime) MarshalText() ([]byte, error) { return nil, nil }
