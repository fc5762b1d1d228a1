package wire_test

// The codec's contract is "what encoding/xml's Marshal writes, and what
// the decoder reads, Unmarshal reads alike", so encoding/xml is the
// oracle: every message type is encoded both ways over generated values
// and must agree byte for byte, and whatever the decoder accepts —
// generated values, hand-written documents, fuzzed bytes — Unmarshal must
// accept with the same value. The decoder reads only the encoder's
// grammar, so forms encoding/xml also reads are refused.

import (
	"bytes"
	"context"
	"encoding/xml"
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
	"unsafe"

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
		t.Fatalf("core/messages.go declares %v\nthe differential test covers %v", declared, listed)
	}
}

// codecDecode and codecEncode reach the decoder and the encoder through
// the package's entry points: a payload is what an envelope carries.
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
			fill(rng, v.Field(i), clean)
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
// not equal to itself).
func same(a, b any) bool {
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

// TestListAllocatedAtItsLength: the decoder counts a list's items before
// it fills it, so the slice is made once with exactly that capacity — an
// item whose child shares the item's element name counted once — an
// empty list stays nil, and a target that already holds items is
// appended to, as xml.Unmarshal does.
func TestListAllocatedAtItsLength(t *testing.T) {
	doc := `<HeartbeatResponse><Commands><Command><Seq>0</Seq><Command>OK</Command></Command>` +
		`<Command><Seq>1</Seq><Command>MATCHINFO</Command><MatchID>7</MatchID></Command>` +
		`<Command><Seq>2</Seq><Command>Command</Command></Command></Commands></HeartbeatResponse>`
	var hb core.HeartbeatResponse
	if err := codecDecode([]byte(doc), &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Commands) != 3 || cap(hb.Commands) != 3 || hb.Commands[2].Command != "Command" {
		t.Fatalf("decoded %d commands into capacity %d: %+v", len(hb.Commands), cap(hb.Commands), hb.Commands)
	}
	checkDecode(t, []byte(doc), core.HeartbeatResponse{})

	var empty core.HeartbeatResponse
	if err := codecDecode([]byte(`<HeartbeatResponse><Commands></Commands></HeartbeatResponse>`), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Commands != nil {
		t.Fatalf("<Commands></Commands> decoded to %#v, want nil", empty.Commands)
	}

	jobs := `<QueueStatusResponse><Jobs><Job><ID>2</ID><Owner>b</Owner><State>idle</State><LengthSec>5</LengthSec></Job>` +
		`<Job><ID>3</ID><Owner>c</Owner><State>running</State><LengthSec>6</LengthSec></Job></Jobs></QueueStatusResponse>`
	held := []core.QueueJob{{ID: 1, Owner: "a", State: "completed", LengthSec: 4}}
	viaCodec := core.QueueStatusResponse{Jobs: slices.Clone(held)}
	viaXML := core.QueueStatusResponse{Jobs: slices.Clone(held)}
	if err := codecDecode([]byte(jobs), &viaCodec); err != nil {
		t.Fatal(err)
	}
	if err := xml.Unmarshal([]byte(jobs), &viaXML); err != nil {
		t.Fatal(err)
	}
	if len(viaCodec.Jobs) != 3 || !reflect.DeepEqual(viaCodec, viaXML) {
		t.Fatalf("appended to %v:\n codec %+v\n   xml %+v", held, viaCodec.Jobs, viaXML.Jobs)
	}
}

// TestListCountBoundedByBytes: a list whose items are shorter than any
// the decoder accepts is refused on its count, before its slice is made —
// 1 MiB of <Job></Job> would otherwise promise 95,325 QueueJobs, 4.6 MB.
func TestListCountBoundedByBytes(t *testing.T) {
	data := []byte(`<QueueStatusResponse><Jobs>` + strings.Repeat(`<Job></Job>`, (1<<20)/len(`<Job></Job>`)) + `</Jobs></QueueStatusResponse>`)
	var out core.QueueStatusResponse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := codecDecode(data, &out)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a list of empty items was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("refusing %d bytes allocated %d", len(data), alloc)
	}
}

// grammar are documents in the encoder's grammar that the generated values
// do not produce: every reference appendEscaped writes, lists of several
// items and of none, omitted fields, number extremes, and scalar text
// strconv reads as encoding/xml does though the encoder writes it
// otherwise ("1" for true). Each is accepted into the one decode target
// its root names.
var grammar = []string{
	`<HeartbeatRequest><Machine>n1</Machine><VMs><VM><Seq>0</Seq><State>idle</State></VM></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&lt;n&amp;1&gt; &#34;q&#34; &#39;s&#39;&#x9;&#xA;&#xD;é日本😀�</Machine><Boot>true</Boot><TotalMemoryMB>2048</TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine></Machine><Arch>X86_64</Arch><OpSys>LINUX</OpSys><VMs><VM><Seq>-1</Seq><State>claimed</State><JobID>9223372036854775807</JobID><Phase>completed</Phase><ExitCode>-9223372036854775808</ExitCode></VM><VM><Seq>1</Seq><State></State></VM></VMs></HeartbeatRequest>`,
	`<HeartbeatResponse><Commands><Command><Seq>0</Seq><Command>OK</Command></Command><Command><Seq>1</Seq><Command>MATCHINFO</Command><MatchID>7</MatchID><JobID>9</JobID><Owner>alice</Owner><LengthSec>30</LengthSec></Command></Commands></HeartbeatResponse>`,
	`<HeartbeatResponse><Commands></Commands></HeartbeatResponse>`,
	`<SubmitRequest><Owner>bob</Owner><Count>3</Count><LengthSec>60</LengthSec><Priority>1.5e+30</Priority><InputDatasets><ID>1</ID><ID>-2</ID></InputDatasets></SubmitRequest>`,
	`<SubmitRequest><Owner></Owner><Workflow>w</Workflow><Count>0</Count><LengthSec>0</LengthSec><Priority>-Inf</Priority><DependsOn>4</DependsOn><InputDatasets></InputDatasets><Output>out</Output></SubmitRequest>`,
	`<SubmitRequest><Owner>nan</Owner><Count>1</Count><LengthSec>1</LengthSec><Priority>NaN</Priority><InputDatasets></InputDatasets></SubmitRequest>`,
	`<AcceptMatchResponse><OK>true</OK></AcceptMatchResponse>`,
	`<AcceptMatchResponse><OK>1</OK></AcceptMatchResponse>`,
	`<AcceptMatchResponse><OK>false</OK><Reason>taken</Reason></AcceptMatchResponse>`,
	`<ReplShipRequest><Term>18446744073709551615</Term><Leader>l</Leader><LeaderLSN>9</LeaderLSN><Log>QUJDRA+/</Log></ReplShipRequest>`,
	`<PoolStatusResponse><Machines><S><State>up</State><Count>2</Count></S></Machines><VMs></VMs><Jobs><S><State>idle</State><Count>5</Count></S><S><State>running</State><Count>1</Count></S></Jobs><RunningJobs>1</RunningJobs></PoolStatusResponse>`,
	`<Fault><Code>Overloaded</Code><Message>m</Message><RetryAfterMs>250</RetryAfterMs></Fault>`,
	`<Fault><Code>NotLeader</Code><Message></Message><Leader>http://b/services</Leader></Fault>`,
	`<QueueStatusResponse><Jobs><Job><ID>1</ID><Owner>a</Owner><State>idle</State><LengthSec>5</LengthSec></Job></Jobs></QueueStatusResponse>`,
}

// heartbeat is grammar's first document, which the foreign forms below
// mostly vary in one place each.
const heartbeat = `<HeartbeatRequest><Machine>n1</Machine><VMs><VM><Seq>0</Seq><State>idle</State></VM></VMs></HeartbeatRequest>`

// foreign are forms the encoder never writes — most of them legal XML
// that encoding/xml reads, the rest not XML at all — and each is refused
// into every decode target.
var foreign = []string{
	// one form each, in an otherwise valid document
	`<?xml version="1.0" encoding="UTF-8"?>` + heartbeat,
	`<!-- c -->` + heartbeat,
	`<HeartbeatRequest><!-- c --><Machine>n1</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><?pi x?><Machine>n1</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine><![CDATA[n1]]></Machine><VMs></VMs></HeartbeatRequest>`,
	`<x:HeartbeatRequest xmlns:x="urn:x"><Machine>n1</Machine><VMs></VMs></x:HeartbeatRequest>`,
	`<HeartbeatRequest><x:Machine>n1</x:Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VMs/></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine/><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest a="1"><Machine>n1</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine id='1'>n1</Machine><VMs></VMs></HeartbeatRequest>`,
	"<HeartbeatRequest>\n  <Machine>n1</Machine>\n  <VMs></VMs>\n</HeartbeatRequest>",
	`<HeartbeatRequest ><Machine>n1</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine ><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><Extra>x</Extra><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VMs><VM><Seq>0</Seq><State>idle</State><Slot>2</Slot></VM></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>a</Machine><Machine>b</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VMs></VMs><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VMs><VM><Seq>0</Seq><Seq>1</Seq><State>idle</State></VM></VMs></HeartbeatRequest>`,
	heartbeat + "\n",
	heartbeat + `<HeartbeatRequest></HeartbeatRequest>`,
	heartbeat + "garbage",
	" " + heartbeat,
	`<HeartbeatRequest><VMs></VMs><Machine>n1</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VMs></VMs><Boot>true</Boot></HeartbeatRequest>`,
	`<HeartbeatRequest><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><VM><Seq>0</Seq><State>idle</State></VM></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&quot;&apos;</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#65;&#x42;</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&#x0A;</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>"q"</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>'s'</Machine><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>a>b</Machine><VMs></VMs></HeartbeatRequest>`,
	"<HeartbeatRequest><Machine>a\tb</Machine><VMs></VMs></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>a\nb</Machine><VMs></VMs></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>a\r\nb</Machine><VMs></VMs></HeartbeatRequest>",
	`<HeartbeatRequest><Machine>n1</Machine><TotalMemoryMB> 2048 </TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><TotalMemoryMB></TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><Boot> true </Boot><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n<b>1</b></Machine><VMs></VMs></HeartbeatRequest>`,
	`<heartbeatrequest><Machine>n1</Machine><VMs></VMs></heartbeatrequest>`,
	`<AnyRootName><Machine>n1</Machine><VMs></VMs></AnyRootName>`,
	`<é><Machine>non-ASCII name</Machine><VMs></VMs></é>`,
	`<Envelope action="heartbeat">` + heartbeat + `</Envelope>`,
	// A ship in the per-group form of earlier builds.
	`<ReplShipRequest><Term>2</Term><Batches><Batch><LSN>8</LSN><Data>QUJD</Data></Batch></Batches></ReplShipRequest>`,
	`<AcceptMatchResponse><OK>T</OK><OK></OK></AcceptMatchResponse>`,
	// read by encoding/xml, in the forms of an earlier decoder's tests
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<HeartbeatRequest><Machine>n1</Machine></HeartbeatRequest>`,
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?><HeartbeatRequest/>`,
	`<!-- hello --> text before <HeartbeatRequest><!-- in --><Machine>n<!-- mid -->1</Machine></HeartbeatRequest> trailing <<< garbage`,
	`<HeartbeatRequest><Machine><![CDATA[a<b&c]]]]><![CDATA[>]]></Machine><Boot> true </Boot><TotalMemoryMB>
  2048	</TotalMemoryMB></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;&#xD800;</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><Unknown a="1" b='2'><Deep><Machine>no</Machine></Deep></Unknown><Machine>yes</Machine><Machine>last wins</Machine></HeartbeatRequest>`,
	`<HeartbeatRequest><VMs><VM><Seq>0</Seq><State>idle</State></VM><Other/><VM/></VMs><VMs><VM><Seq>+7</Seq><Seq></Seq></VM></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><VM><Seq>1</Seq></VM><VMs>text<VMs><VM><Seq>2</Seq></VM></VMs></VMs></HeartbeatRequest>`,
	`<x:HeartbeatRequest xmlns:x="urn:x"><x:Machine>pfx</x:Machine><y:VMs><z:VM><Seq>1</Seq></z:VM></y:VMs></x:HeartbeatRequest>`,
	`<HeartbeatRequest><?pi data ?><Machine>x</Machine><?xml version="1.0"?></HeartbeatRequest>`,
	`<SubmitRequest><Priority> 1.5e3 </Priority><Count>-3</Count><InputDatasets><ID>1</ID><ID> 2 </ID></InputDatasets></SubmitRequest>`,
	`<SubmitRequest><Priority>0x1p-2</Priority><Priority>Inf</Priority></SubmitRequest>`,
	`<ReplShipRequest><Term>18446744073709551615</Term></ReplShipRequest>`,
	`<Envelope action="ping" idem='k"1' sent="12" extra="x"><P><Q/></P>tail</Envelope>`,
	`<Envelope action="a" action="b" sent=" 7 "/>`,
	`<Envelope action="a&amp;b&#10;" x:sent="5" sent=""><![CDATA[<raw>]]></Envelope>`,
	// not XML, or not these types
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
	"<HeartbeatRequest><Machine>\x00</Machine><VMs></VMs></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>\xff</Machine><VMs></VMs></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>\uFFFE</Machine><VMs></VMs></HeartbeatRequest>",
	"<HeartbeatRequest><Machine>\xed\xa0\x80</Machine><VMs></VMs></HeartbeatRequest>",
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
	`<HeartbeatRequest><Machine>n1</Machine><TotalMemoryMB>12x</TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><TotalMemoryMB>9223372036854775808</TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><TotalMemoryMB>1_000</TotalMemoryMB><VMs></VMs></HeartbeatRequest>`,
	`<HeartbeatRequest><Machine>n1</Machine><Boot>yes</Boot><VMs></VMs></HeartbeatRequest>`,
	`<ReplShipRequest><Term>-1</Term><Leader>l</Leader><LeaderLSN>9</LeaderLSN><Log></Log></ReplShipRequest>`,
	`<SubmitRequest><Owner>o</Owner><Count>1</Count><LengthSec>1</LengthSec><Priority>fast</Priority><InputDatasets></InputDatasets></SubmitRequest>`,
	`<Fault/><Fault>`,
	`<Fault><Code>c</Code><Message>m</Message></Fault><Fault><Code>c</Code><Message>m</Message></Fault>`,
}

// decodeTargets are the types fuzzed and hand-written documents are
// decoded into: the Fault and the shapes with paths, nested structs,
// omitempty and every scalar kind.
var decodeTargets = []any{
	wire.Fault{}, core.HeartbeatRequest{}, core.HeartbeatResponse{}, core.SubmitRequest{},
	core.AcceptMatchResponse{}, core.ReplShipRequest{}, core.PoolStatusResponse{}, core.QueueStatusResponse{},
}

// checkDecode holds the decoder to xml.Unmarshal on arbitrary bytes: what
// the decoder accepts, xml.Unmarshal accepts too, with the same value. It
// reports whether the decoder accepted data.
func checkDecode(t *testing.T, data []byte, target any) bool {
	t.Helper()
	typ := reflect.TypeOf(target)
	viaCodec := reflect.New(typ).Interface()
	if codecDecode(data, viaCodec) != nil {
		return false
	}
	viaXML := reflect.New(typ).Interface()
	if err := xml.Unmarshal(data, viaXML); err != nil {
		t.Fatalf("decoded %q into %s, which xml.Unmarshal refuses: %v", data, typ, err)
	}
	if !same(viaCodec, viaXML) {
		t.Fatalf("decode %q\n codec %#v\n   xml %#v", data, viaCodec, viaXML)
	}
	return true
}

// TestDecodeMatchesEncodingXML: each grammar document decodes into the
// one target its root names, as xml.Unmarshal decodes it; each foreign
// one into none.
func TestDecodeMatchesEncodingXML(t *testing.T) {
	for _, doc := range grammar {
		var into []string
		for _, target := range decodeTargets {
			if checkDecode(t, []byte(doc), target) {
				into = append(into, reflect.TypeOf(target).Name())
			}
		}
		if len(into) != 1 {
			t.Errorf("%q decoded into %v, want the one target its root names", doc, into)
		}
	}
	for _, doc := range foreign {
		for _, target := range decodeTargets {
			if checkDecode(t, []byte(doc), target) {
				t.Errorf("foreign %q decoded into %T", doc, target)
			}
		}
	}
}

// fuzzSeeds hands add every message type's generated values, in
// encoding/xml's bytes (which are the codec's), then every hand-written
// document.
func fuzzSeeds(f *testing.F, add func(data []byte)) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range messages {
		for _, clean := range []bool{false, true} {
			ptr := reflect.New(reflect.TypeOf(m))
			fill(rng, ptr.Elem(), clean)
			data, err := xml.Marshal(ptr.Interface())
			if err != nil {
				f.Fatal(err)
			}
			add(data)
		}
	}
	for _, doc := range slices.Concat(grammar, foreign) {
		add([]byte(doc))
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
			payload, err := xml.Marshal(ptr.Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append(wire.AppendHeader(nil, &hdr), payload...))
		}
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
		"\x01a\x00\x00\x00" + heartbeat,
		`<Envelope action="ping"><pingReq><Name>x</Name></pingReq></Envelope>`,
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
		if n := len(env.Payload); n > 0 && (unsafe.SliceData(env.Payload) != &data[len(data)-n] || cap(env.Payload) != n) {
			t.Fatalf("DecodeEnvelope(%q): Payload is not the input's tail", data)
		}
	})
}

// FuzzDecodePayload holds the payload decoder to xml.Unmarshal one way
// (checkDecode) on arbitrary bytes, and to allocation bounded by its
// input: a list's count, taken before its slice is made, must not promise
// more items than the bytes can hold. The bound is the target's: strings
// and unescaped text take at most twice the input, and each list at most
// its Go item size over the shortest item the decoder accepts, per byte
// (wire.ListBytesPerByte) — so a decoder that made a list at a count the
// bytes do not bound fails on the long lists of empty items among the
// seeds. A value recycled the way Typed recycles one — it held another
// value and was reset — must decode every input as a fresh value does.
// On the side it encodes a value of a message type generated from the
// bytes: it must decode, as xml.Unmarshal decodes it, to the value itself
// when the value is clean (checkValue).
func FuzzDecodePayload(f *testing.F) {
	fuzzSeeds(f, func(data []byte) {
		for i := range decodeTargets {
			f.Add(data, uint8(i))
		}
	})
	index := func(target any) uint8 {
		return uint8(slices.IndexFunc(decodeTargets, func(v any) bool { return reflect.TypeOf(v) == reflect.TypeOf(target) }))
	}
	var listing core.QueueStatusResponse
	for id := int64(1); id <= 1000; id++ {
		listing.Jobs = append(listing.Jobs, core.QueueJob{ID: id, Owner: "alice", State: "idle", LengthSec: 30})
	}
	data, err := codecEncode(&listing)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, index(listing))
	f.Add([]byte(`<QueueStatusResponse><Jobs>`+strings.Repeat(`<Job></Job>`, 10000)+`</Jobs></QueueStatusResponse>`), index(core.QueueStatusResponse{}))
	f.Add([]byte(`<HeartbeatRequest><Machine></Machine><VMs>`+strings.Repeat(`<VM></VM>`, 10000)+`</VMs></HeartbeatRequest>`), index(core.HeartbeatRequest{}))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		target := decodeTargets[int(which)%len(decodeTargets)]
		typ := reflect.TypeOf(target)
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
		checkDecode(t, data, target)
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		held := reflect.New(typ)
		fill(rng, held.Elem(), false)
		wire.ResetMessage(held.Interface())
		if herr := codecDecode(data, held.Interface()); (herr == nil) != (err == nil) {
			t.Fatalf("decode %q: into a fresh %s: %v; into a recycled one: %v", data, typ, err, herr)
		} else if err == nil {
			fresh, _ := wire.Pack(nil, out)
			recycled, _ := wire.Pack(nil, held.Interface())
			if !bytes.Equal(fresh, recycled) {
				t.Fatalf("decode %q\n    fresh %#v\n recycled %#v", data, out, held.Interface())
			}
		}
		ptr := reflect.New(reflect.TypeOf(messages[int(which)%len(messages)]))
		clean := rng.Intn(2) == 0
		fill(rng, ptr.Elem(), clean)
		checkValue(t, ptr.Interface(), clean)
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
	type attr struct {
		ID int64 `xml:"id,attr"`
	}
	type inner struct {
		Raw []byte `xml:",innerxml"`
	}
	type named struct {
		XMLName struct{} `xml:"Named"`
	}
	type xmlNamed struct {
		XMLName xml.Name `xml:"Named"`
		ID      int64    `xml:"ID"`
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
		mux.Handle("a", wire.Typed(func(context.Context, *chardata, *ok) error { return nil }))
	})
	mustPanic("deep path", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *deepPath, *ok) error { return nil }))
	})
	mustPanic("pointer field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok, *pointer) error { return nil }))
	})
	mustPanic("[]byte element", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *rawBytes, *ok) error { return nil }))
	})
	mustPanic("element and parent share a name", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *clash, *ok) error { return nil }))
	})
	mustPanic("TextMarshaler field", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *stamped, *ok) error { return nil }))
	})
	mustPanic(",attr", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *attr, *ok) error { return nil }))
	})
	mustPanic(",innerxml", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok, *inner) error { return nil }))
	})
	mustPanic("XMLName struct{}", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *named, *ok) error { return nil }))
	})
	mustPanic("XMLName xml.Name", func() {
		mux.Handle("a", wire.Typed(func(context.Context, *ok, *xmlNamed) error { return nil }))
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
