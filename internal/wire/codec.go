package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The XML codec. Every message type is compiled once, from its `xml:"…"`
// struct tags, into a codec that appends the element straight into a
// caller-supplied buffer and decodes it in one pass over the request
// bytes. The bytes written are those encoding/xml's Marshal writes for
// the same value, and depend on the value alone: a stored reply is kept
// packed (pack.go) and encoded again when it is replayed, and the replay
// must repeat the first answer byte for byte.
//
// The decoder reads exactly what the encoder writes, since every payload
// it sees was written by this package's encoder: the root element named
// after the type, each field's element in declaration order with no space
// between tags, and text holding only the eight character references
// appendEscaped writes. Anything else — an XML declaration, a comment, a
// processing instruction, CDATA, a prefixed name, a self-closing tag, an
// attribute, an unknown or repeated element, bytes after the root — is
// refused. What it accepts, encoding/xml's Unmarshal accepts too, with
// the same value.
//
// The tag vocabulary is:
//
//	xml:"Name"            element (a bare field uses its own name)
//	xml:"Name,omitempty"  element, left out when zero or empty
//	xml:"A>B"             one <B> per item, all inside a single <A>
//
// on fields of string, bool, integer and float kinds, structs of these,
// and slices of either. An element is named by its type. Anything else —
// another flag (,attr and ,innerxml among them), an XMLName field, a
// deeper path, a pointer or map field, a type with its own XML or text
// marshalling — fails to compile, which Typed reports when the handler is
// registered.

// A codec encodes and decodes one struct type.
type codec struct {
	name  string  // element name: the type's name
	elems []field // in declaration order: also the layout of the packed form (pack.go)

	minPacked int // the fewest bytes a packed value takes
	minXML    int // the fewest bytes of child elements the decoder accepts
}

// A field is one child element of a codec's struct.
type field struct {
	index  int
	name   string
	parent string       // A of an "A>B" path
	omit   bool         // ,omitempty
	slice  bool         // []T: one element per item
	kind   reflect.Kind // of T: String, Bool, Int64, Uint64, Float64 or Struct
	bits   int          // size of a numeric T
	elem   *codec       // codec of a struct T
}

var codecs sync.Map // reflect.Type → *codec

// codecFor returns t's codec, compiling it on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := compile(t, nil)
	if err != nil {
		return nil, err
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// compile builds the codec of struct type t; outer lists the struct
// types being compiled around it.
func compile(t reflect.Type, outer []reflect.Type) (*codec, error) {
	bad := func(format string, args ...any) (*codec, error) {
		return nil, fmt.Errorf("wire: codec for %s: %s", t, fmt.Sprintf(format, args...))
	}
	if t.Kind() != reflect.Struct {
		return bad("not a struct")
	}
	if slices.Contains(outer, t) {
		return bad("recursive type")
	}
	if m := ownMarshalling(t); m != "" {
		return bad("type has its own %s", m)
	}
	c := &codec{name: t.Name()}
	paths := map[string]bool{} // "parent>name" of every element, "parent>" of every parent
	open := ""                 // the parent of the previous field, as appendElement opens it
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("xml")
		if tag == "-" || !sf.IsExported() && !sf.Anonymous {
			continue
		}
		if sf.Anonymous {
			return bad("embedded field %s", sf.Name)
		}
		if sf.Name == "XMLName" { // encoding/xml would name the element by it
			return bad("field XMLName: an element is named by its type")
		}
		name, flag, _ := strings.Cut(tag, ",")
		f := field{index: i, name: name, omit: flag == "omitempty"}
		if flag != "" && !f.omit {
			return bad("field %s: tag flag %q", sf.Name, flag)
		}
		if parent, leaf, ok := strings.Cut(name, ">"); ok {
			if parent == "" {
				parent = sf.Name
			}
			if !asciiName(parent) {
				return bad("field %s: path %q", sf.Name, name)
			}
			f.parent, f.name = parent, leaf
		} else if name == "" {
			f.name = sf.Name
		}
		if !asciiName(f.name) {
			return bad("field %s: name %q (paths go one level deep, names are ASCII)", sf.Name, f.name)
		}
		ft := sf.Type
		if ft.Kind() == reflect.Slice {
			f.slice = true
			ft = ft.Elem()
		}
		if m := ownMarshalling(ft); m != "" {
			return bad("field %s: type has its own %s", sf.Name, m)
		}
		switch ft.Kind() {
		case reflect.String, reflect.Bool:
			f.kind = ft.Kind()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.kind, f.bits = reflect.Int64, ft.Bits()
		case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			f.kind, f.bits = reflect.Uint64, ft.Bits()
		case reflect.Float32, reflect.Float64:
			f.kind, f.bits = reflect.Float64, ft.Bits()
		case reflect.Struct:
			elem, err := compile(ft, append(outer, t))
			if err != nil {
				return nil, err
			}
			f.kind, f.elem = reflect.Struct, elem
		default: // uint8 too: encoding/xml treats []byte as text, not as items
			return bad("field %s: unsupported type %s", sf.Name, sf.Type)
		}
		// A name may be an element or a parent at its level, never both,
		// and an element only once.
		clash := paths[f.parent+">"+f.name]
		if f.parent == "" {
			clash = clash || paths[f.name+">"]
		} else {
			clash = clash || paths[">"+f.parent]
			paths[f.parent+">"] = true
		}
		if clash {
			return bad("field %s: element %q conflicts with an earlier field", sf.Name, name)
		}
		paths[f.parent+">"+f.name] = true
		c.elems = append(c.elems, f)
		c.minPacked += f.minPacked()
		if f.parent != open {
			c.minXML += tagsLen(f.parent)
			open = f.parent
		}
		if !f.slice && !f.omit {
			c.minXML += f.minXMLItem()
		}
	}
	if !asciiName(c.name) {
		return bad("no usable element name (%q)", c.name)
	}
	return c, nil
}

// minXMLItem is the fewest bytes one element of f takes as the decoder
// reads it: its tags around an empty string, one digit of a number or a
// bool ("1"), or the shortest children of a struct.
func (f *field) minXMLItem() int {
	switch f.kind {
	case reflect.Struct:
		return tagsLen(f.name) + f.elem.minXML
	case reflect.String:
		return tagsLen(f.name)
	}
	return tagsLen(f.name) + 1
}

// tagsLen is the length of <name></name>; nothing when there is no name.
func tagsLen(name string) int {
	if name == "" {
		return 0
	}
	return 2*len(name) + 5
}

// ownMarshalling names the first custom XML or text marshalling method t
// has; encoding/xml would call it, which this codec cannot reproduce.
func ownMarshalling(t reflect.Type) string {
	for _, m := range []string{"MarshalXML", "UnmarshalXML", "MarshalXMLAttr", "UnmarshalXMLAttr", "MarshalText", "UnmarshalText"} {
		if _, ok := reflect.PointerTo(t).MethodByName(m); ok {
			return m
		}
	}
	return ""
}

// asciiName reports whether s is an XML name made of ASCII letters,
// digits, '_', '-' and '.', not starting with a digit, '-' or '.'.
func asciiName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_'
		if !letter && (i == 0 || !('0' <= c && c <= '9' || c == '.' || c == '-')) {
			return false
		}
	}
	return s != ""
}

// ---- encoding ----

// appendPayload appends payload's element to dst: a struct or a pointer
// to one (nil encodes as nothing).
func appendPayload(dst []byte, payload any) ([]byte, error) {
	v := reflect.ValueOf(payload)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return dst, nil
		}
		v = v.Elem()
	}
	if !v.IsValid() {
		return dst, nil
	}
	c, err := codecFor(v.Type())
	if err != nil {
		return dst, err
	}
	return c.appendElement(dst, c.name, v), nil
}

// appendElement appends v as an element called name.
func (c *codec) appendElement(dst []byte, name string, v reflect.Value) []byte {
	dst = appendTag(dst, "<", name)
	open := "" // the parent element currently open, shared by adjacent fields that name it
	for i := range c.elems {
		f := &c.elems[i]
		if f.parent != open {
			dst = appendTag(dst, "</", open)
			dst = appendTag(dst, "<", f.parent)
			open = f.parent
		}
		fv := v.Field(f.index)
		if f.omit && isEmpty(fv) {
			continue // after its parent opened: encoding/xml writes <A></A> for an omitted A>B
		}
		if !f.slice {
			dst = f.appendItem(dst, fv)
			continue
		}
		for j, n := 0, fv.Len(); j < n; j++ {
			if item := fv.Index(j); !f.omit || !isEmpty(item) { // ,omitempty drops empty items too
				dst = f.appendItem(dst, item)
			}
		}
	}
	dst = appendTag(dst, "</", open)
	return appendTag(dst, "</", name)
}

// appendTag appends open+name+">", or nothing when there is no name.
func appendTag(dst []byte, open, name string) []byte {
	if name == "" {
		return dst
	}
	dst = append(dst, open...)
	dst = append(dst, name...)
	return append(dst, '>')
}

func (f *field) appendItem(dst []byte, v reflect.Value) []byte {
	if f.kind == reflect.Struct {
		return f.elem.appendElement(dst, f.name, v)
	}
	dst = appendTag(dst, "<", f.name)
	dst = f.appendValue(dst, v)
	return appendTag(dst, "</", f.name)
}

func (f *field) appendValue(dst []byte, v reflect.Value) []byte {
	switch f.kind {
	case reflect.String:
		return appendEscaped(dst, v.String())
	case reflect.Bool:
		return strconv.AppendBool(dst, v.Bool())
	case reflect.Int64:
		return strconv.AppendInt(dst, v.Int(), 10)
	case reflect.Uint64:
		return strconv.AppendUint(dst, v.Uint(), 10)
	default:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, f.bits)
	}
}

// isEmpty is encoding/xml's ,omitempty test for the supported kinds.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	}
	return false
}

// escapes are the characters encoding/xml escapes in text, each with the
// reference it writes: the only references text holds.
var escapes = [...]struct {
	c   byte
	ref string
}{
	{'"', "&#34;"}, {'\'', "&#39;"}, {'&', "&amp;"}, {'<', "&lt;"},
	{'>', "&gt;"}, {'\t', "&#x9;"}, {'\n', "&#xA;"}, {'\r', "&#xD;"},
}

// escapeOf maps each ASCII byte to its reference in escapes, "" if none.
var escapeOf = func() (m [utf8.RuneSelf]string) {
	for _, e := range escapes {
		m[e.c] = e.ref
	}
	return m
}()

// appendEscaped appends s as XML text the way encoding/xml escapes
// character data: the characters in escapes as their references, and
// anything outside XML's character range (invalid UTF-8 included) as
// U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		esc := ""
		if r < utf8.RuneSelf {
			esc = escapeOf[r]
		}
		if esc == "" {
			if inCharacterRange(r) && (r != utf8.RuneError || width != 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharacterRange is the Char production of XML 1.0 §2.2.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ---- decoding ----

// decodeElement decodes data, one element exactly as appendPayload writes
// it, into the struct out points to.
func decodeElement(data []byte, out any) error {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("wire: cannot decode into %T (want a pointer to a struct)", out)
	}
	c, err := codecFor(v.Type().Elem())
	if err != nil {
		return err
	}
	d := decoder{in: data}
	if err := d.expect("<", c.name); err != nil {
		return err
	}
	if err := d.fields(c, v.Elem()); err != nil {
		return err
	}
	if err := d.expect("</", c.name); err != nil {
		return err
	}
	if d.pos < len(d.in) {
		return d.errorf("bytes after </%s>", c.name)
	}
	return nil
}

// A decoder reads an element from the front of in.
type decoder struct {
	in  []byte
	pos int
	buf []byte // text with its references replaced
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: xml: %s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

// tag consumes open+name+">" when it comes next.
func (d *decoder) tag(open, name string) bool {
	if !isTag(d.in[d.pos:], open, name) {
		return false
	}
	d.pos += len(open) + len(name) + 1
	return true
}

// isTag reports whether b starts with open+name+">".
func isTag(b []byte, open, name string) bool {
	n := len(open) + len(name)
	return hasPrefix(b, open) && hasPrefix(b[len(open):], name) && len(b) > n && b[n] == '>'
}

func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// expect consumes open+name+">", which must come next; for no name, as
// appendTag writes nothing, nothing.
func (d *decoder) expect(open, name string) error {
	if name != "" && !d.tag(open, name) {
		return d.errorf("expected %s%s>", open, name)
	}
	return nil
}

// fields decodes c's child elements, as appendElement writes them, into v.
//
// A list is allocated once, at its final length: before its first item
// is decoded, its items are counted (count), and a count the bytes left
// cannot hold at the shortest item the decoder accepts refuses the
// payload — the rule the packed form's count keeps (pack.go), so what a
// list costs is bounded by its bytes. A target that already holds items
// is appended to, as xml.Unmarshal does. When the slice's capacity holds
// the count past its length — a recycled value's list (recycle.go) — the
// items are decoded into it and the capacity is kept; otherwise the slice
// is reallocated at exactly its length plus the count. No more items are
// decoded than the count: an input whose items the count misjudged is
// refused by the tag that follows them.
func (d *decoder) fields(c *codec, v reflect.Value) error {
	open := ""
	for i := range c.elems {
		f := &c.elems[i]
		if f.parent != open {
			if err := d.expect("</", open); err != nil {
				return err
			}
			if err := d.expect("<", f.parent); err != nil {
				return err
			}
			open = f.parent
		}
		fv := v.Field(f.index)
		if !f.slice {
			if d.tag("<", f.name) {
				if err := d.value(f, fv); err != nil {
					return err
				}
			} else if !f.omit {
				return d.errorf("expected <%s>", f.name)
			}
			continue
		}
		k := d.count(f.name)
		if k == 0 {
			continue // an empty list stays nil, as xml.Unmarshal leaves it
		}
		if left := len(d.in) - d.pos; k > left/f.minXMLItem() {
			return d.errorf("%d <%s> items cannot fit in the %d bytes left", k, f.name, left)
		}
		n := fv.Len()
		if fv.Cap()-n < k {
			// Grow allocates into the field itself, where MakeSlice would
			// add a slice header; SetCap trims its size-class slack.
			fv.Grow(k)
			fv.SetCap(n + k)
		}
		for end := n + k; n < end && d.tag("<", f.name); n++ {
			fv.SetLen(n + 1)
			item := fv.Index(n)
			item.SetZero() // capacity an appended-to target brought may hold old items
			if err := d.value(f, item); err != nil {
				return err
			}
		}
	}
	return d.expect("</", open)
}

// count reports how many <name> elements follow one another from the
// read position, consuming nothing. It goes by tag depth alone: the
// encoder's text never holds '<', so every '<' starts a tag, and an item
// ends at the end tag that takes the depth back to zero — an element
// inside it that shares its name is not counted. On input the decoder
// refuses, the count may be off, but never below the items decoded
// before the refusal.
func (d *decoder) count(name string) int {
	k := 0
	for p := d.pos; isTag(d.in[p:], "<", name); {
		k++
		p += len(name) + 2
		for depth := 1; depth > 0; {
			i := bytes.IndexByte(d.in[p:], '<')
			if i < 0 || p+i+1 == len(d.in) {
				return k
			}
			p += i + 1
			if d.in[p] == '/' {
				depth--
			} else {
				depth++
			}
		}
		i := bytes.IndexByte(d.in[p:], '>')
		if i < 0 {
			return k
		}
		p += i + 1
	}
	return k
}

// value decodes the content and end tag of one element of f, whose start
// tag was just read, into v.
func (d *decoder) value(f *field, v reflect.Value) error {
	if f.kind == reflect.Struct {
		if err := d.fields(f.elem, v); err != nil {
			return err
		}
	} else {
		text, err := d.text()
		if err != nil {
			return err
		}
		if err := f.set(v, text); err != nil {
			return d.errorf("<%s>: %v", f.name, err)
		}
	}
	return d.expect("</", f.name)
}

// text reads character data up to the next '<': characters in XML's
// range, those in escapes only as their references. The result aliases
// in unless it held a reference.
func (d *decoder) text() ([]byte, error) {
	start, from := d.pos, d.pos // from: the first byte not yet copied to buf
	d.buf = d.buf[:0]
	for d.pos < len(d.in) {
		c := d.in[d.pos]
		switch {
		case c == '<':
			if from == start {
				return d.in[start:d.pos], nil
			}
			d.buf = append(d.buf, d.in[from:d.pos]...)
			return d.buf, nil
		case c == '&':
			d.buf = append(d.buf, d.in[from:d.pos]...)
			i := 0
			for i < len(escapes) && !hasPrefix(d.in[d.pos:], escapes[i].ref) {
				i++
			}
			if i == len(escapes) {
				return nil, d.errorf("character reference not among the encoder's")
			}
			d.buf = append(d.buf, escapes[i].c)
			d.pos += len(escapes[i].ref)
			from = d.pos
		case c >= utf8.RuneSelf:
			r, width := utf8.DecodeRune(d.in[d.pos:])
			if r == utf8.RuneError && width == 1 || !inCharacterRange(r) {
				return nil, d.errorf("character %q outside XML's range", d.in[d.pos:d.pos+width])
			}
			d.pos += width
		case c < 0x20 || escapeOf[c] != "":
			return nil, d.errorf("unescaped %q", c)
		default:
			d.pos++
		}
	}
	return nil, d.errorf("text runs to the end")
}

// set parses text into scalar v with the strconv call encoding/xml
// makes, but on the text as it stands: encoding/xml trims the space
// around a number or bool and reads an empty one as zero, and the encoder
// writes neither, so here both are refused.
func (f *field) set(v reflect.Value, text []byte) error {
	switch f.kind {
	case reflect.String:
		v.SetString(string(text))
	case reflect.Bool:
		b, err := strconv.ParseBool(string(text))
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int64:
		n, err := strconv.ParseInt(string(text), 10, f.bits)
		if err != nil {
			return err
		}
		v.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(string(text), 10, f.bits)
		if err != nil {
			return err
		}
		v.SetUint(n)
	default:
		n, err := strconv.ParseFloat(string(text), f.bits)
		if err != nil {
			return err
		}
		v.SetFloat(n)
	}
	return nil
}
