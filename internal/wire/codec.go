package wire

import (
	"bytes"
	"errors"
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
// caller-supplied buffer and decodes it with a pull scanner over the
// request bytes. The bytes written are those encoding/xml's Marshal
// writes for the same value, and depend on the value alone: a stored
// reply is kept packed (pack.go) and encoded again when it is replayed,
// and the replay must repeat the first answer byte for byte. The decoder
// accepts what encoding/xml's Unmarshal accepts
// for these types: an XML declaration, comments, processing instructions,
// CDATA, the five named and all numeric entities, self-closing and
// unknown elements, prefixed names (matched on their local part), and
// anything at all after the root element's end tag.
//
// The tag vocabulary is the one the message types use:
//
//	xml:"Name"            element (a bare field uses its own name)
//	xml:"Name,omitempty"  element, left out when zero or empty
//	xml:"A>B"             one <B> per item, all inside a single <A>
//	xml:"name,attr"       attribute (also with ,omitempty)
//	xml:",innerxml"       a []byte holding the element's raw content
//	XMLName … xml:"Name"  names the element and makes decode insist on it
//
// on fields of string, bool, integer and float kinds, structs of these,
// and slices of either. Anything else — another flag, a deeper path, a
// pointer or map field, a type with its own XML or text marshalling —
// fails to compile, which Typed reports when the handler is registered.
//
// Two things are narrower than encoding/xml: a <!DOCTYPE …> or other
// directive is rejected rather than skipped, and characters above ASCII
// in element and attribute names are accepted when well-formed UTF-8
// without consulting XML's letter tables.

// A codec encodes and decodes one struct type.
type codec struct {
	name   string  // element name: the XMLName tag, else the type's name
	strict bool    // named by an XMLName tag: decode rejects any other root
	attrs  []field // ,attr fields in declaration order
	elems  []field // element fields in declaration order
	inner  int     // index of the ,innerxml field, -1 if none

	// packed is every field in declaration order, the ,innerxml one as a
	// string: the layout of the packed form (pack.go). minPacked is the
	// fewest bytes a packed value takes.
	packed    []field
	minPacked int
}

// A field is one attribute or child element of a codec's struct.
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
	c := &codec{name: t.Name(), inner: -1}
	paths := map[string]bool{} // "parent>name" of every element, "parent>" of every parent
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("xml")
		if tag == "-" || !sf.IsExported() && !sf.Anonymous {
			continue
		}
		if sf.Anonymous {
			return bad("embedded field %s", sf.Name)
		}
		name, flags, _ := strings.Cut(tag, ",")
		if sf.Name == "XMLName" {
			if flags != "" || !asciiName(name) {
				return bad("XMLName tag %q is not a plain element name", tag)
			}
			c.name, c.strict = name, true
			continue
		}
		f := field{index: i, name: name}
		var attr, inner bool
		for flags != "" {
			var flag string
			flag, flags, _ = strings.Cut(flags, ",")
			switch flag {
			case "attr":
				attr = true
			case "omitempty":
				f.omit = true
			case "innerxml":
				inner = true
			default:
				return bad("field %s: tag flag %q", sf.Name, flag)
			}
		}
		ft := sf.Type
		if inner {
			if name != "" || attr || f.omit || c.inner >= 0 || ft != reflect.TypeFor[[]byte]() {
				return bad("field %s: ,innerxml must stand alone on a single []byte field", sf.Name)
			}
			c.inner = i
			continue
		}
		if parent, leaf, ok := strings.Cut(name, ">"); ok {
			if parent == "" {
				parent = sf.Name
			}
			if attr || !asciiName(parent) {
				return bad("field %s: path %q", sf.Name, name)
			}
			f.parent, f.name = parent, leaf
		} else if name == "" {
			f.name = sf.Name
		}
		if !asciiName(f.name) {
			return bad("field %s: name %q (paths go one level deep, names are ASCII)", sf.Name, f.name)
		}
		if ft.Kind() == reflect.Slice && !attr {
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
			if attr {
				return bad("field %s: struct as an attribute", sf.Name)
			}
			elem, err := compile(ft, append(outer, t))
			if err != nil {
				return nil, err
			}
			if elem.strict {
				return bad("field %s: XMLName on a nested element", sf.Name)
			}
			f.kind, f.elem = reflect.Struct, elem
		default: // uint8 too: encoding/xml treats []byte as text, not as items
			return bad("field %s: unsupported type %s", sf.Name, sf.Type)
		}
		if attr {
			if paths["@"+f.name] {
				return bad("field %s: duplicate attribute %q", sf.Name, f.name)
			}
			paths["@"+f.name] = true
			c.attrs = append(c.attrs, f)
			continue
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
	}
	if !asciiName(c.name) {
		return bad("no usable element name (%q)", c.name)
	}
	if c.inner >= 0 && len(c.elems) > 0 {
		return bad(",innerxml beside element fields")
	}
	c.packed = slices.Concat(c.attrs, c.elems)
	if c.inner >= 0 {
		c.packed = append(c.packed, field{index: c.inner, kind: reflect.String})
	}
	slices.SortFunc(c.packed, func(a, b field) int { return a.index - b.index })
	for i := range c.packed {
		c.minPacked += c.packed[i].minPacked()
	}
	return c, nil
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
		if c := s[i]; c == ':' || !isNameByte(c) || i == 0 && !isNameStart(c) {
			return false
		}
	}
	return s != ""
}

func isNameStart(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

func isNameByte(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
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

// appendStart appends the start tag of v's element, attributes included.
func (c *codec) appendStart(dst []byte, name string, v reflect.Value) []byte {
	dst = append(dst, '<')
	dst = append(dst, name...)
	for i := range c.attrs {
		f := &c.attrs[i]
		fv := v.Field(f.index)
		if f.omit && isEmpty(fv) {
			continue
		}
		dst = append(dst, ' ')
		dst = append(dst, f.name...)
		dst = append(dst, '=', '"')
		dst = f.appendValue(dst, fv)
		dst = append(dst, '"')
	}
	return append(dst, '>')
}

// appendElement appends v as an element called name.
func (c *codec) appendElement(dst []byte, name string, v reflect.Value) []byte {
	dst = c.appendStart(dst, name, v)
	if c.inner >= 0 {
		dst = append(dst, v.Field(c.inner).Bytes()...)
	}
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

// appendEscaped appends s as XML text the way encoding/xml escapes both
// character data and attribute values: quotes, tab, newline and carriage
// return as numeric references, and anything outside XML's character
// range (invalid UTF-8 included) as U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
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

// decodeElement decodes the first element in data into the struct out
// points to. A []byte ,innerxml field is left aliasing data.
func decodeElement(data []byte, out any) error {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("wire: cannot decode into %T (want a pointer to a struct)", out)
	}
	c, err := codecFor(v.Type().Elem())
	if err != nil {
		return err
	}
	s := scanners.Get().(*scanner)
	s.in = data
	err = s.decodeRoot(c, v.Elem())
	s.reset()
	scanners.Put(s)
	return err
}

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// maxPooledScratch bounds the text scratch a pooled scanner keeps.
const maxPooledScratch = 64 << 10

type token int

const (
	tokStart token = iota // name, attrs, selfClose are set
	tokEnd                // name is set
	tokText               // data is set
	tokOther              // comment or processing instruction
)

// A scanner pulls XML tokens off in. It checks what encoding/xml's strict
// decoder checks — names, quoting, entities, the character range, "]]>"
// in text, the XML declaration — except that matching an end tag to its
// start tag is left to the caller, which knows the open element.
type scanner struct {
	in  []byte
	pos int

	name      []byte // of the current start or end tag, as written
	attrs     []attr // of the current start tag
	selfClose bool   // the start tag ended "/>": the next token is its end
	data      []byte // of the current text token

	// buf receives text that cannot alias in (entities expanded, \r\n
	// folded). It only grows during one decode, so everything handed out
	// stays valid until the decode returns.
	buf  []byte
	acc  []byte   // a scalar's text when it arrives in several pieces
	open [][]byte // names of the elements skip is inside of
}

type attr struct{ name, val []byte }

// reset lets go of the input, and of scratch grown past what is worth
// pooling.
func (s *scanner) reset() {
	if cap(s.buf)+cap(s.acc) > maxPooledScratch || cap(s.attrs)+cap(s.open) > 256 {
		*s = scanner{}
		return
	}
	clear(s.attrs[:cap(s.attrs)])
	clear(s.open[:cap(s.open)])
	*s = scanner{attrs: s.attrs[:0], open: s.open[:0], buf: s.buf[:0], acc: s.acc[:0]}
}

var errUnexpectedEOF = errors.New("wire: xml: unexpected EOF")

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: xml: %s at offset %d", fmt.Sprintf(format, args...), s.pos)
}

// next reads one token.
func (s *scanner) next() (token, error) {
	if s.selfClose {
		s.selfClose = false
		return tokEnd, nil
	}
	if s.pos >= len(s.in) {
		return 0, errUnexpectedEOF
	}
	if s.in[s.pos] != '<' {
		var err error
		s.data, err = s.text(-1, false)
		return tokText, err
	}
	s.pos++
	switch s.peek() {
	case '/':
		s.pos++
		if err := s.readName("element name after </"); err != nil {
			return 0, err
		}
		s.space()
		if s.peek() != '>' {
			return 0, s.errorf("invalid characters between </%s and >", s.name)
		}
		s.pos++
		return tokEnd, nil
	case '?':
		s.pos++
		return tokOther, s.procInst()
	case '!':
		s.pos++
		switch rest := s.in[s.pos:]; {
		case bytes.HasPrefix(rest, []byte("--")):
			s.pos += 2
			return tokOther, s.comment()
		case bytes.HasPrefix(rest, []byte("[CDATA[")):
			s.pos += 7
			var err error
			s.data, err = s.text(-1, true)
			return tokText, err
		case bytes.HasPrefix(rest, []byte("-")), bytes.HasPrefix(rest, []byte("[")):
			return 0, s.errorf("invalid <! sequence")
		}
		return 0, s.errorf("directives (<!…>) are not supported")
	}
	return tokStart, s.startTag()
}

// peek returns the byte at pos, or 0 at the end of input; 0 is never a
// byte any caller is looking for.
func (s *scanner) peek() byte {
	if s.pos < len(s.in) {
		return s.in[s.pos]
	}
	return 0
}

func (s *scanner) space() {
	for s.pos < len(s.in) {
		switch s.in[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// readName reads a name into s.name: ASCII name characters checked
// against XML's rules, anything above ASCII taken as a name character
// when it is well-formed UTF-8.
func (s *scanner) readName(what string) error {
	start := s.pos
	for s.pos < len(s.in) && (s.in[s.pos] >= utf8.RuneSelf || isNameByte(s.in[s.pos])) {
		s.pos++
	}
	s.name = s.in[start:s.pos]
	if len(s.name) == 0 {
		return s.errorf("expected %s", what)
	}
	if s.name[0] < utf8.RuneSelf && !isNameStart(s.name[0]) || !utf8.Valid(s.name) {
		return s.errorf("invalid XML name %q", s.name)
	}
	return nil
}

// localName returns the part of a name after its namespace prefix, which is
// all of it unless exactly one ':' splits it into two non-empty halves.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// startTag reads a start tag from just after its '<'.
func (s *scanner) startTag() error {
	if err := s.readName("element name after <"); err != nil {
		return err
	}
	name := s.name
	if bytes.Count(name, []byte(":")) > 1 {
		return s.errorf("expected element name after <")
	}
	s.attrs = s.attrs[:0]
	for {
		s.space()
		switch s.peek() {
		case '/':
			s.pos++
			if s.peek() != '>' {
				return s.errorf("expected /> in element")
			}
			s.pos++
			s.selfClose = true
			s.name = name
			return nil
		case '>':
			s.pos++
			s.name = name
			return nil
		}
		if s.pos >= len(s.in) {
			return errUnexpectedEOF
		}
		if err := s.readName("attribute name in element"); err != nil {
			return err
		}
		a := attr{name: s.name}
		if bytes.Count(a.name, []byte(":")) > 1 {
			return s.errorf("expected attribute name in element")
		}
		s.space()
		if s.peek() != '=' {
			return s.errorf("attribute name without = in element")
		}
		s.pos++
		s.space()
		quote := s.peek()
		if quote != '"' && quote != '\'' {
			return s.errorf("unquoted or missing attribute value in element")
		}
		s.pos++
		var err error
		if a.val, err = s.text(int(quote), false); err != nil {
			return err
		}
		if s.peek() != quote {
			return errUnexpectedEOF
		}
		s.pos++
		s.attrs = append(s.attrs, a)
	}
}

// comment skips a comment from just after its "<!--".
func (s *scanner) comment() error {
	i := bytes.Index(s.in[s.pos:], []byte("--"))
	if i < 0 || s.pos+i+2 >= len(s.in) {
		return errUnexpectedEOF
	}
	s.pos += i + 2
	if s.in[s.pos] != '>' {
		return s.errorf(`invalid sequence "--" not allowed in comments`)
	}
	s.pos++
	return nil
}

// procInst skips a processing instruction from just after its "<?". An
// XML declaration may only say version 1.0 and encoding UTF-8.
func (s *scanner) procInst() error {
	if err := s.readName("target name after <?"); err != nil {
		return err
	}
	s.space()
	i := bytes.Index(s.in[s.pos:], []byte("?>"))
	if i < 0 {
		return errUnexpectedEOF
	}
	content := s.in[s.pos : s.pos+i]
	s.pos += i + 2
	if string(s.name) != "xml" {
		return nil
	}
	if ver := pseudoAttr("version", content); ver != "" && ver != "1.0" {
		return s.errorf("unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := pseudoAttr("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.errorf("unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// pseudoAttr finds param="value" (either quote) in an XML declaration the
// loose way encoding/xml does: the first occurrence of `param=` that is
// followed by a quote.
func pseudoAttr(param string, content []byte) string {
	s := string(content)
	for {
		_, rest, ok := strings.Cut(s, param+"=")
		if !ok || rest == "" {
			return ""
		}
		if q := rest[0]; q == '\'' || q == '"' {
			val, _, closed := strings.Cut(rest[1:], string(q))
			if !closed {
				return ""
			}
			return val
		}
		s = rest[1:]
	}
}

// text reads character data up to the next '<' or the end of input
// (quote < 0), an attribute value up to its closing quote (left unread),
// or a CDATA section through its "]]>". The result aliases in unless it
// had to be rewritten.
func (s *scanner) text(quote int, cdata bool) ([]byte, error) {
	// Most text is plain ASCII with nothing to expand, fold or check.
	start := s.pos
	for i := start; ; i++ {
		if i == len(s.in) {
			if quote >= 0 || cdata {
				break // the slow path words the error
			}
			s.pos = i
			return s.in[start:i], nil
		}
		c := s.in[i]
		if c == '<' && !cdata && quote < 0 || int(c) == quote {
			s.pos = i
			return s.in[start:i], nil
		}
		if c < 0x20 && c != '\n' && c != '\t' || c >= utf8.RuneSelf || c == '&' || c == '<' || c == ']' {
			break
		}
	}

	mark := len(s.buf)
	var b0, b1 byte
	trunc := 0
Input:
	for {
		if s.pos >= len(s.in) {
			if cdata {
				return nil, s.errorf("unexpected EOF in CDATA section")
			}
			break
		}
		b := s.in[s.pos]
		s.pos++
		switch {
		case quote < 0 && b0 == ']' && b1 == ']' && b == '>':
			if !cdata {
				return nil, s.errorf("unescaped ]]> not in CDATA section")
			}
			trunc = 2
			break Input
		case b == '<' && !cdata:
			if quote >= 0 {
				return nil, s.errorf("unescaped < inside quoted string")
			}
			s.pos--
			break Input
		case quote >= 0 && b == byte(quote):
			s.pos--
			break Input
		case b == '&' && !cdata:
			r, err := s.entity()
			if err != nil {
				return nil, err
			}
			s.buf = utf8.AppendRune(s.buf, r)
			b0, b1 = 0, 0
			continue
		case b == '\r':
			s.buf = append(s.buf, '\n')
		case b1 == '\r' && b == '\n':
			// \r\n: the \r already became the \n.
		default:
			s.buf = append(s.buf, b)
		}
		b0, b1 = b1, b
	}
	data := s.buf[mark : len(s.buf)-trunc]
	for rest := data; len(rest) > 0; {
		r, size := utf8.DecodeRune(rest)
		if r == utf8.RuneError && size == 1 {
			return nil, s.errorf("invalid UTF-8")
		}
		if !inCharacterRange(r) {
			return nil, s.errorf("illegal character code %U", r)
		}
		rest = rest[size:]
	}
	return data, nil
}

// entity reads a character or entity reference from just after its '&'.
// Only the five predefined entities are known.
func (s *scanner) entity() (rune, error) {
	start := s.pos
	bad := func() (rune, error) {
		return 0, s.errorf("invalid character entity &%s", s.in[start:min(s.pos+1, len(s.in))])
	}
	if s.peek() != '#' {
		for s.pos < len(s.in) && (s.in[s.pos] >= utf8.RuneSelf || isNameByte(s.in[s.pos])) {
			s.pos++
		}
		if s.peek() != ';' {
			return bad()
		}
		s.pos++
		switch string(s.in[start : s.pos-1]) {
		case "lt":
			return '<', nil
		case "gt":
			return '>', nil
		case "amp":
			return '&', nil
		case "apos":
			return '\'', nil
		case "quot":
			return '"', nil
		}
		s.pos--
		return bad()
	}
	s.pos++
	base := 10
	if s.peek() == 'x' {
		base = 16
		s.pos++
	}
	digits := s.pos
	for c := s.peek(); '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F'); c = s.peek() {
		s.pos++
	}
	if s.peek() != ';' {
		return bad()
	}
	n, err := strconv.ParseUint(string(s.in[digits:s.pos]), base, 64)
	if err != nil || n > utf8.MaxRune {
		return bad()
	}
	s.pos++
	return rune(n), nil
}

// skip reads through the end tag of the element whose start tag was just
// read, checking everything inside it and keeping nothing.
func (s *scanner) skip() error {
	mark := len(s.buf)
	s.open = append(s.open[:0], s.name)
	for len(s.open) > 0 {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			s.open = append(s.open, s.name)
		case tokEnd:
			if err := s.closes(s.open[len(s.open)-1]); err != nil {
				return err
			}
			s.open = s.open[:len(s.open)-1]
		}
	}
	s.buf = s.buf[:mark]
	return nil
}

// closes checks that the end tag just read closes the element opened as
// name.
func (s *scanner) closes(name []byte) error {
	if !bytes.Equal(s.name, name) {
		return s.errorf("element <%s> closed by </%s>", name, s.name)
	}
	return nil
}

// decodeRoot finds the first element — whatever precedes it is checked
// and ignored — and decodes it into v. Nothing after its end tag is read.
func (s *scanner) decodeRoot(c *codec, v reflect.Value) error {
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			if c.strict && string(localName(s.name)) != c.name {
				return fmt.Errorf("wire: xml: expected element <%s> but have <%s>", c.name, localName(s.name))
			}
			return s.decodeStruct(c, v)
		case tokEnd:
			return s.errorf("unexpected end element </%s>", s.name)
		}
	}
}

// decodeStruct decodes the element whose start tag was just read into v.
func (s *scanner) decodeStruct(c *codec, v reflect.Value) error {
	name := s.name
	for _, a := range s.attrs {
		for i := range c.attrs {
			if f := &c.attrs[i]; string(localName(a.name)) == f.name {
				if err := f.set(v.Field(f.index), a.val); err != nil {
					return err
				}
			}
		}
	}
	body := s.pos
	for {
		end := s.pos
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			if err := s.decodeChild(c, v, ""); err != nil {
				return err
			}
		case tokEnd:
			if c.inner >= 0 {
				v.Field(c.inner).SetBytes(s.in[body:end:end])
			}
			return s.closes(name)
		}
	}
}

// decodeChild handles the child element whose start tag was just read:
// into the field of v named so under parent, into the fields under it if
// it is itself a parent, else skipped.
func (s *scanner) decodeChild(c *codec, v reflect.Value, parent string) error {
	name := s.name
	child := localName(name)
	under := "" // child, when fields name it as their parent
	for i := range c.elems {
		f := &c.elems[i]
		if f.parent == parent && f.name == string(child) {
			return s.decodeField(f, v.Field(f.index))
		}
		if parent == "" && f.parent == string(child) {
			under = f.parent
		}
	}
	if under == "" {
		return s.skip()
	}
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			if err := s.decodeChild(c, v, under); err != nil {
				return err
			}
		case tokEnd:
			return s.closes(name)
		}
	}
}

// decodeField decodes the element whose start tag was just read into
// field value v, or into a new last item when v is a slice.
func (s *scanner) decodeField(f *field, v reflect.Value) error {
	if f.slice {
		n := v.Len()
		if n == 0 {
			v.Grow(4) // most lists here have a few items; skip the 1-2-4 climb
		} else {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		v = v.Index(n)
		v.SetZero()
	}
	if f.kind == reflect.Struct {
		return s.decodeStruct(f.elem, v)
	}
	// A scalar's value is all the character data directly inside it;
	// child elements are checked and ignored.
	name := s.name
	var text []byte
	pieces := 0
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			if err := s.skip(); err != nil {
				return err
			}
		case tokText:
			if pieces++; pieces == 1 {
				text = s.data
				break
			}
			if pieces == 2 {
				s.acc = append(s.acc[:0], text...)
			}
			s.acc = append(s.acc, s.data...)
			text = s.acc
		case tokEnd:
			if err := s.closes(name); err != nil {
				return err
			}
			return f.set(v, text)
		}
	}
}

// set parses text into scalar v the way encoding/xml does: numbers and
// booleans trimmed of surrounding space, empty meaning zero.
func (f *field) set(v reflect.Value, text []byte) error {
	if f.kind == reflect.String {
		v.SetString(string(text))
		return nil
	}
	if len(text) == 0 {
		v.SetZero()
		return nil
	}
	text = bytes.TrimSpace(text)
	switch f.kind {
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
