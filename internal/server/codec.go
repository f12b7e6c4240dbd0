package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The /v1/invoke wire codec. The request body is read into one pooled byte
// buffer and scanned once: every input number is parsed into one pooled flat
// []float64, and each Inputs row is a 3-index sub-slice of it, so a warmed
// handler decodes a batch of any size without allocating per row or per
// number. The reply is appended into the same byte buffer by hand.
//
// The decoder accepts exactly the bodies json.Unmarshal accepts into an
// InvokeRequest — the same number grammar, string escapes, key folding,
// nesting limit and null rules — and the encoder writes exactly the bytes
// json.Marshal writes for an InvokeResponse (FuzzInvokeCodec holds both to
// encoding/json). Unlike json.Decoder, the decoder rejects bytes after the
// top-level value.

// maxNestingDepth is encoding/json's nesting limit; deeper bodies are
// rejected on both sides.
const maxNestingDepth = 10000

// invokeCodec is the pooled per-request state of one POST /v1/invoke.
type invokeCodec struct {
	req InvokeRequest
	// buf holds the request body while it is decoded and then the encoded
	// reply: decoding copies every string out of it, so nothing still
	// points into the body once decode returns.
	buf []byte
	// flat holds every input number, row after row; req.Inputs rows are
	// 3-index sub-slices of it, so appending to one row cannot overwrite
	// the next.
	flat []float64
	// rows are the bounds of each input row in flat while parsing (start
	// < 0 marks a null row). flat may move as it grows, so the row slices
	// are cut only once the whole body is parsed.
	rows []rowSpan
	// inputs is the capacity behind req.Inputs, kept across requests.
	inputs [][]float64
	// hasInputs is set when the last "inputs" member was an array.
	hasInputs bool
	// outs holds the reply's row headers.
	outs [][]float64
}

type rowSpan struct{ start, end int }

// decode reads the request body (at most maxRequestBytes; sizeHint is its
// Content-Length, or -1) and parses it into c.req.
func (c *invokeCodec) decode(body io.Reader, sizeHint int64) error {
	if err := c.readBody(body, sizeHint); err != nil {
		return err
	}
	c.req = InvokeRequest{}
	c.hasInputs = false
	d := decoder{data: c.buf}
	if err := d.request(&c.req, c); err != nil {
		return err
	}
	c.cutRows()
	return nil
}

// readBody reads r to EOF into c.buf, reusing its capacity.
func (c *invokeCodec) readBody(r io.Reader, sizeHint int64) error {
	b := c.buf[:0]
	if sizeHint > 0 && sizeHint <= maxRequestBytes {
		// One byte spare, so the read that sees EOF needs no growth.
		b = slices.Grow(b, int(sizeHint)+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			c.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// cutRows turns the parsed row bounds into req.Inputs.
func (c *invokeCodec) cutRows() {
	if !c.hasInputs {
		return
	}
	in := c.inputs[:0]
	for _, r := range c.rows {
		if r.start < 0 {
			in = append(in, nil)
			continue
		}
		in = append(in, c.flat[r.start:r.end:r.end])
	}
	if in == nil {
		in = [][]float64{} // `"inputs":[]` is empty, not absent
	}
	c.inputs = in
	c.req.Inputs = in
}

// PeekInvoke reads the routing fields of a POST /v1/invoke body — tenant and
// deadlineMs — without converting a single input number. It accepts exactly
// the bodies json.Unmarshal accepts into a struct holding just those two
// fields: every other member, inputs included, is skipped with its grammar
// checked, and bytes after the object are an error.
func PeekInvoke(body []byte) (tenant string, deadlineMs int64, err error) {
	var req InvokeRequest
	d := decoder{data: body}
	if err := d.request(&req, nil); err != nil {
		return "", 0, err
	}
	return req.Tenant, req.DeadlineMs, nil
}

// decoder scans one JSON document in place.
type decoder struct {
	data []byte
	off  int
}

// request parses a whole body into req. With c nil it binds only tenant and
// deadlineMs and skips every other member.
func (d *decoder) request(req *InvokeRequest, c *invokeCodec) error {
	switch d.peek() {
	case 'n':
		// A null body leaves the request zero, as in json.Unmarshal.
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.members(req, c); err != nil {
			return err
		}
	default:
		return d.want("request body", "a JSON object")
	}
	d.space()
	if d.off < len(d.data) {
		return d.fail("after top-level value")
	}
	return nil
}

// Field indices of InvokeRequest, in the order of fieldNames.
const (
	fieldTenant = iota
	fieldKernel
	fieldInputs
	fieldChecker
	fieldMode
	fieldTarget
	fieldDeadline
	fieldUnknown
)

var fieldNames = [...][]byte{
	[]byte("tenant"), []byte("kernel"), []byte("inputs"), []byte("checker"),
	[]byte("mode"), []byte("target"), []byte("deadlineMs"),
}

// members parses the top-level object at d.off.
func (d *decoder) members(req *InvokeRequest, c *invokeCodec) error {
	d.off++ // '{'
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if bytes.IndexByte(key, '\\') >= 0 {
			s, err := unescape(key)
			if err != nil {
				return err
			}
			key = []byte(s)
		} else {
			key = key[1 : len(key)-1]
		}
		if d.peek() != ':' {
			return d.fail("after object key")
		}
		d.off++
		field := fieldUnknown
		for i, name := range fieldNames {
			// encoding/json matches keys case-insensitively with the same
			// simple folding (its foldName), so "TENANT" binds tenant and
			// "\u212Aernel" (a Kelvin sign) binds kernel.
			if bytes.EqualFold(key, name) {
				field = i
				break
			}
		}
		if c == nil && field != fieldTenant && field != fieldDeadline {
			field = fieldUnknown
		}
		switch field {
		case fieldTenant:
			err = d.stringInto(&req.Tenant)
		case fieldKernel:
			err = d.stringInto(&req.Kernel)
		case fieldChecker:
			err = d.stringInto(&req.Checker)
		case fieldMode:
			err = d.stringInto(&req.Mode)
		case fieldInputs:
			err = d.inputs(c)
		case fieldTarget:
			err = d.floatInto(&req.Target)
		case fieldDeadline:
			err = d.intInto(&req.DeadlineMs)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.fail("after object key:value pair")
		}
	}
}

// inputs parses the inputs member into c.rows and c.flat.
func (d *decoder) inputs(c *invokeCodec) error {
	switch d.peek() {
	case 'n':
		c.hasInputs = false
		return d.literal("null")
	case '[':
	default:
		return d.want("inputs", "an array")
	}
	d.off++
	c.hasInputs = true
	c.rows, c.flat = c.rows[:0], c.flat[:0]
	if c.flat == nil {
		c.flat = make([]float64, 0, 256) // a nil flat would make `[]` rows nil
	}
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for {
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			c.rows = append(c.rows, rowSpan{-1, -1})
		case '[':
			start := len(c.flat)
			if err := d.row(c); err != nil {
				return err
			}
			c.rows = append(c.rows, rowSpan{start, len(c.flat)})
		default:
			return d.want("inputs", "an array of rows")
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			return nil
		default:
			return d.fail("after array element")
		}
	}
}

// row parses one input row at d.off, appending its numbers to c.flat.
func (d *decoder) row(c *invokeCodec) error {
	d.off++ // '['
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for {
		f := 0.0 // null leaves a number unset, which in a fresh row is 0
		switch ch := d.peek(); {
		case ch == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case ch == '-' || isDigit(ch):
			tok, err := d.number()
			if err != nil {
				return err
			}
			if f, err = strconv.ParseFloat(string(tok), 64); err != nil {
				return fmt.Errorf("input number %s does not fit a float64", tok)
			}
		default:
			return d.want("inputs", "rows of numbers")
		}
		c.flat = append(c.flat, f)
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			return nil
		default:
			return d.fail("after array element")
		}
	}
}

// stringInto parses a string member; null leaves dst unchanged.
func (d *decoder) stringInto(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.want("a string member", "a string")
	}
	tok, err := d.str()
	if err != nil {
		return err
	}
	body := tok[1 : len(tok)-1]
	switch {
	case bytes.IndexByte(body, '\\') >= 0:
		*dst, err = unescape(tok)
		return err
	case utf8.Valid(body):
		*dst = string(body)
	default:
		*dst = string(validUTF8(body))
	}
	return nil
}

// floatInto parses a number member; null leaves dst unchanged.
func (d *decoder) floatInto(dst *float64) error {
	switch ch := d.peek(); {
	case ch == 'n':
		return d.literal("null")
	case ch == '-' || isDigit(ch):
	default:
		return d.want("target", "a number")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return fmt.Errorf("target %s does not fit a float64", tok)
	}
	return nil
}

// intInto parses an integer member; null leaves dst unchanged.
func (d *decoder) intInto(dst *int64) error {
	switch ch := d.peek(); {
	case ch == 'n':
		return d.literal("null")
	case ch == '-' || isDigit(ch):
	default:
		return d.want("deadlineMs", "an integer")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
		return fmt.Errorf("deadlineMs %s is not a 64-bit integer", tok)
	}
	return nil
}

// skip checks and steps over one value of any type; depth is the nesting
// depth of the container holding it.
func (d *decoder) skip(depth int) error {
	switch ch := d.peek(); ch {
	case '{', '[':
		return d.skipContainer(depth + 1)
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if ch != '-' && !isDigit(ch) {
			return d.fail("looking for beginning of value")
		}
		_, err := d.number()
		return err
	}
}

func (d *decoder) skipContainer(depth int) error {
	if depth > maxNestingDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.off)
	}
	open := d.data[d.off]
	end := byte(']')
	if open == '{' {
		end = '}'
	}
	d.off++
	if d.peek() == end {
		d.off++
		return nil
	}
	for {
		if open == '{' {
			if d.peek() != '"' {
				return d.fail("looking for beginning of object key string")
			}
			if _, err := d.str(); err != nil {
				return err
			}
			if d.peek() != ':' {
				return d.fail("after object key")
			}
			d.off++
		}
		if err := d.skip(depth); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case end:
			d.off++
			return nil
		default:
			return d.fail("after container element")
		}
	}
}

// str checks the string token at d.off (which holds '"') and returns it,
// quotes included.
func (d *decoder) str() ([]byte, error) {
	start := d.off
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:d.off], nil
		case c == '\\':
			i++
			if i >= len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					i++
					if i >= len(d.data) || !isHex(d.data[i]) {
						d.off = i
						return nil, d.fail("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, d.fail("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, d.fail("in string literal")
		}
	}
	d.off = len(d.data)
	return nil, d.fail("in string literal")
}

// number checks the number token at d.off and returns it. The grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? is JSON's; strconv alone
// would also take "+1", "1.", "0x1p3" and "Inf".
func (d *decoder) number() ([]byte, error) {
	data, start, i := d.data, d.off, d.off
	digits := func() {
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		digits()
	default:
		d.off = i
		return nil, d.fail("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.fail("after decimal point in numeric literal")
		}
		digits()
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.fail("in exponent of numeric literal")
		}
		digits()
	}
	d.off = i
	return data[start:i], nil
}

// literal consumes the keyword lit (true, false or null) at d.off.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.fail("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// space skips JSON white space.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	d.space()
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// fail describes a syntax error at d.off.
func (d *decoder) fail(context string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// want describes a value of the wrong type (or a syntax error) at d.off.
func (d *decoder) want(field, kind string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("%s: want %s, found %q at offset %d", field, kind, d.data[d.off], d.off)
}

// unescape decodes a string token holding a backslash escape: surrogate
// pairs, lone surrogates and invalid UTF-8 follow encoding/json exactly
// because encoding/json does the work.
func unescape(tok []byte) (string, error) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// validUTF8 replaces each byte of an invalid UTF-8 sequence with U+FFFD, as
// encoding/json does (bytes.ToValidUTF8 would merge a run into one).
func validUTF8(b []byte) []byte {
	out := make([]byte, 0, len(b)+8)
	for i := 0; i < len(b); {
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			out = utf8.AppendRune(out, utf8.RuneError)
		} else {
			out = append(out, b[i:i+n]...)
		}
		i += n
	}
	return out
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendResponse appends r exactly as json.Marshal writes it, plus the
// newline writeJSON adds. A NaN or ±Inf anywhere is an error, as in
// json.Marshal, and the bytes appended so far must then be discarded.
func appendResponse(b []byte, r *InvokeResponse) ([]byte, error) {
	var err error
	b = append(b, `{"tenant":`...)
	b = appendString(b, r.Tenant)
	b = append(b, `,"kernel":`...)
	b = appendString(b, r.Kernel)
	b = append(b, `,"outputs":`...)
	if r.Outputs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range r.Outputs {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				if b, err = appendFloat(b, v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `,"elements":`...)
	b = strconv.AppendInt(b, int64(r.Elements), 10)
	b = append(b, `,"fixed":`...)
	b = strconv.AppendInt(b, int64(r.Fixed), 10)
	b = append(b, `,"degradedElements":`...)
	b = strconv.AppendInt(b, int64(r.DegradedElements), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, r.Degraded)
	b = append(b, `,"threshold":`...)
	if b, err = appendFloat(b, r.Threshold); err != nil {
		return b, err
	}
	if r.Checker != "" {
		b = append(b, `,"checker":`...)
		b = appendString(b, r.Checker)
	}
	return append(b, "}\n"...), nil
}

// appendFloat writes f in encoding/json's format: like ES6 number to
// string, 'f' except below 1e-6 and from 1e21 on, with the exponent not
// padded to two digits.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString writes s as a JSON string with encoding/json's escaping:
// HTML-sensitive <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028
// and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
