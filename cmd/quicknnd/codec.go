package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
)

// The wire codec of the two hot routes, /v1/frame and /v1/search
// (docs/serving.md, "Request bodies"). A body is read once, pre-sized
// from Content-Length, and walked once by one scanner, which writes
// coordinates straight into a []quicknn.Point sized from the body; a
// /v1/search reply is appended with strconv into a pooled buffer. Every
// other reply, and every client in this package, stays on encoding/json.
//
// Request bodies and points are allocated per request, not pooled: a
// pooled buffer stays live heap, which the collector's heap goal
// doubles, and pooling the frame body raised quicknnd's peak resident
// memory on perfbench's wire_search by 15% (docs/performance.md, "Wire
// codec"). Reply buffers are pooled: unpooled, they were about a third
// of what quicknnd allocated per frame there.
//
// The decoder accepts exactly what json.Unmarshal into frameRequest or
// searchRequest accepts and decodes the same bits, with two
// tightenings: each point or query is exactly three JSON numbers (JSON
// zero-fills a short triple, drops extra elements and reads null as
// (0,0,0)), and nothing but whitespace may follow the top-level value
// (json.Decoder ignores trailing data). The fuzz targets in
// codec_test.go hold it to that oracle.

// maxBodyBytes bounds a /v1/frame or /v1/search body. 64 MiB is about
// two million points at the ~33 bytes per point a JSON encoder writes
// for LiDAR coordinates; a larger body is refused with 413 too_large.
const maxBodyBytes = 64 << 20

// maxNesting is encoding/json's nesting limit: an unknown key's value
// nested deeper than this is refused by both decoders.
const maxNesting = 10000

// bodyPoints is the capacity a body's points or queries need: one per
// '[' (one more than a body of points alone holds), and at most one per
// seven bytes ("[0,0,0]"), so no body can reserve more than 12/7 of its
// own size.
func bodyPoints(body []byte) int {
	return min(bytes.Count(body, []byte{'['}), len(body)/7)
}

// replyPool holds /v1/search reply buffers, the one pooled part of the
// codec (see the package comment above).
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply caps the reply buffer the pool keeps, so one huge
// reply does not pin its memory.
const maxPooledReply = 1 << 20

func getReply() *[]byte { return replyPool.Get().(*[]byte) }

// putReply returns buf, the reply last appended into *p, to the pool.
func putReply(p *[]byte, buf []byte) {
	if cap(buf) <= maxPooledReply {
		*p = buf[:0]
		replyPool.Put(p)
	}
}

// readBody reads r's body into a buffer pre-sized from Content-Length.
// A body over limit bytes (maxBodyBytes on the routes) fails with an
// *http.MaxBytesError, before any read when Content-Length declares it.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	// MinRead bytes of slack let the read that sees EOF run without
	// growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decoder scans one request body. Failures are plain errors naming the
// byte offset; their texts are not part of the wire contract.
type decoder struct {
	data []byte
	pos  int
	unq  []byte // unquote scratch for strings with escapes
}

// decodeFrame decodes a /v1/frame body, appending its points to pts[:0].
func decodeFrame(body []byte, pts []quicknn.Point) ([]quicknn.Point, error) {
	d := decoder{data: body}
	return d.request(nil, pts[:0])
}

// decodeSearch decodes a /v1/search body into req, except its queries,
// which it appends to pts[:0] (req.Queries is left untouched).
func decodeSearch(body []byte, req *searchRequest, pts []quicknn.Point) ([]quicknn.Point, error) {
	d := decoder{data: body}
	return d.request(req, pts[:0])
}

// request decodes the top-level value: a search body when req is
// non-nil, a frame body otherwise. A top-level null decodes as the zero
// request, as it does for json.Unmarshal.
func (d *decoder) request(req *searchRequest, pts []quicknn.Point) ([]quicknn.Point, error) {
	var err error
	switch d.peek() {
	case '{':
		pts, err = d.object(req, pts)
	case 'n':
		err = d.literal("null")
	default:
		err = d.unexpected("a JSON object")
	}
	if err != nil {
		return pts, err
	}
	if d.ws(); d.pos != len(d.data) {
		return pts, d.unexpected("the end of the body")
	}
	return pts, nil
}

// object decodes the top-level object's members.
func (d *decoder) object(req *searchRequest, pts []quicknn.Point) ([]quicknn.Point, error) {
	d.pos++ // '{'
	if d.peek() == '}' {
		d.pos++
		return pts, nil
	}
	for {
		if d.peek() != '"' {
			return pts, d.unexpected("an object key")
		}
		key, err := d.str()
		if err != nil {
			return pts, err
		}
		if d.peek() != ':' {
			return pts, d.unexpected("':'")
		}
		d.pos++
		switch {
		case req == nil && keyIs(key, "points"), req != nil && keyIs(key, "queries"):
			pts, err = d.points(pts[:0])
		case req == nil:
			err = d.skip(1)
		case keyIs(key, "k"):
			err = d.int(&req.K)
		case keyIs(key, "mode"):
			err = d.mode(&req.Mode)
		case keyIs(key, "checks"):
			err = d.int(&req.Checks)
		case keyIs(key, "radius"):
			err = d.float64(&req.Radius)
		case keyIs(key, "timeout_ms"):
			err = d.int(&req.TimeoutMillis)
		case keyIs(key, "strict"):
			err = d.bool(&req.Strict)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return pts, err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return pts, nil
		default:
			return pts, d.unexpected("',' or '}'")
		}
	}
}

// keyIs reports whether an unescaped key names a field. Keys match
// case-insensitively under Unicode folding, as encoding/json matches
// them ("K" and the Kelvin sign both name "k").
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// points decodes an array of [x, y, z] triples, appending to pts; null
// leaves pts empty.
func (d *decoder) points(pts []quicknn.Point) ([]quicknn.Point, error) {
	switch d.peek() {
	case 'n':
		return pts, d.literal("null")
	case '[':
		d.pos++
	default:
		return pts, d.unexpected("an array of points")
	}
	if d.peek() == ']' {
		d.pos++
		return pts, nil
	}
	for {
		if d.peek() != '[' {
			return pts, d.unexpected("a point [x, y, z]")
		}
		d.pos++
		var p quicknn.Point
		var err error
		if p.X, err = d.coord(','); err != nil {
			return pts, err
		}
		if p.Y, err = d.coord(','); err != nil {
			return pts, err
		}
		if p.Z, err = d.coord(']'); err != nil {
			return pts, err
		}
		pts = append(pts, p)
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return pts, nil
		default:
			return pts, d.unexpected("',' or ']'")
		}
	}
}

// coord decodes one coordinate as encoding/json decodes a float32
// (refusing values beyond float32 range) and consumes the delimiter
// that must follow it.
func (d *decoder) coord(delim byte) (float32, error) {
	d.ws()
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 32)
	if err != nil {
		return 0, fmt.Errorf("offset %d: coordinate %s out of float32 range", d.pos-len(num), num)
	}
	if d.peek() != delim {
		return 0, d.unexpected(fmt.Sprintf("%q in a point [x, y, z]", delim))
	}
	d.pos++
	return float32(f), nil
}

// int decodes an integer field with encoding/json's rules: a fraction or
// exponent is refused even when integral, and null keeps the old value.
func (d *decoder) int(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		num, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil || int64(int(n)) != n {
			return fmt.Errorf("offset %d: %s is not an int", d.pos-len(num), num)
		}
		*dst = int(n)
		return nil
	default:
		return d.unexpected("an integer")
	}
}

// float64 decodes a float64 field; null keeps the old value.
func (d *decoder) float64(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		num, err := d.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("offset %d: %s out of float64 range", d.pos-len(num), num)
		}
		*dst = f
		return nil
	default:
		return d.unexpected("a number")
	}
}

// bool decodes a bool field; null keeps the old value.
func (d *decoder) bool(dst *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	default:
		return d.unexpected("true or false")
	}
}

// mode decodes the mode string; null keeps the old value. The four wire
// names are returned as constants, so the common body allocates nothing.
func (d *decoder) mode(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		switch string(s) {
		case "approx":
			*dst = "approx"
		case "exact":
			*dst = "exact"
		case "checks":
			*dst = "checks"
		case "radius":
			*dst = "radius"
		default:
			*dst = string(s)
		}
		return nil
	default:
		return d.unexpected("a string")
	}
}

// skip validates and steps over one value of any type; depth is the
// nesting level of the container holding it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxNesting {
			return fmt.Errorf("offset %d: nesting deeper than %d", d.pos, maxNesting)
		}
		d.pos++
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if d.peek() == end {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.unexpected("an object key")
				}
				if _, _, err := d.scanString(); err != nil {
					return err
				}
				if d.peek() != ':' {
					return d.unexpected("':'")
				}
				d.pos++
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			switch d.peek() {
			case ',':
				d.pos++
			case end:
				d.pos++
				return nil
			default:
				return d.unexpected(fmt.Sprintf("',' or %q", end))
			}
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	default:
		return d.unexpected("a value")
	}
}

// ws steps over JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek steps over whitespace and returns the next byte, or 0 at the end
// of the body (a literal NUL is never valid where peek is used either).
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal consumes the keyword lit (null, true, false).
func (d *decoder) literal(lit string) error {
	if end := d.pos + len(lit); end <= len(d.data) && string(d.data[d.pos:end]) == lit {
		d.pos = end
		return nil
	}
	return d.unexpected(lit)
}

// number scans one number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	s, i := d.data, d.pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && isDigit(s[i]):
		i = skipDigits(s, i)
	default:
		return nil, d.unexpectedAt(i, "a digit")
	}
	if i < len(s) && s[i] == '.' {
		if i++; i == len(s) || !isDigit(s[i]) {
			return nil, d.unexpectedAt(i, "a digit after '.'")
		}
		i = skipDigits(s, i)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) || !isDigit(s[i]) {
			return nil, d.unexpectedAt(i, "an exponent digit")
		}
		i = skipDigits(s, i)
	}
	num := s[d.pos:i]
	d.pos = i
	return num, nil
}

func skipDigits(s []byte, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// str scans a string and returns its unquoted bytes: a subslice of the
// body when it holds no escapes and is valid UTF-8, else d.unq decoded
// as encoding/json decodes strings.
func (d *decoder) str() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.unq = appendUnquoted(d.unq[:0], raw)
	return d.unq, nil
}

// scanString steps over a string, validating it, and returns the bytes
// between its quotes; plain reports that they need no unquoting.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	s := d.data
	i := d.pos + 1 // past '"'
	plain = true
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			raw = s[d.pos+1 : i]
			d.pos = i + 1
			return raw, plain && utf8.Valid(raw), nil
		case c == '\\':
			plain = false
			if i+1 >= len(s) {
				return nil, false, d.unexpectedAt(i+1, "an escape")
			}
			switch s[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(s) || !isHex(s[j]) {
						return nil, false, d.unexpectedAt(j, "a hex digit")
					}
				}
				i += 6
			default:
				return nil, false, d.unexpectedAt(i+1, "an escape")
			}
		case c < ' ':
			return nil, false, d.unexpectedAt(i, "a string character")
		default:
			i++
		}
	}
	return nil, false, d.unexpectedAt(i, "'\"'")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the decoded form of a validated string body:
// escapes resolved, a surrogate pair joined, and a lone surrogate or an
// invalid UTF-8 byte replaced by U+FFFD, as encoding/json does.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != utf8.RuneError {
							dst = utf8.AppendRune(dst, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

func (d *decoder) unexpected(want string) error { return d.unexpectedAt(d.pos, want) }

func (d *decoder) unexpectedAt(i int, want string) error {
	if i >= len(d.data) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("offset %d: unexpected %q, want %s", i, d.data[i], want)
}

// errNonFinite refuses a reply value JSON cannot carry; encoding/json
// fails the same way (UnsupportedValueError).
var errNonFinite = errors.New("reply holds a NaN or infinite value")

// appendSearchReply appends a /v1/search reply to b: byte for byte what
// json.NewEncoder(w).Encode writes for the equivalent searchResponse,
// trailing newline included. The degrade fields appear only for a
// non-zero ladder level. A non-finite value fails with errNonFinite.
func appendSearchReply(b []byte, epoch uint64, results [][]quicknn.Neighbor, level degrade.Level) ([]byte, error) {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"results":[`...)
	for qi, nbrs := range results {
		if qi > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, nb := range nbrs {
			if !finite(nb.Point.X) || !finite(nb.Point.Y) || !finite(nb.Point.Z) ||
				math.IsNaN(nb.DistSq) || math.IsInf(nb.DistSq, 0) {
				return b, errNonFinite
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(nb.Index), 10)
			b = append(b, `,"point":[`...)
			b = appendFloat(b, float64(nb.Point.X), 32)
			b = append(b, ',')
			b = appendFloat(b, float64(nb.Point.Y), 32)
			b = append(b, ',')
			b = appendFloat(b, float64(nb.Point.Z), 32)
			b = append(b, `],"dist_sq":`...)
			b = appendFloat(b, nb.DistSq, 64)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if level > degrade.LevelNone {
		b = append(b, `,"degrade_level":`...)
		b = strconv.AppendInt(b, int64(level), 10)
		// The rung names are plain ASCII words: nothing to escape.
		b = append(b, `,"degrade":"`...)
		b = append(b, level.String()...)
		b = append(b, '"')
	}
	return append(b, "}\n"...), nil
}

func finite(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }

// appendFloat formats a finite float as encoding/json does: the shortest
// representation that round-trips at the given bit size, in exponent
// form below 1e-6 and from 1e21, with a two-digit negative exponent
// trimmed (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
