// The wire codec of the envelope and the reply. Marshal's output is
// the grammar: the bytes encoding/xml writes for these types (its
// escapes, its float formatting, its omitempty and a>b wrapper rules),
// produced by appends instead of reflection. The decoder accepts that
// grammar and nothing else — elements in schema order, optional ones
// only where omitempty leaves them out, only the escapes the encoder
// writes, no attributes, comments or whitespace — so an envelope it
// accepts re-encodes to exactly the bytes received. encoding/xml is the
// reference the tests and FuzzEnvelope hold both halves to.

package middleware

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// envelopeHeader is xml.Header, the declaration Marshal writes first.
const envelopeHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// escapes are the references encoding/xml's EscapeText writes, and the
// only ones the decoder reads.
var escapes = [...]struct {
	ref string
	c   byte
}{
	{"&#34;", '"'}, {"&#39;", '\''}, {"&amp;", '&'}, {"&lt;", '<'},
	{"&gt;", '>'}, {"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'},
}

// asciiEscape is what the encoder writes for each ASCII byte in text:
// "" for the byte itself, its reference for the eight escaped ones, and
// U+FFFD for control characters outside XML's character range.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	for _, e := range escapes {
		t[e.c] = e.ref
	}
	return t
}()

// outOfRange reports a decoded non-ASCII rune encoding/xml replaces by
// U+FFFD: invalid UTF-8, and U+FFFE/U+FFFF. (Surrogates never decode.)
func outOfRange(r rune, width int) bool {
	return r == utf8.RuneError && width == 1 || r == 0xFFFE || r == 0xFFFF
}

// Marshal encodes an envelope, XML declaration included. It cannot
// fail; the error result is kept for its callers.
func Marshal(e *Envelope) ([]byte, error) {
	return appendEnvelope(make([]byte, 0, envelopeSize(e)), e), nil
}

// Unmarshal decodes an envelope and validates it structurally.
func Unmarshal(r io.Reader) (*Envelope, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("middleware: unmarshal: %w", err)
	}
	return decodeEnvelope(raw)
}

// decodeEnvelope is Unmarshal on a body already read.
func decodeEnvelope(raw []byte) (*Envelope, error) {
	e, err := parseEnvelope(string(raw))
	if err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// envelopeSize sizes Marshal's buffer: a little over the envelope's
// length unless its text needs escaping or its numbers are long, so
// one allocation usually holds it.
func envelopeSize(e *Envelope) int {
	n := 192 + len(e.Header.MessageID) + len(e.Header.Sender)
	submit := func(s *SubmitJob) {
		n += 128 + len(s.OpID) + len(s.Name)
		for _, a := range s.Arguments {
			n += 11 + len(a)
		}
	}
	if e.Body.Submit != nil {
		submit(e.Body.Submit)
	}
	if b := e.Body.SubmitBatch; b != nil {
		for i := range b.Jobs {
			submit(&b.Jobs[i])
		}
	}
	if b := e.Body.CancelBatch; b != nil {
		for _, c := range b.Ops {
			n += 64 + len(c.OpID)
		}
	}
	return n
}

func appendEnvelope(b []byte, e *Envelope) []byte {
	b = append(b, envelopeHeader+"<Envelope><Header>"...)
	b = appendString(b, "MessageID", e.Header.MessageID)
	b = appendString(b, "Sender", e.Header.Sender)
	b = append(b, "</Header><Body>"...)
	if s := e.Body.Submit; s != nil {
		b = appendSubmit(append(b, "<SubmitJob>"...), s)
		b = append(b, "</SubmitJob>"...)
	}
	if c := e.Body.Cancel; c != nil {
		b = appendCancel(append(b, "<CancelJob>"...), c)
		b = append(b, "</CancelJob>"...)
	}
	if e.Body.Status != nil {
		b = append(b, "<JobStatus></JobStatus>"...)
	}
	if sb := e.Body.SubmitBatch; sb != nil {
		b = append(b, "<SubmitBatch><Jobs>"...)
		for i := range sb.Jobs {
			b = appendSubmit(append(b, "<Job>"...), &sb.Jobs[i])
			b = append(b, "</Job>"...)
		}
		b = append(b, "</Jobs></SubmitBatch>"...)
	}
	if cb := e.Body.CancelBatch; cb != nil {
		b = append(b, "<CancelBatch><Ops>"...)
		for i := range cb.Ops {
			b = appendCancel(append(b, "<Op>"...), &cb.Ops[i])
			b = append(b, "</Op>"...)
		}
		b = append(b, "</Ops></CancelBatch>"...)
	}
	return append(b, "</Body></Envelope>"...)
}

func appendSubmit(b []byte, s *SubmitJob) []byte {
	b = appendOptString(b, "OpID", s.OpID)
	b = appendString(b, "Name", s.Name)
	b = appendInt(b, "Nodes", int64(s.Nodes))
	b = append(b, "<WalltimeSeconds>"...)
	b = strconv.AppendFloat(b, s.Walltime, 'g', -1, 64)
	b = append(b, "</WalltimeSeconds><Arguments>"...)
	for _, a := range s.Arguments {
		b = appendString(b, "Arg", a)
	}
	return append(b, "</Arguments>"...)
}

func appendCancel(b []byte, c *CancelJob) []byte {
	return appendInt(appendOptString(b, "OpID", c.OpID), "JobID", c.JobID)
}

// appendResponse encodes a reply as xml.Marshal does: no declaration,
// and the Batch wrapper present even when it holds no entry.
func appendResponse(b []byte, r *Response) []byte {
	b = appendBool(append(b, "<Response>"...), "OK", r.OK)
	b = appendOptInt(b, "JobID", r.JobID)
	b = appendOptString(b, "Error", r.Error)
	b = appendOptInt(b, "Queued", int64(r.Queued))
	b = appendOptInt(b, "Running", int64(r.Running))
	b = appendOptInt(b, "Free", int64(r.Free))
	b = append(b, "<Batch>"...)
	for _, op := range r.Batch {
		b = appendBool(append(b, "<Op>"...), "OK", op.OK)
		b = appendOptInt(b, "JobID", op.JobID)
		b = appendOptString(b, "Error", op.Error)
		b = appendOptString(b, "Shed", op.Shed)
		b = append(b, "</Op>"...)
	}
	return append(b, "</Batch></Response>"...)
}

func appendString(b []byte, tag, s string) []byte {
	return appendClose(appendText(appendOpen(b, tag), s), tag)
}

// appendOptString writes an omitempty string: nothing when it is "".
func appendOptString(b []byte, tag, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(b, tag, s)
}

func appendInt(b []byte, tag string, n int64) []byte {
	return appendClose(strconv.AppendInt(appendOpen(b, tag), n, 10), tag)
}

// appendOptInt writes an omitempty integer: nothing when it is 0.
func appendOptInt(b []byte, tag string, n int64) []byte {
	if n == 0 {
		return b
	}
	return appendInt(b, tag, n)
}

func appendBool(b []byte, tag string, v bool) []byte {
	return appendClose(strconv.AppendBool(appendOpen(b, tag), v), tag)
}

func appendOpen(b []byte, tag string) []byte {
	return append(append(append(b, '<'), tag...), '>')
}

func appendClose(b []byte, tag string) []byte {
	return append(append(append(b, "</"...), tag...), '>')
}

// appendText is encoding/xml's EscapeText over a string.
func appendText(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		start, esc := i, ""
		if c := s[i]; c < utf8.RuneSelf {
			esc = asciiEscape[c]
			i++
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			if outOfRange(r, w) {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			b = append(append(b, s[last:start]...), esc...)
			last = i
		}
	}
	return append(b, s[last:]...)
}

// decoder reads the grammar appendEnvelope and appendResponse write.
// The first mismatch sets err, after which every method is a no-op
// returning zero values, so a parse reads as a straight line of calls.
type decoder struct {
	s    string
	i    int
	err  error
	args []string // one backing array for every Arguments list of the body
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("middleware: unmarshal: %s at byte %d", what, d.i)
	}
}

// at reports whether <tag> (or </tag> when end) is next.
func (d *decoder) at(tag string, end bool) bool {
	if d.err != nil {
		return false
	}
	rest := d.s[d.i:]
	n := 1
	if end {
		n = 2
	}
	return len(rest) > n+len(tag) && rest[0] == '<' && (!end || rest[1] == '/') &&
		rest[n:n+len(tag)] == tag && rest[n+len(tag)] == '>'
}

func (d *decoder) tag(tag string, end bool) {
	if !d.at(tag, end) {
		if end {
			d.fail("expected </" + tag + ">")
		} else {
			d.fail("expected <" + tag + ">")
		}
		return
	}
	d.i += len(tag) + 2
	if end {
		d.i++
	}
}

func (d *decoder) open(tag string)  { d.tag(tag, false) }
func (d *decoder) close(tag string) { d.tag(tag, true) }

// text reads <tag>text</tag>. Text without a reference is returned
// as a substring of the input.
func (d *decoder) text(tag string) string {
	d.open(tag)
	if d.err != nil {
		return ""
	}
	start, plain := d.i, true
	for d.i < len(d.s) && d.s[d.i] != '<' {
		c := d.s[d.i]
		switch {
		case c == '&':
			k := escapeAt(d.s[d.i:])
			if k < 0 {
				d.fail("unexpected reference")
				return ""
			}
			plain = false
			d.i += len(escapes[k].ref)
		case c < utf8.RuneSelf:
			if asciiEscape[c] != "" {
				d.fail("unescaped character")
				return ""
			}
			d.i++
		default:
			r, w := utf8.DecodeRuneInString(d.s[d.i:])
			if outOfRange(r, w) {
				d.fail("character outside XML's range")
				return ""
			}
			d.i += w
		}
	}
	text := d.s[start:d.i]
	d.close(tag)
	if plain || d.err != nil {
		return text
	}
	var sb strings.Builder
	sb.Grow(len(text))
	for len(text) > 0 {
		k := strings.IndexByte(text, '&')
		if k < 0 {
			sb.WriteString(text)
			break
		}
		sb.WriteString(text[:k])
		e := escapes[escapeAt(text[k:])]
		sb.WriteByte(e.c)
		text = text[k+len(e.ref):]
	}
	return sb.String()
}

// escapeAt returns the index in escapes of the reference s starts
// with, or -1.
func escapeAt(s string) int {
	for k, e := range escapes {
		if strings.HasPrefix(s, e.ref) {
			return k
		}
	}
	return -1
}

// optText reads an omitempty string element, which the encoder
// writes only when it is not empty.
func (d *decoder) optText(tag string) string {
	if !d.at(tag, false) {
		return ""
	}
	s := d.text(tag)
	if s == "" {
		d.fail("empty <" + tag + "> (omitempty omits it)")
	}
	return s
}

// integer reads a decimal integer of the given bit size in
// strconv.AppendInt's form: no sign but '-', no leading zero, no "-0".
func (d *decoder) integer(tag string, bits int) int64 {
	s := d.text(tag)
	if d.err != nil {
		return 0
	}
	digits := strings.TrimPrefix(s, "-")
	n, err := strconv.ParseInt(s, 10, bits)
	if err != nil || digits == "" || digits[0] < '0' || digits[0] > '9' ||
		digits[0] == '0' && s != "0" {
		d.fail("malformed integer in <" + tag + ">")
		return 0
	}
	return n
}

// optInteger reads an omitempty integer, written only when it is not 0.
func (d *decoder) optInteger(tag string, bits int) int64 {
	if !d.at(tag, false) {
		return 0
	}
	n := d.integer(tag, bits)
	if n == 0 {
		d.fail("zero <" + tag + "> (omitempty omits it)")
	}
	return n
}

// float reads strconv.AppendFloat(…, 'g', -1, 64)'s form, and only it.
func (d *decoder) float(tag string) float64 {
	s := d.text(tag)
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	var buf [32]byte
	if err != nil || string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != s {
		d.fail("malformed float in <" + tag + ">")
		return 0
	}
	return f
}

func (d *decoder) boolean(tag string) bool {
	switch s := d.text(tag); {
	case s == "true":
		return true
	case s != "false":
		d.fail("malformed bool in <" + tag + ">")
	}
	return false
}

// count is the number of start tags open before the next end tag
// closing: the exact length of a list, since text never holds a raw
// '<'.
func (d *decoder) count(open, closing string) int {
	rest := d.s[d.i:]
	if k := strings.Index(rest, closing); k >= 0 {
		rest = rest[:k]
	}
	return strings.Count(rest, open)
}

// finish rejects trailing bytes and returns the first error.
func (d *decoder) finish() error {
	if d.err == nil && d.i != len(d.s) {
		d.fail("trailing data")
	}
	return d.err
}

// parseEnvelope decodes an envelope without validating it.
func parseEnvelope(s string) (*Envelope, error) {
	d := &decoder{s: s}
	if strings.HasPrefix(s, envelopeHeader) {
		d.i = len(envelopeHeader)
	} else {
		d.fail("missing XML declaration")
	}
	d.open("Envelope")
	d.open("Header")
	e := &Envelope{XMLName: envelopeName}
	e.Header.MessageID = d.text("MessageID")
	e.Header.Sender = d.text("Sender")
	d.close("Header")
	d.open("Body")
	if d.at("SubmitJob", false) {
		d.open("SubmitJob")
		e.Body.Submit = new(SubmitJob)
		d.submit(e.Body.Submit)
		d.close("SubmitJob")
	}
	if d.at("CancelJob", false) {
		d.open("CancelJob")
		e.Body.Cancel = new(CancelJob)
		d.cancel(e.Body.Cancel)
		d.close("CancelJob")
	}
	if d.at("JobStatus", false) {
		d.open("JobStatus")
		d.close("JobStatus")
		e.Body.Status = &JobStatus{}
	}
	if d.at("SubmitBatch", false) {
		d.open("SubmitBatch")
		d.open("Jobs")
		b := new(SubmitBatch)
		if n := d.count("<Job>", "</Jobs>"); n > 0 {
			b.Jobs = make([]SubmitJob, n)
		}
		for i := range b.Jobs {
			d.open("Job")
			d.submit(&b.Jobs[i])
			d.close("Job")
		}
		d.close("Jobs")
		d.close("SubmitBatch")
		e.Body.SubmitBatch = b
	}
	if d.at("CancelBatch", false) {
		d.open("CancelBatch")
		d.open("Ops")
		b := new(CancelBatch)
		if n := d.count("<Op>", "</Ops>"); n > 0 {
			b.Ops = make([]CancelJob, n)
		}
		for i := range b.Ops {
			d.open("Op")
			d.cancel(&b.Ops[i])
			d.close("Op")
		}
		d.close("Ops")
		d.close("CancelBatch")
		e.Body.CancelBatch = b
	}
	d.close("Body")
	d.close("Envelope")
	if err := d.finish(); err != nil {
		return nil, err
	}
	return e, nil
}

func (d *decoder) submit(s *SubmitJob) {
	s.OpID = d.optText("OpID")
	s.Name = d.text("Name")
	s.Nodes = int(d.integer("Nodes", strconv.IntSize))
	s.Walltime = d.float("WalltimeSeconds")
	d.open("Arguments")
	if d.args == nil && d.at("Arg", false) {
		// Every <Arg> left in the body belongs to some Arguments list.
		d.args = make([]string, 0, strings.Count(d.s[d.i:], "<Arg>"))
	}
	start := len(d.args)
	for d.at("Arg", false) {
		d.args = append(d.args, d.text("Arg"))
	}
	if end := len(d.args); end > start {
		s.Arguments = d.args[start:end:end]
	}
	d.close("Arguments")
}

func (d *decoder) cancel(c *CancelJob) {
	c.OpID = d.optText("OpID")
	c.JobID = d.integer("JobID", 64)
}

// parseResponse decodes a reply. It is appendResponse's grammar except
// that the empty Batch wrapper may be left out, as a reply written by
// hand does; encoding/xml reads both the same.
func parseResponse(s string) (*Response, error) {
	d := &decoder{s: s}
	d.open("Response")
	r := &Response{XMLName: responseName}
	r.OK = d.boolean("OK")
	r.JobID = d.optInteger("JobID", 64)
	r.Error = d.optText("Error")
	r.Queued = int(d.optInteger("Queued", strconv.IntSize))
	r.Running = int(d.optInteger("Running", strconv.IntSize))
	r.Free = int(d.optInteger("Free", strconv.IntSize))
	if d.at("Batch", false) {
		d.open("Batch")
		if n := d.count("<Op>", "</Batch>"); n > 0 {
			r.Batch = make([]BatchResult, n)
		}
		for i := range r.Batch {
			op := &r.Batch[i]
			d.open("Op")
			op.OK = d.boolean("OK")
			op.JobID = d.optInteger("JobID", 64)
			op.Error = d.optText("Error")
			op.Shed = d.optText("Shed")
			d.close("Op")
		}
		d.close("Batch")
	}
	d.close("Response")
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}
