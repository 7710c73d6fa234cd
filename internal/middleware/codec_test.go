// Differential tests of the wire codec against encoding/xml, the
// reference: the encoder must write the bytes encoding/xml writes, and
// the decoder must return what encoding/xml returns on everything it
// accepts. FuzzEnvelope holds the decoder to that on arbitrary input.

package middleware

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// referenceMarshal is the envelope encoding the codec reproduces.
func referenceMarshal(t testing.TB, e *Envelope) []byte {
	t.Helper()
	out, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(xml.Header), out...)
}

// scrubNaN replaces NaN walltimes, which reflect.DeepEqual never finds
// equal, by a sentinel; it mutates e.
func scrubNaN(e *Envelope) {
	scrub := func(s *SubmitJob) {
		if math.IsNaN(s.Walltime) {
			s.Walltime = -42
		}
	}
	if e.Body.Submit != nil {
		scrub(e.Body.Submit)
	}
	if e.Body.SubmitBatch != nil {
		for i := range e.Body.SubmitBatch.Jobs {
			scrub(&e.Body.SubmitBatch.Jobs[i])
		}
	}
}

// checkEnvelopeDecode asserts the fuzz property on one input: if the
// codec accepts it, encoding/xml accepts it too, both decode to the same
// value with the same Validate verdict, and the value re-encodes to the
// input byte for byte.
func checkEnvelopeDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := parseEnvelope(string(data))
	if err != nil {
		return
	}
	var ref Envelope
	if err := xml.Unmarshal(data, &ref); err != nil {
		t.Fatalf("codec accepted %q, encoding/xml rejects it: %v", data, err)
	}
	if out, _ := Marshal(got); !bytes.Equal(out, data) {
		t.Fatalf("%q re-encodes to %q", data, out)
	}
	if gv, rv := got.Validate(), ref.Validate(); (gv == nil) != (rv == nil) {
		t.Fatalf("%q: Validate on the codec's value = %v, on encoding/xml's = %v", data, gv, rv)
	}
	scrubNaN(got)
	scrubNaN(&ref)
	if !reflect.DeepEqual(got, &ref) {
		t.Fatalf("%q decodes to\n%#v\nencoding/xml decodes\n%#v", data, got, &ref)
	}
}

// checkResponseDecode is checkEnvelopeDecode for replies. A reply
// without the empty Batch wrapper re-encodes with it.
func checkResponseDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := parseResponse(string(data))
	if err != nil {
		return
	}
	var ref Response
	if err := xml.Unmarshal(data, &ref); err != nil {
		t.Fatalf("codec accepted reply %q, encoding/xml rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, &ref) {
		t.Fatalf("reply %q decodes to\n%#v\nencoding/xml decodes\n%#v", data, got, &ref)
	}
	out := appendResponse(nil, got)
	withBatch := strings.TrimSuffix(string(data), "</Response>") + "<Batch></Batch></Response>"
	if !bytes.Equal(out, data) && string(out) != withBatch {
		t.Fatalf("reply %q re-encodes to %q", data, out)
	}
}

// checkEnvelope asserts that Marshal writes encoding/xml's bytes and
// that both decoders read them back alike.
func checkEnvelope(t *testing.T, e *Envelope) {
	t.Helper()
	want := referenceMarshal(t, e)
	got, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%#v)\n = %q\nencoding/xml writes\n   %q", e, got, want)
	}
	if _, err := parseEnvelope(string(got)); err != nil {
		t.Fatalf("decoder rejects Marshal's output %q: %v", got, err)
	}
	checkEnvelopeDecode(t, got)
}

func checkResponse(t *testing.T, r *Response) {
	t.Helper()
	want, err := xml.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := appendResponse(nil, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendResponse(%#v)\n = %q\nencoding/xml writes\n   %q", r, got, want)
	}
	if _, err := parseResponse(string(got)); err != nil {
		t.Fatalf("decoder rejects the encoder's reply %q: %v", got, err)
	}
	checkResponseDecode(t, got)
}

// awkward are the strings text escaping has to get right: every
// escaped character, invalid UTF-8, control characters, U+FFFD written
// literally, and the non-characters encoding/xml replaces.
var awkward = []string{
	"", "plain", `<&'">`, "tab\there", "cr\rlf\n", "crlf\r\n", "\x00\x01\x1f\x7f",
	"bad\xffutf8", "\xc3", "trunc\xe6\x97", "é日本𝄞", "\uFFFD", "\uFFFE\uFFFF",
	"]]>", "&amp;&#34;", " lead and trail ", "--input", "data.bin",
}

var awkwardFloats = []float64{
	1, 3600, 0.1, 1e21, 1e-7, 1e20, 1e-6, 0, math.Copysign(0, -1), -2.5,
	123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

var awkwardInts = []int64{0, 1, -1, 7, 4242, math.MaxInt64, math.MinInt64}

func TestEncoderMatchesEncodingXMLTable(t *testing.T) {
	if envelopeHeader != xml.Header {
		t.Fatalf("envelopeHeader = %q, xml.Header = %q", envelopeHeader, xml.Header)
	}
	bodies := []Body{
		{},
		{Status: &JobStatus{}},
		{Cancel: &CancelJob{JobID: 12}},
		{Cancel: &CancelJob{OpID: "op", JobID: math.MinInt64}},
		{Submit: &SubmitJob{Name: "render", Nodes: 8, Walltime: 3600, Arguments: []string{"--scene", "castle.xml"}}},
		{Submit: &SubmitJob{Name: "nil-args", Nodes: 1, Walltime: 1}},
		{Submit: &SubmitJob{Name: "empty-args", Nodes: 1, Walltime: 1, Arguments: []string{}}},
		{Submit: &SubmitJob{Arguments: []string{"", ""}}},
		{SubmitBatch: &SubmitBatch{}},
		{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{}}},
		{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{
			{OpID: "a-1", Name: "x", Nodes: 1, Walltime: 1e21},
			{OpID: "a-2", Name: "y", Nodes: math.MaxInt64, Walltime: 1e-7, Arguments: []string{"--input", "data.bin"}},
		}}},
		{CancelBatch: &CancelBatch{}},
		{CancelBatch: &CancelBatch{Ops: []CancelJob{{OpID: "c-1", JobID: 1}, {JobID: -1}}}},
		{Submit: &SubmitJob{Nodes: 1, Walltime: 1}, Cancel: &CancelJob{JobID: 1}, Status: &JobStatus{},
			SubmitBatch: &SubmitBatch{}, CancelBatch: &CancelBatch{}},
	}
	for _, b := range bodies {
		checkEnvelope(t, &Envelope{Header: Header{MessageID: "m-1", Sender: "alice"}, Body: b})
	}
	for _, s := range awkward {
		checkEnvelope(t, &Envelope{
			Header: Header{MessageID: s, Sender: s},
			Body:   Body{Submit: &SubmitJob{OpID: s, Name: s, Nodes: 1, Walltime: 1, Arguments: []string{s}}},
		})
		checkResponse(t, &Response{OK: false, Error: s})
		checkResponse(t, &Response{OK: true, Batch: []BatchResult{{Error: s, Shed: s}}})
	}
	for _, f := range awkwardFloats {
		checkEnvelope(t, &Envelope{Body: Body{Submit: &SubmitJob{Nodes: 1, Walltime: f}}})
	}
	for _, n := range awkwardInts {
		checkEnvelope(t, &Envelope{Body: Body{Cancel: &CancelJob{JobID: n}}})
		checkEnvelope(t, &Envelope{Body: Body{Submit: &SubmitJob{Nodes: int(n), Walltime: 1}}})
		checkResponse(t, &Response{OK: true, JobID: n, Queued: int(n), Running: int(n), Free: int(n)})
	}
	checkResponse(t, &Response{OK: true, JobID: 7})
	checkResponse(t, &Response{OK: true, Batch: []BatchResult{}})
	checkResponse(t, &Response{OK: true, Batch: []BatchResult{
		{OK: true, JobID: 3}, {Error: "queue full", Shed: "busy"}, {Error: "over budget", Shed: "late"}, {Error: "no such job"},
	}})
}

// randomEnvelope draws an envelope of one of the five body kinds (or,
// now and then, none or several) from the awkward values above.
func randomEnvelope(rng *rand.Rand) *Envelope {
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(awkward[rng.Intn(len(awkward))])
		}
		return sb.String()
	}
	num := func() int64 {
		if rng.Intn(2) == 0 {
			return awkwardInts[rng.Intn(len(awkwardInts))]
		}
		return rng.Int63n(2000) - 1000
	}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return awkwardFloats[rng.Intn(len(awkwardFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	submit := func() SubmitJob {
		s := SubmitJob{Name: str(), Nodes: int(num()), Walltime: float()}
		if rng.Intn(2) == 0 {
			s.OpID = str()
		}
		switch rng.Intn(3) {
		case 1:
			s.Arguments = []string{}
		case 2:
			for n := rng.Intn(4); n >= 0; n-- {
				s.Arguments = append(s.Arguments, str())
			}
		}
		return s
	}
	cancel := func() CancelJob {
		c := CancelJob{JobID: num()}
		if rng.Intn(2) == 0 {
			c.OpID = str()
		}
		return c
	}
	e := &Envelope{Header: Header{MessageID: str(), Sender: str()}}
	kinds := 1 << rng.Intn(5)
	if rng.Intn(10) == 0 {
		kinds = rng.Intn(32)
	}
	if kinds&1 != 0 {
		s := submit()
		e.Body.Submit = &s
	}
	if kinds&2 != 0 {
		c := cancel()
		e.Body.Cancel = &c
	}
	if kinds&4 != 0 {
		e.Body.Status = &JobStatus{}
	}
	if kinds&8 != 0 {
		b := &SubmitBatch{}
		for n := rng.Intn(5); n > 0; n-- {
			b.Jobs = append(b.Jobs, submit())
		}
		e.Body.SubmitBatch = b
	}
	if kinds&16 != 0 {
		b := &CancelBatch{}
		for n := rng.Intn(5); n > 0; n-- {
			b.Ops = append(b.Ops, cancel())
		}
		e.Body.CancelBatch = b
	}
	return e
}

func randomResponse(rng *rand.Rand) *Response {
	pick := func(vals []string) string { return vals[rng.Intn(len(vals))] }
	num := func() int64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return awkwardInts[rng.Intn(len(awkwardInts))]
	}
	r := &Response{OK: rng.Intn(2) == 0, JobID: num(), Queued: int(num()), Running: int(num()), Free: int(num())}
	if rng.Intn(2) == 0 {
		r.Error = pick(awkward)
	}
	switch rng.Intn(3) {
	case 1:
		r.Batch = []BatchResult{}
	case 2:
		for n := rng.Intn(5) + 1; n > 0; n-- {
			op := BatchResult{OK: rng.Intn(2) == 0, JobID: num()}
			if rng.Intn(2) == 0 {
				op.Error = pick(awkward)
			}
			if rng.Intn(2) == 0 {
				op.Shed = pick([]string{"busy", "late", "", "\x01?"})
			}
			r.Batch = append(r.Batch, op)
		}
	}
	return r
}

func TestEncoderMatchesEncodingXMLRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20060619))
	for i := 0; i < 3000; i++ {
		checkEnvelope(t, randomEnvelope(rng))
		checkResponse(t, randomResponse(rng))
	}
}

// The decoder is strict: each input below is well-formed XML that
// encoding/xml decodes, but not what the encoder writes, so the codec
// rejects it.
func TestDecoderRejectsOffGrammar(t *testing.T) {
	good, err := Marshal(&Envelope{
		Header: Header{MessageID: "m-1", Sender: "s"},
		Body:   Body{Submit: &SubmitJob{Name: "a&b", Nodes: 2, Walltime: 0.5, Arguments: []string{"x"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseEnvelope(string(good)); err != nil {
		t.Fatalf("the canonical envelope is rejected: %v", err)
	}
	edits := [][2]string{
		{xml.Header, ""}, // no declaration
		{"<Envelope>", `<Envelope xmlns="urn:x">`}, // attribute
		{"<Header>", "<Header> "},                  // whitespace between elements
		{"<Header>", "<!-- c --><Header>"},         // comment
		{"&amp;", "&#38;"},                         // another spelling of '&'
		{"a&amp;b", "a&quot;b"},                    // a reference the encoder never writes
		{"a&amp;b", "a&amp;b>"},                    // '>' unescaped
		{"a&amp;b", "a\tb"},                        // tab unescaped
		{"a&amp;b", "<![CDATA[a&b]]>"},             // CDATA
		{"<Nodes>2</Nodes>", "<Nodes>02</Nodes>"},  // leading zero
		{"<Nodes>2</Nodes>", "<Nodes>+2</Nodes>"},  // explicit sign
		{"<Nodes>2</Nodes>", "<Nodes> 2</Nodes>"},  // space inside a number
		{"0.5</", "5e-1</"},                        // non-shortest float
		{"<Arg>x</Arg>", "<Arg/>"},                 // self-closing element
		{"<Name>a&amp;b</Name><Nodes>2</Nodes>", "<Nodes>2</Nodes><Name>a&amp;b</Name>"}, // order
		{"<Sender>s</Sender>", "<Sender>s</Sender><Extra>1</Extra>"},                     // unknown element
		{"<Name>", "<OpID></OpID><Name>"},                                                // empty omitempty field
		{"</Envelope>", "</Envelope>\n"},                                                 // trailing data
	}
	for _, ed := range edits {
		bad := strings.Replace(string(good), ed[0], ed[1], 1)
		if bad == string(good) {
			t.Fatalf("edit %q does not apply", ed)
		}
		var ref Envelope
		if err := xml.Unmarshal([]byte(bad), &ref); err != nil {
			t.Fatalf("edit %q: encoding/xml rejects %q too (%v); the case shows nothing", ed, bad, err)
		}
		if _, err := parseEnvelope(bad); err == nil {
			t.Errorf("codec accepted off-grammar envelope %q", bad)
		}
	}
	for _, bad := range []string{
		`<Response><OK>1</OK></Response>`,
		`<Response><OK>true</OK><JobID>0</JobID></Response>`,
		`<Response><OK>true</OK><Error></Error></Response>`,
		`<Response><OK>true</OK><Batch><Op><OK>true</OK><Shed></Shed></Op></Batch></Response>`,
	} {
		if _, err := parseResponse(bad); err == nil {
			t.Errorf("codec accepted off-grammar reply %q", bad)
		}
	}
}

// A service that answers "not xml" with a Fault answers every decode
// failure the same way; the codec's errors say where it stopped.
func TestDecoderErrorNamesOffset(t *testing.T) {
	_, err := parseEnvelope(xml.Header + "<Envelope><Header><MessageID>")
	if err == nil || !strings.Contains(err.Error(), "middleware: unmarshal:") || !strings.Contains(err.Error(), "byte") {
		t.Fatalf("error = %v", err)
	}
}

// The codec runs on every served request: a batch envelope decodes in
// a handful of allocations (the body string, the envelope, the batch,
// its job slice and one shared argument list).
func TestCodecAllocations(t *testing.T) {
	e := &Envelope{Header: Header{MessageID: "probe-msg-00000000", Sender: "probe"}}
	e.Body.SubmitBatch = &SubmitBatch{}
	for i := 0; i < 4; i++ {
		e.Body.SubmitBatch.Jobs = append(e.Body.SubmitBatch.Jobs, SubmitJob{
			OpID: fmt.Sprintf("probe-op-%08d-%d", 0, i), Name: "job-0badcafe", Nodes: 4, Walltime: 3600,
			Arguments: []string{"--input", "data.bin"},
		})
	}
	raw, _ := Marshal(e)
	if n := testing.AllocsPerRun(100, func() { Marshal(e) }); n > 1 {
		t.Errorf("Marshal: %.1f allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { decodeEnvelope(raw) }); n > 5 {
		t.Errorf("decodeEnvelope: %.1f allocs, want <= 5", n)
	}
	reply := appendResponse(nil, &Response{OK: true, Batch: []BatchResult{{OK: true, JobID: 1}, {OK: true, JobID: 2}}})
	if n := testing.AllocsPerRun(100, func() { parseResponse(string(reply)) }); n > 3 {
		t.Errorf("parseResponse: %.1f allocs, want <= 3", n)
	}
}

// The jobs of a batch share one backing array of arguments; each list
// is capped, so appending to one leaves the next intact.
func TestDecodedArgumentsDoNotAlias(t *testing.T) {
	raw, _ := Marshal(&Envelope{Body: Body{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{
		{OpID: "a", Nodes: 1, Walltime: 1, Arguments: []string{"a1"}},
		{OpID: "b", Nodes: 1, Walltime: 1, Arguments: []string{"b1", "b2"}},
	}}}})
	e, err := decodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	jobs := e.Body.SubmitBatch.Jobs
	grown := append(jobs[0].Arguments, "a2")
	if got := jobs[1].Arguments; len(grown) != 2 || len(got) != 2 || got[0] != "b1" || got[1] != "b2" {
		t.Fatalf("appending to job 0's arguments changed job 1's to %q", got)
	}
}

func TestMintIDMatchesSprintf(t *testing.T) {
	for _, c := range []*Client{
		{name: "bench", nonce: 0},
		{name: "a-much-longer-sender-name-than-the-stack-buffer-holds-on-its-own", nonce: math.MaxUint64},
		{name: "", nonce: 0xdeadbeef},
	} {
		c.seq.Store(math.MaxInt64 - 2)
		want := fmt.Sprintf("%s-%x-%d", c.name, c.nonce, c.seq.Load()+1)
		if got := c.mintID(); got != want {
			t.Errorf("mintID = %q, want %q", got, want)
		}
	}
}

// FuzzEnvelope feeds arbitrary bytes to both decoders. Whatever the
// codec accepts, as an envelope or as a reply, encoding/xml must accept
// and decode to the same value, and the value must re-encode to the
// input; neither decoder may panic.
func FuzzEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seeds := []*Envelope{
		{Header: Header{MessageID: "m-1", Sender: "s"}, Body: Body{Submit: &SubmitJob{
			Name: "render", Nodes: 8, Walltime: 3600, Arguments: []string{"--scene", "castle.xml"}}}},
		{Header: Header{MessageID: "m-2", Sender: "s"}, Body: Body{Cancel: &CancelJob{JobID: 12}}},
		{Header: Header{MessageID: "m-3", Sender: "s"}, Body: Body{Status: &JobStatus{}}},
		{Header: Header{MessageID: "m-4", Sender: "s"}, Body: Body{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{
			{OpID: "o-1", Name: `a<&'">`, Nodes: 1, Walltime: 0.1, Arguments: []string{"--input", "data.bin"}},
			{OpID: "o-2", Name: "\t\r\n\x01\xff", Nodes: 4, Walltime: 1e21}}}}},
		{Header: Header{MessageID: "m-5", Sender: "s"}, Body: Body{CancelBatch: &CancelBatch{Ops: []CancelJob{
			{OpID: "o-3", JobID: 1}, {OpID: "o-4", JobID: math.MaxInt64}}}}},
		randomEnvelope(rng), randomEnvelope(rng),
	}
	for _, e := range seeds {
		raw, err := Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`<Response><OK>true</OK><JobID>7</JobID></Response>`)) // retry_test.go's hand-written reply
	f.Add(appendResponse(nil, &Response{OK: true, Batch: []BatchResult{{OK: true, JobID: 3}, {Error: "full", Shed: "busy"}}}))
	f.Add(appendResponse(nil, &Response{OK: true, Queued: 3, Running: 1, Free: 12}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEnvelopeDecode(t, data)
		checkResponseDecode(t, data)
	})
}
