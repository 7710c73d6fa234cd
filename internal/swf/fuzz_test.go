package swf

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"redreq/internal/rng"
	"redreq/internal/workload"
)

// swfgenTrace is what cmd/swfgen writes for a two-minute window of its
// default model with phi estimates: a dozen or so records.
func swfgenTrace(tb testing.TB) []byte {
	m := workload.NewModel(32)
	m.MinRuntime, m.MaxRuntime, m.EstMode = 30, 36*3600, workload.Phi
	m.CalibrateClamped(rng.New(0xCA11B8A7E), 32, 0.45, 2000)
	tr := FromJobs(m.GenerateWindow(rng.New(1), 120), "redreq synthetic 32-node cluster", 32)
	tr.Header.Note = "Lublin-Feitelson model, horizon 120s, seed 1, load 0.45"
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameTrace compares two traces field by field, a float by its bits so
// that a NaN equals itself and -0 differs from 0.
func sameTrace(a, b *Trace) bool {
	if a.Header != b.Header || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		ra, rb := reflect.ValueOf(a.Records[i]), reflect.ValueOf(b.Records[i])
		for j := 0; j < ra.NumField(); j++ {
			fa, fb := ra.Field(j), rb.Field(j)
			if fa.Kind() == reflect.Float64 {
				if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
					return false
				}
			} else if fa.Int() != fb.Int() {
				return false
			}
		}
	}
	return true
}

// FuzzSWF feeds arbitrary bytes to Parse and holds whatever it accepts
// to a round trip — Write, then Parse again, gives the same trace — and
// to Jobs, which must not panic. It is seeded with the header and first
// records of the trace fixture the trace experiment replays, and with
// swfgen's output: small seeds, since the engine minimizes every input
// that finds new coverage and a whole 24 KB fixture stalls it for
// seconds each time.
func FuzzSWF(f *testing.F) {
	fixture, err := os.ReadFile("../experiment/testdata/trace.swf")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	f.Add(bytes.Join(lines[:min(len(lines), 12)], nil))
	f.Add(swfgenTrace(f))
	f.Add([]byte(sampleTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Parse accepts its own output only with %v:\n%s", err, buf.Bytes())
		}
		if !sameTrace(tr, again) {
			t.Fatalf("round trip changed the trace:\n%+v\nwritten as\n%s\nparsed back as\n%+v", tr, buf.Bytes(), again)
		}
		tr.Jobs()
	})
}
