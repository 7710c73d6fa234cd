package pbsd

import (
	"bufio"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"redreq/internal/obs"
)

func newTestListener(t *testing.T, nodes int) (*Server, *Listener) {
	t.Helper()
	srv, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	return srv, ln
}

func TestProtocolRoundTrip(t *testing.T) {
	_, ln := newTestListener(t, 16)
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit("proto-job", 4, 90*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if id < 1 {
		t.Fatalf("id = %d", id)
	}
	q, r, free, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 || r != 0 || free != 16 {
		t.Errorf("Stat = %d/%d/%d", q, r, free)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err == nil {
		t.Error("double delete over protocol succeeded")
	}
}

func TestProtocolDeleteHead(t *testing.T) {
	_, ln := newTestListener(t, 16)
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id1, _ := c.Submit("a", 1, time.Hour)
	c.Submit("b", 1, time.Hour)
	got, err := c.DeleteHead()
	if err != nil {
		t.Fatal(err)
	}
	if got != id1 {
		t.Errorf("DeleteHead = %d, want %d", got, id1)
	}
}

func TestProtocolJobNameWithSpaces(t *testing.T) {
	_, ln := newTestListener(t, 16)
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit("my long job name", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolFailureInjection sends malformed commands straight over
// the socket and checks each gets a well-formed ERR reply without
// killing the connection.
func TestProtocolFailureInjection(t *testing.T) {
	_, ln := newTestListener(t, 16)
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	send := func(line string) string {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if !r.Scan() {
			t.Fatalf("connection closed after %q", line)
		}
		return r.Text()
	}
	cases := []string{
		"",
		"BOGUS",
		"QSUB",
		"QSUB x 10 name",
		"QSUB 1 -5 name",
		"QSUB 1 abc name",
		"QDEL",
		"QDEL notanumber",
		"QDEL 99999",
		"QDELHEAD", // empty queue
	}
	for _, line := range cases {
		resp := send(line)
		if !strings.HasPrefix(resp, "ERR") {
			t.Errorf("command %q: response %q, want ERR", line, resp)
		}
	}
	// The connection is still usable afterwards.
	if resp := send("PING"); resp != "OK" {
		t.Errorf("PING after garbage = %q", resp)
	}
	if resp := send("QSUB 2 60 ok-job"); !strings.HasPrefix(resp, "OK ") {
		t.Errorf("QSUB after garbage = %q", resp)
	}
}

func TestProtocolConcurrentClients(t *testing.T) {
	_, ln := newTestListener(t, 16)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			c, err := Dial(ln.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				if _, err := c.Submit("cc", 1, time.Hour); err != nil {
					done <- err
					return
				}
				if _, err := c.DeleteHead(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParseStatStrict locks in the strict QSTAT payload parse: the old
// fmt.Sscanf accepted trailing garbage after the three ints.
func TestParseStatStrict(t *testing.T) {
	cases := []struct {
		resp    string
		q, r, f int
		ok      bool
	}{
		{"1 2 3", 1, 2, 3, true},
		{"  7   0   16  ", 7, 0, 16, true},
		{"0 0 0", 0, 0, 0, true},
		{"1 2 3 garbage", 0, 0, 0, false},
		{"1 2 3 4", 0, 0, 0, false},
		{"1 2", 0, 0, 0, false},
		{"", 0, 0, 0, false},
		{"a b c", 0, 0, 0, false},
		{"1 2 x", 0, 0, 0, false},
		{"1.5 2 3", 0, 0, 0, false},
	}
	for _, c := range cases {
		q, r, f, err := parseStat(c.resp)
		if c.ok {
			if err != nil {
				t.Errorf("parseStat(%q) error: %v", c.resp, err)
			} else if q != c.q || r != c.r || f != c.f {
				t.Errorf("parseStat(%q) = %d/%d/%d, want %d/%d/%d", c.resp, q, r, f, c.q, c.r, c.f)
			}
		} else if err == nil {
			t.Errorf("parseStat(%q) accepted malformed response", c.resp)
		}
	}
}

// TestProtocolErrorShapes is the table-driven protocol-parsing test:
// each malformed command produces the documented ERR shape, and each
// ERR is counted by the pbsd.errors trace counter.
func TestProtocolErrorShapes(t *testing.T) {
	tr := obs.New()
	srv, err := New(Config{Nodes: 16, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	send := func(line string) string {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if !r.Scan() {
			t.Fatalf("connection closed after %q", line)
		}
		return r.Text()
	}
	cases := []struct {
		line string
		want string // response prefix
	}{
		{"QSUB", "ERR usage: QSUB"},
		{"QSUB 1 60", "ERR usage: QSUB"},
		{"QSUB x 60 job", "ERR bad nodes"},
		{"QSUB 1 x job", "ERR bad walltime"},
		{"QSUB 1 -5 job", "ERR bad walltime"},
		{"QSUB 1 0 job", "ERR bad walltime"},
		// Walltimes no Duration holds: NaN, infinities, 2^63 ns and up,
		// and under a nanosecond.
		{"QSUB 1 NaN j", "ERR bad walltime"},
		{"QSUB 1 Inf j", "ERR bad walltime"},
		{"QSUB 1 -Inf j", "ERR bad walltime"},
		{"QSUB 1 1e10 j", "ERR bad walltime"},
		{"QSUB 1 9.3e9 j", "ERR bad walltime"},
		{"QSUB 1 1e-10 j", "ERR bad walltime"},
		{"QSUB 99 60 job", "ERR pbsd: request exceeds node pool"},
		{"QDEL", "ERR usage: QDEL"},
		{"QDEL 1 2", "ERR usage: QDEL"},
		{"QDEL abc", "ERR bad jobid"},
		{"QDEL 424242", "ERR pbsd: unknown job"},
		{"QDELHEAD", "ERR pbsd: unknown job"},
		{"QSTAT extra", "OK 0 0 16"}, // extra args are ignored by QSTAT
		{"NOSUCH", "ERR unknown command NOSUCH"},
		{"", "ERR empty command"},
	}
	wantErrs := int64(0)
	for _, c := range cases {
		resp := send(c.line)
		if !strings.HasPrefix(resp, c.want) {
			t.Errorf("command %q: response %q, want prefix %q", c.line, resp, c.want)
		}
		if strings.HasPrefix(c.want, "ERR") {
			wantErrs++
		}
	}
	if got := tr.Snapshot().Counter("pbsd.errors"); got != wantErrs {
		t.Errorf("pbsd.errors = %d, want %d", got, wantErrs)
	}
	// Successful commands land in the latency histograms.
	if send("PING") != "OK" {
		t.Fatal("PING failed")
	}
	if n := tr.Histogram("pbsd.latency.ping").Count(); n != 1 {
		t.Errorf("pbsd.latency.ping count = %d, want 1", n)
	}
	if n := tr.Histogram("pbsd.latency.qsub").Count(); n != 13 {
		t.Errorf("pbsd.latency.qsub count = %d, want 13 (every QSUB attempt is timed)", n)
	}
}

// TestWalltime pins Walltime's range: positive Durations convert
// exactly, and everything past either end of a Duration is refused.
func TestWalltime(t *testing.T) {
	for _, c := range []struct {
		secs float64
		want time.Duration // 0: refused
	}{
		{60, time.Minute},
		{1e-9, time.Nanosecond},
		{9.2e9, 9_200_000_000 * time.Second},
		{0, 0}, {-1, 0}, {5e-10, 0}, {9.3e9, 0}, {1e10, 0},
		{math.NaN(), 0}, {math.Inf(1), 0}, {math.Inf(-1), 0},
	} {
		got, err := Walltime(c.secs)
		if (err == nil) != (c.want != 0) || got != c.want {
			t.Errorf("Walltime(%v) = %v, %v; want %v", c.secs, got, err, c.want)
		}
	}
}

// TestScannerOverflowDiagnosed sends a line beyond the 64 KiB scanner
// buffer: the old handler dropped the connection silently; it must now
// answer "ERR line too long" and count the failure.
func TestScannerOverflowDiagnosed(t *testing.T) {
	tr := obs.New()
	srv, err := New(Config{Nodes: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := "QSUB 1 60 " + strings.Repeat("x", 80*1024) + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 0, 4096), 128*1024)
	if !r.Scan() {
		t.Fatalf("no diagnostic before close: %v", r.Err())
	}
	if got := r.Text(); got != "ERR line too long" {
		t.Fatalf("response = %q, want \"ERR line too long\"", got)
	}
	// The connection is closed afterwards (the scanner cannot resync).
	if r.Scan() {
		t.Fatalf("unexpected extra response %q", r.Text())
	}
	if got := tr.Snapshot().Counter("pbsd.errors.line_too_long"); got != 1 {
		t.Errorf("pbsd.errors.line_too_long = %d, want 1", got)
	}
}

func TestListenerClose(t *testing.T) {
	srv, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	// Client operations now fail cleanly.
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after listener close")
	}
	c.Close()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

// FuzzProtocol feeds arbitrary newline-separated command lines to the
// protocol handler of an in-process daemon that never runs jobs, in both
// cycle modes. No line may panic; every reply is one line opening with
// OK, ERR, BUSY or LATE; an OK to QSUB queues exactly one job under an
// ID larger than any before it; an OK to QDEL or QDELHEAD removes
// exactly one; and QSTAT reports what Stat reads.
func FuzzProtocol(f *testing.F) {
	for _, seed := range []string{
		"PING\nQSUB 1 60 a\nQSUB 2 3600 b c\nQSTAT\nQDEL 1\nQDELHEAD\nQSTAT",
		"QSUB 1 NaN j\nQSUB 1 Inf j\nQSUB 1 -Inf j\nQSUB 1 1e10 j\nQSUB 1 9.3e9 j\nQSUB 1 1e-10 j",
		"QSUB 1 9.2e9 j\nQSUB 1 1e-9 j\nQSUB 1 0x1p-30 j\nQSTAT",
		"QSUB 1 1 a\nQSUB 1 1 b\nQSUB 1 1 c\nQSUB 1 1 d\nQSUB 1 1 e\nQDEL 3\nQDEL 3\nQSUB 1 1 f",
		"QSUB 99 60 big\nQSUB -1 60 neg\nQSUB 1 60\nQDEL x\nQDEL\nNOSUCH\n\n \t\r",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		for _, fullScan := range []bool{false, true} {
			srv, err := New(Config{Nodes: 16, MaxQueue: 4, FullScanCycle: fullScan})
			if err != nil {
				t.Fatal(err)
			}
			l := &Listener{srv: srv}
			var lastID int64
			for _, line := range strings.Split(script, "\n") {
				q0, _, _ := srv.Stat()
				resp := l.serveCommand(line)
				q1, r1, f1 := srv.Stat()
				if strings.ContainsAny(resp, "\r\n") {
					t.Fatalf("%q: reply %q is not one line", line, resp)
				}
				ok := resp == "OK" || strings.HasPrefix(resp, "OK ")
				if !ok && !strings.HasPrefix(resp, "ERR ") && resp != "BUSY" && resp != "LATE" {
					t.Fatalf("%q: reply %q opens with none of OK, ERR, BUSY, LATE", line, resp)
				}
				cmd := ""
				if fields := strings.Fields(line); len(fields) > 0 {
					cmd = fields[0]
				}
				switch {
				case !ok:
					if q1 != q0 {
						t.Fatalf("%q: refused with %q, queue %d -> %d", line, resp, q0, q1)
					}
				case cmd == "QSUB":
					id, err := strconv.ParseInt(strings.TrimPrefix(resp, "OK "), 10, 64)
					if err != nil || id <= lastID {
						t.Fatalf("%q: reply %q, want an ID above %d", line, resp, lastID)
					}
					lastID = id
					if q1 != q0+1 {
						t.Fatalf("%q: accepted, queue %d -> %d", line, q0, q1)
					}
				case cmd == "QDEL" || cmd == "QDELHEAD":
					if q1 != q0-1 {
						t.Fatalf("%q: accepted, queue %d -> %d", line, q0, q1)
					}
				case cmd == "QSTAT":
					q, r, fr, err := parseStat(strings.TrimPrefix(resp, "OK"))
					if err != nil || q != q1 || r != r1 || fr != f1 {
						t.Fatalf("%q: reply %q (%v), Stat reads %d %d %d", line, resp, err, q1, r1, f1)
					}
				}
			}
			srv.Close()
		}
	})
}
