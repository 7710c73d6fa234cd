package pbsd

import (
	"bufio"
	"errors"
	"fmt"
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
		q, r, f, err := parseStat([]byte(c.resp))
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

// TestSubmitWalltimeFormat pins the client's walltime field to what
// fmt's %g prints, the format the protocol has always carried.
func TestSubmitWalltimeFormat(t *testing.T) {
	for _, d := range []time.Duration{
		time.Nanosecond, 999 * time.Millisecond, 1500 * time.Millisecond, time.Minute,
		90 * time.Minute, 1e6 * time.Second, 123456789 * time.Microsecond,
		time.Duration(math.MaxInt64), -5 * time.Second, 0,
	} {
		got := string(strconv.AppendFloat(nil, d.Seconds(), 'g', -1, 64))
		if want := fmt.Sprintf("%g", d.Seconds()); got != want {
			t.Errorf("%v: AppendFloat %q, %%g %q", d, got, want)
		}
	}
}

// TestWriteTimeoutReleasesStalledHandler sends commands and never
// reads a reply. Each reply echoes a 60 000-byte command word, so the
// replies soon fill the socket buffers and the handler's write stalls;
// its write deadline must then end the handler, which closes the
// connection, within WriteTimeout.
func TestWriteTimeoutReleasesStalledHandler(t *testing.T) {
	const writeTimeout = 300 * time.Millisecond
	srv, err := New(Config{Nodes: 4, WriteTimeout: writeTimeout})
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
	line := []byte(strings.Repeat("X", 60000) + "\n")
	start := time.Now()
	// The writer's Write fails once the handler has closed the
	// connection with input still unread.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			if _, err := conn.Write(line); err != nil {
				return
			}
		}
	}()
	select {
	case <-writerDone:
	case <-time.After(writeTimeout + 5*time.Second):
		t.Fatalf("handler still serving %v after its replies stalled; WriteTimeout is %v", time.Since(start), writeTimeout)
	}
	// Every write gets all of WriteTimeout.
	if elapsed := time.Since(start); elapsed < writeTimeout {
		t.Fatalf("connection closed after %v, before a write deadline could expire", elapsed)
	}
	ln.mu.Lock()
	n := len(ln.conns)
	ln.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d handlers still registered after the connection closed", n)
	}
}

// refServeCommand is the reference for Listener.serveCommand: the
// string handler the byte path replaced, minus its latency histograms.
// FuzzProtocol holds the two to the same reply for every line.
func refServeCommand(srv *Server, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch fields[0] {
	case "PING":
		return "OK"
	case "QSUB":
		if len(fields) < 4 {
			return "ERR usage: QSUB <nodes> <walltime-seconds> <name>"
		}
		nodes, err := strconv.Atoi(fields[1])
		if err != nil {
			return "ERR bad nodes"
		}
		secs, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return "ERR bad walltime"
		}
		walltime, err := Walltime(secs)
		if err != nil {
			return "ERR bad walltime"
		}
		id, err := srv.Submit(strings.Join(fields[3:], " "), nodes, walltime)
		if errors.Is(err, ErrBusy) {
			return "BUSY"
		}
		if errors.Is(err, ErrLate) {
			return "LATE"
		}
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK %d", id)
	case "QDEL":
		if len(fields) != 2 {
			return "ERR usage: QDEL <jobid>"
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "ERR bad jobid"
		}
		if err := srv.Delete(id); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "QDELHEAD":
		id, err := srv.DeleteHead()
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK %d", id)
	case "QSTAT":
		q, r, f := srv.Stat()
		return fmt.Sprintf("OK %d %d %d", q, r, f)
	default:
		return "ERR unknown command " + fields[0]
	}
}

// FuzzProtocol feeds arbitrary newline-separated command lines to the
// protocol handler of an in-process daemon that never runs jobs, in both
// cycle modes, and each line also to refServeCommand on a second daemon.
// The two replies must be byte-identical and the two daemons' Stat
// readings equal. No line may panic; every reply is one line opening
// with OK, ERR, BUSY or LATE; an OK to QSUB queues exactly one job under
// an ID larger than any before it; an OK to QDEL or QDELHEAD removes
// exactly one; and QSTAT reports what Stat reads.
func FuzzProtocol(f *testing.F) {
	for _, seed := range []string{
		"PING\nQSUB 1 60 a\nQSUB 2 3600 b c\nQSTAT\nQDEL 1\nQDELHEAD\nQSTAT",
		"QSUB 1 NaN j\nQSUB 1 Inf j\nQSUB 1 -Inf j\nQSUB 1 1e10 j\nQSUB 1 9.3e9 j\nQSUB 1 1e-10 j",
		"QSUB 1 9.2e9 j\nQSUB 1 1e-9 j\nQSUB 1 0x1p-30 j\nQSTAT",
		"QSUB 1 1 a\nQSUB 1 1 b\nQSUB 1 1 c\nQSUB 1 1 d\nQSUB 1 1 e\nQDEL 3\nQDEL 3\nQSUB 1 1 f",
		"QSUB 99 60 big\nQSUB -1 60 neg\nQSUB 1 60\nQDEL x\nQDEL\nNOSUCH\n\n \t\r",
		// Whitespace strings.Fields splits on beyond ' ' and '\t'.
		"QSUB\v1\f60\vname\nQDEL\f1\nQSTAT\v\nPING\f",
		"QSUB 1 60 a\u0085b c\nQSUB\u00851 60 x\nQSTAT\u0085extra\nQDEL 2",
		// Bytes that are not UTF-8 are not spaces.
		"QSUB 1 1 \xff\xfe name\nQSUB 1 1 \xc2\nQSUB\xc2\xa01 1 n\nQDEL \xc2",
		// Signs and leading zeros go through strconv.
		"QSUB +1 +60 a\nQSUB -1 60 b\nQSUB 007 0060 c\nQDEL +1\nQDEL 0002\nQDEL -3\nQDEL 0",
		// Integers with 18, 19 and more digits, at and past int64's range.
		"QSUB 1 60 a\nQDEL 000000000000000001\nQDEL 0000000000000000002\nQDEL 9223372036854775807\nQDEL 9223372036854775808\nQDEL 99999999999999999999",
		"QSUB 99999999999999999999 60 x\nQSUB 999999999999999999 60 y\nQSUB 1 123456789012345678901 z\nQSUB 0000000000000000001 60 w",
		"QSUB 1 0x1p-30 a\nQSUB 1 1e3 b\nQSUB 1 Inf c\nQSUB 1 +Inf d\nQSUB 1 1_000 e\nQSUB 1 9007199254740993 f\nQSUB 1 9200000000 g\nQSTAT",
		"QSUB 2 60 many   words\there\r\nQSUB 1 1  spaced  name  \nPING extra\nQDELHEAD now\nQSTAT 1 2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		for _, fullScan := range []bool{false, true} {
			cfg := Config{Nodes: 16, MaxQueue: 4, FullScanCycle: fullScan}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := &Listener{srv: srv}
			var lastID int64
			var out []byte
			for _, line := range strings.Split(script, "\n") {
				q0, _, _ := srv.Stat()
				out = l.serveCommand(out[:0], []byte(line))
				resp := string(out)
				q1, r1, f1 := srv.Stat()
				if want := refServeCommand(ref, line); resp != want {
					t.Fatalf("%q: reply %q, reference reply %q", line, resp, want)
				}
				if q, r, fr := ref.Stat(); q != q1 || r != r1 || fr != f1 {
					t.Fatalf("%q: Stat reads %d %d %d, reference %d %d %d", line, q1, r1, f1, q, r, fr)
				}
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
					q, r, fr, err := parseStat([]byte(strings.TrimPrefix(resp, "OK")))
					if err != nil || q != q1 || r != r1 || fr != f1 {
						t.Fatalf("%q: reply %q (%v), Stat reads %d %d %d", line, resp, err, q1, r1, f1)
					}
				}
			}
			srv.Close()
			ref.Close()
		}
	})
}
