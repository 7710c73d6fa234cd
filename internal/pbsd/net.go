// TCP line protocol for the daemon: the qsub/qdel path the Figure 5
// harness saturates. Commands and responses are single lines:
//
//	QSUB <nodes> <walltime-seconds> <name>  ->  OK <jobid> | BUSY | LATE | ERR <msg>
//	QDEL <jobid>                            ->  OK | ERR <msg>
//	QDELHEAD                                ->  OK <jobid> | ERR <msg>
//	QSTAT                                   ->  OK <queued> <running> <free>
//	PING                                    ->  OK
//
// Fields are split where strings.Fields splits them, and a QSUB name is
// its remaining fields joined by single spaces. Each connection is
// served by its own goroutine; commands on one connection execute
// sequentially. Both ends work on bytes: the handler parses each line
// in the scanner's buffer and appends its reply to one buffer per
// connection, and the client formats commands into one reused buffer,
// so a successful command allocates nothing but the job a QSUB queues.

package pbsd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// Listener serves the daemon protocol on a TCP listener.
type Listener struct {
	srv *Server
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts serving srv on addr (e.g. "127.0.0.1:0") and returns
// the listener; the actual address is available via Addr.
func Serve(srv *Server, addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pbsd: listen: %w", err)
	}
	l := &Listener{srv: srv, ln: ln, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// drainGrace bounds how long Close waits for in-flight commands to
// finish before force-closing their connections.
const drainGrace = 5 * time.Second

// Close stops accepting and drains in-flight connections: handlers
// blocked reading the next command are nudged out with an immediate
// read deadline, while a command already being executed finishes and
// its response is written before the connection closes. Handlers that
// still have not finished after a grace period are force-closed so
// Close cannot hang on a wedged peer.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		// Expire the pending (or next) read instead of closing: the
		// scanner loop exits at the next read, after any in-flight
		// response has been flushed.
		c.SetReadDeadline(time.Now())
	}
	l.mu.Unlock()
	err := l.ln.Close()

	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainGrace):
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
		<-done
	}
	return err
}

// closing reports whether Close has begun; handlers use it to treat
// drain-induced read errors as a normal shutdown.
func (l *Listener) closing() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.handle(conn)
	}
}

func (l *Listener) handle(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	writeTimeout := l.srv.cfg.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 10 * time.Second
	}
	// Each write gets all of writeTimeout, so a client that stops
	// reading its responses cannot pin this handler goroutine for
	// longer than that. The deadline is left set between writes: reads
	// carry no deadline of their own, and the next write moves it.
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 64*1024)
	out := make([]byte, 0, 256)
	for sc.Scan() {
		out = l.dispatch(out[:0], sc.Bytes())
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
	// A drain-induced read deadline during Close is a normal shutdown,
	// not a protocol error: the in-flight response (if any) has been
	// flushed, so just drop the connection.
	if l.closing() {
		return
	}
	// A scan failure other than EOF (an oversized or malformed line)
	// used to close the connection silently; diagnose it to the client
	// and count it before dropping the connection.
	if err := sc.Err(); err != nil {
		l.srv.cProtoErrors.Inc()
		msg := "ERR read: " + err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			l.srv.cLineTooLong.Inc()
			msg = "ERR line too long"
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		conn.Write([]byte(msg + "\n"))
		// The aborted scan leaves unread input in the socket buffer;
		// closing with it pending sends an RST that can destroy the
		// queued diagnostic before the client reads it. Drain (bounded
		// by a deadline) so the close is graceful.
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, conn)
	}
}

// dispatch appends the reply to line and a newline to out, counting
// ERR replies.
func (l *Listener) dispatch(out, line []byte) []byte {
	n := len(out)
	out = l.serveCommand(out, line)
	if bytes.HasPrefix(out[n:], []byte("ERR")) {
		l.srv.cProtoErrors.Inc()
	}
	return append(out, '\n')
}

// serveCommand executes one command line and appends its reply, without
// the newline, to out. Numbers go to strconv as string(field), which
// stays off the heap (strconv copies its input only into an error), so
// only a QSUB's job name is allocated.
func (l *Listener) serveCommand(out, line []byte) []byte {
	cmd, rest := nextField(line)
	if len(cmd) == 0 {
		return append(out, "ERR empty command"...)
	}
	if l.srv.hLatency != nil {
		if h, ok := l.srv.hLatency[string(cmd)]; ok {
			defer func(t0 time.Time) {
				h.Observe(time.Since(t0).Seconds())
			}(time.Now())
		}
	}
	switch string(cmd) {
	case "PING":
		return append(out, "OK"...)
	case "QSUB":
		nodesF, rest := nextField(rest)
		wallF, rest := nextField(rest)
		if name, _ := nextField(rest); len(name) == 0 {
			return append(out, "ERR usage: QSUB <nodes> <walltime-seconds> <name>"...)
		}
		nodes, err := strconv.ParseInt(string(nodesF), 10, 64)
		if err != nil {
			return append(out, "ERR bad nodes"...)
		}
		secs, err := strconv.ParseFloat(string(wallF), 64)
		if err != nil {
			return append(out, "ERR bad walltime"...)
		}
		walltime, err := Walltime(secs)
		if err != nil {
			return append(out, "ERR bad walltime"...)
		}
		id, err := l.srv.Submit(joinFields(rest), int(nodes), walltime)
		if errors.Is(err, ErrBusy) {
			// Graceful shedding is its own response shape, not an ERR:
			// the client should back off and retry, and the protocol
			// error counters stay clean.
			return append(out, "BUSY"...)
		}
		if errors.Is(err, ErrLate) {
			// Admission-control drop: distinct from BUSY so clients can
			// tell "queue slots full" from "queue delay past budget".
			return append(out, "LATE"...)
		}
		if err != nil {
			return appendErr(out, err)
		}
		return strconv.AppendInt(append(out, "OK "...), id, 10)
	case "QDEL":
		idF, rest := nextField(rest)
		if extra, _ := nextField(rest); len(idF) == 0 || len(extra) != 0 {
			return append(out, "ERR usage: QDEL <jobid>"...)
		}
		id, err := strconv.ParseInt(string(idF), 10, 64)
		if err != nil {
			return append(out, "ERR bad jobid"...)
		}
		if err := l.srv.Delete(id); err != nil {
			return appendErr(out, err)
		}
		return append(out, "OK"...)
	case "QDELHEAD":
		id, err := l.srv.DeleteHead()
		if err != nil {
			return appendErr(out, err)
		}
		return strconv.AppendInt(append(out, "OK "...), id, 10)
	case "QSTAT":
		q, r, f := l.srv.Stat()
		out = strconv.AppendInt(append(out, "OK "...), int64(q), 10)
		out = strconv.AppendInt(append(out, ' '), int64(r), 10)
		return strconv.AppendInt(append(out, ' '), int64(f), 10)
	default:
		return append(append(out, "ERR unknown command "...), cmd...)
	}
}

func appendErr(out []byte, err error) []byte {
	return append(append(out, "ERR "...), err.Error()...)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether b opens with a space as strings.Fields sees
// it, and the length of the rune it opens with: ASCII bytes by table,
// and anything else decoded, where an invalid byte is one
// utf8.RuneError, which is not a space.
func spaceAt(b []byte) (space bool, size int) {
	if c := b[0]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, size := utf8.DecodeRune(b)
	return unicode.IsSpace(r), size
}

// nextField returns the first field of b, split as strings.Fields
// splits, and the bytes after it; field is empty when b holds none.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) {
		space, size := spaceAt(b[i:])
		if !space {
			break
		}
		i += size
	}
	j := i
	for j < len(b) {
		space, size := spaceAt(b[j:])
		if space {
			break
		}
		j += size
	}
	return b[i:j], b[j:]
}

// joinFields returns b's fields joined by single spaces, in one
// allocation: strings.Join(strings.Fields(string(b)), " ").
func joinFields(b []byte) string {
	n := -1
	for f, rest := nextField(b); len(f) > 0; f, rest = nextField(rest) {
		n += 1 + len(f)
	}
	if n <= 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(n)
	for f, rest := nextField(b); len(f) > 0; f, rest = nextField(rest) {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.Write(f)
	}
	return sb.String()
}

// Client is a protocol client over one TCP connection. It is safe for
// sequential use only; use one Client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	cmd  []byte // the command being sent, reused across calls
}

// Dial connects a client to a daemon listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pbsd: dial: %w", err)
	}
	c := &Client{conn: conn, r: bufio.NewScanner(conn), cmd: make([]byte, 0, 256)}
	c.r.Buffer(make([]byte, 0, 4096), 64*1024)
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// command starts the next command in the reused buffer.
func (c *Client) command(verb string) []byte { return append(c.cmd[:0], verb...) }

// roundTrip sends cmd and a newline and returns an OK reply's payload,
// which stays valid until the next call.
func (c *Client) roundTrip(cmd []byte) ([]byte, error) {
	c.cmd = append(cmd, '\n')
	if _, err := c.conn.Write(c.cmd); err != nil {
		return nil, err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("pbsd: connection closed")
	}
	resp := c.r.Bytes()
	switch {
	case string(resp) == "BUSY":
		return nil, ErrBusy
	case string(resp) == "LATE":
		return nil, ErrLate
	case bytes.HasPrefix(resp, []byte("ERR")):
		return nil, fmt.Errorf("pbsd: %s", bytes.TrimSpace(resp[len("ERR"):]))
	}
	return bytes.TrimSpace(bytes.TrimPrefix(resp, []byte("OK"))), nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(c.command("PING"))
	return err
}

// Submit issues QSUB and returns the job ID.
func (c *Client) Submit(name string, nodes int, walltime time.Duration) (int64, error) {
	cmd := strconv.AppendInt(c.command("QSUB "), int64(nodes), 10)
	// 'g' with the shortest precision prints what %g prints.
	cmd = strconv.AppendFloat(append(cmd, ' '), walltime.Seconds(), 'g', -1, 64)
	resp, err := c.roundTrip(append(append(cmd, ' '), name...))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(resp), 10, 64)
}

// Delete issues QDEL for a job ID.
func (c *Client) Delete(id int64) error {
	_, err := c.roundTrip(strconv.AppendInt(c.command("QDEL "), id, 10))
	return err
}

// DeleteHead issues QDELHEAD and returns the removed job's ID.
func (c *Client) DeleteHead() (int64, error) {
	resp, err := c.roundTrip(c.command("QDELHEAD"))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(resp), 10, 64)
}

// Stat issues QSTAT.
func (c *Client) Stat() (queued, running, free int, err error) {
	resp, err := c.roundTrip(c.command("QSTAT"))
	if err != nil {
		return 0, 0, 0, err
	}
	return parseStat(resp)
}

// parseStat strictly parses a QSTAT payload: exactly three integers,
// no trailing garbage (fmt.Sscanf used to accept "1 2 3 nonsense").
func parseStat(resp []byte) (queued, running, free int, err error) {
	var vals [3]int
	rest := resp
	for i := range vals {
		var f []byte
		if f, rest = nextField(rest); len(f) == 0 {
			return 0, 0, 0, fmt.Errorf("pbsd: malformed QSTAT response %q", resp)
		}
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("pbsd: malformed QSTAT response %q: %v", resp, err)
		}
		vals[i] = int(v)
	}
	if f, _ := nextField(rest); len(f) != 0 {
		return 0, 0, 0, fmt.Errorf("pbsd: malformed QSTAT response %q", resp)
	}
	return vals[0], vals[1], vals[2], nil
}
