// TCP line protocol for the daemon: the qsub/qdel path the Figure 5
// harness saturates. Commands and responses are single lines:
//
//	QSUB <nodes> <walltime-seconds> <name>  ->  OK <jobid> | BUSY | LATE | ERR <msg>
//	QDEL <jobid>                            ->  OK | ERR <msg>
//	QDELHEAD                                ->  OK <jobid> | ERR <msg>
//	QSTAT                                   ->  OK <queued> <running> <free>
//	PING                                    ->  OK
//
// Each connection is served by its own goroutine; commands on one
// connection execute sequentially.

package pbsd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
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
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 64*1024)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		resp := l.dispatch(sc.Text())
		// Per-request write deadline: a client that stops reading its
		// responses cannot pin this handler goroutine forever.
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := w.WriteString(resp + "\n"); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		conn.SetWriteDeadline(time.Time{})
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
		w.WriteString(msg + "\n")
		w.Flush()
		// The aborted scan leaves unread input in the socket buffer;
		// closing with it pending sends an RST that can destroy the
		// queued diagnostic before the client reads it. Drain (bounded
		// by a deadline) so the close is graceful.
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, conn)
	}
}

func (l *Listener) dispatch(line string) string {
	resp := l.serveCommand(line)
	if strings.HasPrefix(resp, "ERR") {
		l.srv.cProtoErrors.Inc()
	}
	return resp
}

func (l *Listener) serveCommand(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	if l.srv.hLatency != nil {
		if h, ok := l.srv.hLatency[fields[0]]; ok {
			defer func(t0 time.Time) {
				h.Observe(time.Since(t0).Seconds())
			}(time.Now())
		}
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
		id, err := l.srv.Submit(strings.Join(fields[3:], " "), nodes, walltime)
		if errors.Is(err, ErrBusy) {
			// Graceful shedding is its own response shape, not an ERR:
			// the client should back off and retry, and the protocol
			// error counters stay clean.
			return "BUSY"
		}
		if errors.Is(err, ErrLate) {
			// Admission-control drop: distinct from BUSY so clients can
			// tell "queue slots full" from "queue delay past budget".
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
		if err := l.srv.Delete(id); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "QDELHEAD":
		id, err := l.srv.DeleteHead()
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK %d", id)
	case "QSTAT":
		q, r, f := l.srv.Stat()
		return fmt.Sprintf("OK %d %d %d", q, r, f)
	default:
		return "ERR unknown command " + fields[0]
	}
}

// Client is a protocol client over one TCP connection. It is safe for
// sequential use only; use one Client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

// Dial connects a client to a daemon listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pbsd: dial: %w", err)
	}
	c := &Client{conn: conn, r: bufio.NewScanner(conn), w: bufio.NewWriter(conn)}
	c.r.Buffer(make([]byte, 0, 4096), 64*1024)
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(cmd string) (string, error) {
	if _, err := c.w.WriteString(cmd + "\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("pbsd: connection closed")
	}
	resp := c.r.Text()
	if resp == "BUSY" {
		return "", ErrBusy
	}
	if resp == "LATE" {
		return "", ErrLate
	}
	if strings.HasPrefix(resp, "ERR") {
		return "", fmt.Errorf("pbsd: %s", strings.TrimSpace(strings.TrimPrefix(resp, "ERR")))
	}
	return strings.TrimSpace(strings.TrimPrefix(resp, "OK")), nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip("PING")
	return err
}

// Submit issues QSUB and returns the job ID.
func (c *Client) Submit(name string, nodes int, walltime time.Duration) (int64, error) {
	resp, err := c.roundTrip(fmt.Sprintf("QSUB %d %g %s", nodes, walltime.Seconds(), name))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(resp, 10, 64)
}

// Delete issues QDEL for a job ID.
func (c *Client) Delete(id int64) error {
	_, err := c.roundTrip(fmt.Sprintf("QDEL %d", id))
	return err
}

// DeleteHead issues QDELHEAD and returns the removed job's ID.
func (c *Client) DeleteHead() (int64, error) {
	resp, err := c.roundTrip("QDELHEAD")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(resp, 10, 64)
}

// Stat issues QSTAT.
func (c *Client) Stat() (queued, running, free int, err error) {
	resp, err := c.roundTrip("QSTAT")
	if err != nil {
		return 0, 0, 0, err
	}
	return parseStat(resp)
}

// parseStat strictly parses a QSTAT payload: exactly three integers,
// no trailing garbage (fmt.Sscanf used to accept "1 2 3 nonsense").
func parseStat(resp string) (queued, running, free int, err error) {
	fields := strings.Fields(resp)
	if len(fields) != 3 {
		return 0, 0, 0, fmt.Errorf("pbsd: malformed QSTAT response %q", resp)
	}
	vals := make([]int, 3)
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("pbsd: malformed QSTAT response %q: %v", resp, err)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}
