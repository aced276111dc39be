package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"colocmodel/internal/obs"
)

// maxIdlePerBackend caps the idle keep-alive connections the router
// keeps to one backend; a connection returned past it is closed.
const maxIdlePerBackend = 128

// maxRetainedWrite caps the write buffer a connection keeps between
// calls: a 64 MiB batch is written from a buffer that is then dropped.
const maxRetainedWrite = 64 << 10

// aLongTimeAgo is a deadline that has passed: set on a connection, it
// makes a blocked read or write return at once.
var aLongTimeAgo = time.Unix(1, 0)

// backendConn is one HTTP/1.1 keep-alive connection to a backend. A call
// renders its request into wbuf and writes it in one Write, then parses
// the reply from br with http.ReadResponse on the caller's goroutine:
// no goroutine of its own reads or writes it.
type backendConn struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte
	// raw is the socket under Conn, for the reuse check (nil: Conn is no
	// socket, and only its buffered bytes are checked).
	raw    syscall.RawConn
	open   bool          // what the last peek found
	peekFn func(uintptr) // peek, bound once
	// expire ends a blocked exchange when its caller leaves, bound once
	// so a call registers it without allocating it.
	expire func()
	body   eofBody
}

func newBackendConn(c, sock net.Conn) *backendConn {
	bc := &backendConn{Conn: c, br: bufio.NewReader(c)}
	if sc, ok := sock.(syscall.Conn); ok {
		bc.raw, _ = sc.SyscallConn() // a TCP connection always has one
	}
	bc.peekFn = bc.peek
	bc.expire = func() { _ = c.SetDeadline(aLongTimeAgo) }
	return bc
}

// peek records whether the socket fd is open with nothing unread.
func (bc *backendConn) peek(fd uintptr) { bc.open = socketIdle(fd) }

// reusable reports whether an idle connection may carry another call:
// open, with nothing unread. Nothing reads an idle connection in the
// background, so this is where a backend that closed it (a drain, a
// restart) is noticed, before a request is written to it.
func (bc *backendConn) reusable() bool {
	if bc.br.Buffered() > 0 {
		return false
	}
	if bc.raw == nil {
		return true
	}
	bc.open = false
	return bc.raw.Control(bc.peekFn) == nil && bc.open
}

// eofBody is a reply body that records whether it was read to its end,
// the one state in which its connection may carry another call. Its
// Close does nothing: a body that was not read to its end is not
// drained, its connection is closed.
type eofBody struct {
	r   io.Reader
	eof bool
}

func (e *eofBody) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.eof = true
	}
	return n, err
}

func (*eofBody) Close() error { return nil }

// exchange is one backend call in progress on a connection of b's.
type exchange struct {
	b    *Backend
	bc   *backendConn
	stop func() bool // unregisters bc.expire from the caller's context; nil when it has none
	resp *http.Response
}

// roundTrip makes one call to b: the request line, the headers and body
// in one write on a pooled connection (or one dialled for it), and the
// reply's status and headers parsed on this goroutine. The connection
// carries deadline, and ctx's end expires it at once. Its error is the
// *url.Error http.Client.Do returns for the same request. On success the
// caller reads resp.Body and then calls done.
func (p *Pool) roundTrip(ctx context.Context, deadline time.Time, b *Backend, method, path string, body []byte,
	reqID, tp string) (ex exchange, err error) {
	ex.b = b
	if err = ctx.Err(); err != nil {
		return ex, callError(b, method, path, err)
	}
	if !validHeaderValue(reqID) {
		return ex, callError(b, method, path, errors.New(`net/http: invalid header field value for "`+obs.RequestIDHeader+`"`))
	}
	if ex.bc, err = p.conn(ctx, deadline, b); err != nil {
		return ex, callError(b, method, path, cause(ctx, err))
	}
	if err = ex.bc.SetDeadline(deadline); err == nil {
		if ctx.Done() != nil {
			ex.stop = context.AfterFunc(ctx, ex.bc.expire)
		}
		err = ex.write(method, path, body, reqID, tp)
	}
	// A backend that closes without a byte of reply fails the call with
	// a bare io.EOF, as the Transport's own peek ahead of its parse does.
	if err == nil {
		if _, err = ex.bc.br.Peek(1); err == nil {
			ex.resp, err = http.ReadResponse(ex.bc.br, nil)
		}
	}
	if err != nil {
		ex.done()
		return ex, callError(b, method, path, cause(ctx, err))
	}
	ex.bc.body = eofBody{r: ex.resp.Body}
	ex.resp.Body = &ex.bc.body
	return ex, nil
}

// write renders the request as http.NewRequest(method, Base+path) with
// the router's headers would go on the wire, and writes it in one Write.
func (ex *exchange) write(method, path string, body []byte, reqID, tp string) error {
	b, w := ex.b, ex.bc.wbuf[:0]
	w = append(append(append(append(w, method...), ' '), b.reqPath...), path...)
	w = append(append(w, " HTTP/1.1\r\nHost: "...), b.url.Host...)
	if len(body) > 0 || method == http.MethodPost {
		w = strconv.AppendInt(append(w, "\r\nContent-Length: "...), int64(len(body)), 10)
	}
	w = append(append(w, "\r\nContent-Type: application/json\r\n"+obs.RequestIDHeader+": "...), reqID...)
	if tp != "" {
		w = append(append(w, "\r\n"+obs.TraceparentHeader+": "...), tp...)
	}
	if b.auth != nil {
		w = append(append(w, "\r\nAuthorization: "...), b.auth[0]...)
	}
	w = append(append(w, "\r\n\r\n"...), body...)
	_, err := ex.bc.Write(w)
	if cap(w) > maxRetainedWrite {
		w = nil
	}
	ex.bc.wbuf = w
	return err
}

// done ends the call: the connection goes back to b's idle list when its
// reply was read to the end, neither side asked to close it and the
// caller's leaving did not expire it; otherwise it is closed.
func (ex *exchange) done() {
	expired := ex.stop != nil && !ex.stop()
	if expired || ex.resp == nil || ex.resp.Close || !ex.bc.body.eof || ex.bc.br.Buffered() > 0 {
		_ = ex.bc.Close()
		return
	}
	ex.b.idleMu.Lock()
	if len(ex.b.idle) < maxIdlePerBackend {
		ex.b.idle = append(ex.b.idle, ex.bc)
		ex.bc = nil
	}
	ex.b.idleMu.Unlock()
	if ex.bc != nil {
		_ = ex.bc.Close()
	}
}

// conn takes b's most recently pooled connection that is still
// reusable, closing any that are not, or dials a new one.
func (p *Pool) conn(ctx context.Context, deadline time.Time, b *Backend) (*backendConn, error) {
	for {
		b.idleMu.Lock()
		n := len(b.idle)
		if n == 0 {
			b.idleMu.Unlock()
			return p.dialBackend(ctx, deadline, b)
		}
		bc := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.idleMu.Unlock()
		if bc.reusable() {
			return bc, nil
		}
		_ = bc.Close()
	}
}

// dialBackend opens a connection to b, bounded by deadline and ctx: TCP,
// and TLS over it (HTTP/1.1 only) for an https base, under the
// TLSClientConfig of Config.Client's transport when it has one.
func (p *Pool) dialBackend(ctx context.Context, deadline time.Time, b *Backend) (*backendConn, error) {
	switch {
	case b.url.Scheme != "http" && b.url.Scheme != "https":
		return nil, errors.New("unsupported protocol scheme " + strconv.Quote(b.url.Scheme))
	case b.url.Host == "":
		return nil, errors.New("http: no Host in request URL")
	}
	port := b.url.Port()
	if port == "" {
		port = map[string]string{"http": "80", "https": "443"}[b.url.Scheme]
	}
	sock, err := p.dial(ctx, deadline, net.JoinHostPort(b.url.Hostname(), port))
	if err != nil {
		return nil, err
	}
	c := sock
	if b.url.Scheme == "https" {
		cfg := &tls.Config{}
		if p.tlsConfig != nil {
			cfg = p.tlsConfig.Clone()
		}
		if cfg.ServerName == "" {
			cfg.ServerName = b.url.Hostname()
		}
		cfg.NextProtos = nil
		tc := tls.Client(sock, cfg)
		if err = sock.SetDeadline(deadline); err == nil {
			err = tc.HandshakeContext(ctx)
		}
		if err != nil {
			_ = sock.Close()
			return nil, err
		}
		c = tc
	}
	return newBackendConn(c, sock), nil
}

// dialTCP is the pool's dial: TCP to addr, bounded by deadline and ctx.
func dialTCP(ctx context.Context, deadline time.Time, addr string) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.DialContext(ctx, "tcp", addr)
}

// closeIdle closes every backend's idle connections.
func (p *Pool) closeIdle() {
	for _, b := range p.members() {
		b.idleMu.Lock()
		idle := b.idle
		b.idle = nil
		b.idleMu.Unlock()
		for _, bc := range idle {
			_ = bc.Close()
		}
	}
}

// cause names what cut a call short as net/http's Transport names it:
// the caller's leaving as the context's error, and the request deadline
// as context.DeadlineExceeded rather than the connection's i/o timeout.
func cause(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// callError wraps a failed call in the *url.Error http.Client.Do returns
// for the same request, password masked, so its text is Client.Do's.
func callError(b *Backend, method, path string, err error) error {
	if tlsErr, ok := err.(tls.RecordHeaderError); ok && string(tlsErr.RecordHeader[:]) == "HTTP/" {
		err = http.ErrSchemeMismatch
	}
	u := *b.url
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	target := u.String()
	if _, ok := u.User.Password(); ok {
		target = strings.Replace(target, u.User.String()+"@", u.User.Username()+":***@", 1)
	}
	return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: target, Err: err}
}

// validHeaderValue reports whether v may be sent as a header value as
// net/http's Transport judges it: no control byte but tab.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}
