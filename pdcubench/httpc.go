package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection.
// The load generator uses it instead of net/http so that the client's
// own cost per request stays small next to the server's on a machine
// whose CPUs the two share. It speaks only what pdcu serve answers:
// Content-Length or chunked bodies, and bodiless 304s.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request buffer, reused
	body []byte // response body buffer, reused
}

// response is the part of a reply the generator checks; the body is
// read into the connection's buffer and dropped.
type response struct {
	status int
	gen    string // Pdcu-Generation
}

func dial(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the reply. A request that fails on a
// reused connection is retried once on a fresh one, since the server
// may have closed an idle connection.
func (c *conn) do(method, target, etag, body string) (response, error) {
	fresh := c.c == nil
	resp, err := c.roundTrip(method, target, etag, body)
	if err != nil && !fresh {
		c.close()
		resp, err = c.roundTrip(method, target, etag, body)
	}
	if err != nil {
		c.close()
	}
	return resp, err
}

func (c *conn) roundTrip(method, target, etag, body string) (response, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return response{}, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 32<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return response{}, err
	}
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, target...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.addr...)
	r = append(r, "\r\nAccept-Encoding: gzip\r\n"...)
	if etag != "" {
		r = append(r, "If-None-Match: "...)
		r = append(r, etag...)
		r = append(r, "\r\n"...)
	}
	if body != "" {
		r = append(r, "Content-Type: text/markdown\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
		r = append(r, "\r\n"...)
	}
	r = append(r, "\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.c.Write(r); err != nil {
		return response{}, err
	}
	return c.readResponse(method == "HEAD")
}

var errMalformed = errors.New("malformed HTTP response")

func (c *conn) readResponse(head bool) (response, error) {
	var resp response
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return resp, errMalformed
	}
	resp.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return resp, errMalformed
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			return resp, errMalformed
		}
		name, val := line[:i], bytes.TrimSpace(line[i+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return resp, errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		case bytes.EqualFold(name, []byte("Pdcu-Generation")):
			resp.gen = string(val)
		}
	}
	c.body = c.body[:0]
	switch {
	case head || resp.status == 304 || resp.status == 204 || resp.status < 200:
	case chunked:
		if err := c.readChunked(); err != nil {
			return resp, err
		}
	case length >= 0:
		if cap(c.body) < length {
			c.body = make([]byte, length)
		}
		c.body = c.body[:length]
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return resp, err
		}
	default:
		b, err := io.ReadAll(c.br)
		if err != nil {
			return resp, err
		}
		c.body = b
		closing = true
	}
	if closing {
		c.close()
	}
	return resp, nil
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 32)
		if err != nil {
			return fmt.Errorf("chunk size %q: %w", line, err)
		}
		if n == 0 {
			for { // trailer section up to the blank line
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		start := len(c.body)
		c.body = append(c.body, make([]byte, n)...)
		if _, err := io.ReadFull(c.br, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}
