package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
)

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine:
// write the request, read the reply, drain the body. It uses net/http's
// own wire codec but not http.Transport, whose per-connection read and
// write goroutines would add two scheduler hand-offs per request on a
// 2-core box — cost that belongs to the harness, not to femuxd.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	host string
	body bytes.Buffer // last response body, valid until the next do
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c), host: addr}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends one request and returns the status; the body is in c.body.
func (c *conn) do(method, path string, body []byte) (int, error) {
	u, err := url.ParseRequestURI(path)
	if err != nil {
		return 0, err
	}
	req := &http.Request{
		Method: method, URL: u, Host: c.host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{},
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	if err := req.Write(c.bw); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}
