package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"rchdroid/internal/serve"
)

// LocalDialer returns a Dialer that submits straight into an in-process
// server — the same engine code path as TCP minus the socket, which is
// what the determinism tests replay against.
func LocalDialer(s *serve.Server) Dialer {
	return func() (Caller, error) {
		return localCaller{s: s}, nil
	}
}

type localCaller struct{ s *serve.Server }

func (c localCaller) Call(req serve.Request) (serve.Response, error) {
	return c.s.Submit(req), nil
}

func (c localCaller) Close() error { return nil }

// TCPDialer returns a Dialer speaking the line-delimited JSON wire
// protocol to a live rchserve at addr.
func TCPDialer(addr string) Dialer {
	return func() (Caller, error) {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(conn)
		// Stats replies carry the full merged snapshot on one line.
		sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
		return &tcpCaller{conn: conn, enc: json.NewEncoder(conn), sc: sc}, nil
	}
}

// tcpCaller speaks through serve's wire codec; a request the codec
// declines is written by json.Encoder.
type tcpCaller struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
	out  []byte
}

func (c *tcpCaller) Call(req serve.Request) (serve.Response, error) {
	var err error
	if line, ok := serve.AppendRequest(c.out[:0], &req); ok {
		c.out = line
		_, err = c.conn.Write(line)
	} else {
		err = c.enc.Encode(req)
	}
	if err != nil {
		return serve.Response{}, fmt.Errorf("send: %w", err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return serve.Response{}, fmt.Errorf("recv: %w", err)
		}
		return serve.Response{}, fmt.Errorf("recv: connection closed")
	}
	var resp serve.Response
	if err := serve.DecodeResponse(c.sc.Bytes(), &resp); err != nil {
		return serve.Response{}, fmt.Errorf("recv: %w", err)
	}
	return resp, nil
}

func (c *tcpCaller) Close() error { return c.conn.Close() }
