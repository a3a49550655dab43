package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
)

// ServeListener accepts connections and speaks the line-delimited JSON
// protocol on each: one request per line, one reply line per request,
// in order. It returns nil when the listener is closed during drain,
// the accept error otherwise.
func (s *Server) ServeListener(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// maxLine bounds one request line. A longer line is read to its
// newline, dropped, and answered bad_request; the connection keeps
// serving.
const maxLine = 1 << 20

// serveConn handles one client. Requests on a connection run serially;
// clients that want parallelism open more connections — each in-flight
// request costs one parked goroutine here, and real concurrency is the
// shard pool's business. Lines go through the wire codec (codec.go); a
// reply it declines is written by json.Encoder.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	enc := json.NewEncoder(conn)
	var out []byte
	for {
		line, tooLong, err := readLine(r)
		if err != nil {
			return
		}
		if len(line) == 0 && !tooLong {
			continue
		}
		var req Request
		var resp Response
		if tooLong {
			resp = Response{OK: false, Code: CodeBadRequest, Shard: -1,
				Detail: fmt.Sprintf("bad request line: longer than %d bytes", maxLine)}
		} else if err := DecodeRequest(line, &req); err != nil {
			resp = Response{OK: false, Code: CodeBadRequest, Shard: -1, Detail: "bad request line: " + err.Error()}
		} else {
			resp = s.Submit(req)
		}
		if reply, ok := AppendResponse(out[:0], &resp); ok {
			out = reply
			_, err = conn.Write(reply)
		} else {
			err = enc.Encode(&resp)
		}
		if err != nil {
			return
		}
	}
}

// readLine returns the next line without its newline or a carriage
// return before it. A line that fits the reader's buffer is returned in
// place, valid until the next read; a longer one is gathered into a
// fresh slice. tooLong reports a line over maxLine, consumed and
// dropped. A final line without a newline is still returned; err is set
// only once no line is left.
func readLine(r *bufio.Reader) (line []byte, tooLong bool, err error) {
	line, err = r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf, n := append([]byte(nil), line...), len(line)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			if n += len(line); n <= maxLine {
				buf = append(buf, line...)
			}
		}
		if n > maxLine {
			return nil, true, nil
		}
		line = buf
	}
	if err != nil && len(line) == 0 {
		return nil, false, err
	}
	line = bytes.TrimSuffix(line, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), false, nil
}
