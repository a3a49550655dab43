package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// FuzzServeConn writes arbitrary bytes, split into lines, to one
// connection of a one-shard server over net.Pipe. Every non-empty line
// must get exactly one reply line, in order, that decodes as a Response;
// a decodable request's reply echoes its ID. A line that does not decode
// as a Request, or runs over maxLine, gets bad_request with Shard -1,
// and the connection keeps serving: a health request sent after the
// last line must get the next reply.
//
// To bound one exec's cost, the harness clamps a decodable request's
// sleep (millis) to 2 ms and its monkey burst (events) to 20, for the
// request and each batch step, re-encoding only a line it changed.
// Values outside the admission bounds stay as they are, so refusal
// stays reachable; every other line is written as the fuzzer made it.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte(`{"id":"b","op":"boot","device":"d0","seed":3}` + "\n"))
	f.Add([]byte(`{"op":"boot","device":"d0","seed":3}` + "\n" +
		`{"id":"r","op":"drive","device":"d0","kind":"rotate"}` + "\r\n"))
	f.Add([]byte(`{"id":"e","op":"batch"}` + "\n"))
	f.Add([]byte(`{"op":"batch","batch":[{"device":"d0","kind":"sleep","millis":-1},` +
		`{"device":"d0","kind":"monkey","events":20000},{"device":"d0","kind":"sleep","millis":5}]}` + "\n"))
	f.Add([]byte("{not json\n\n\r\n{\"op\":\"health\"}"))
	f.Add([]byte(strings.Repeat("x", maxLine+1) + "\n" + `{"id":"h","op":"health"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Config{Shards: 1})
		defer s.Drain(10 * time.Second)
		client, server := net.Pipe()
		defer client.Close()
		go s.serveConn(server)

		type expect struct {
			bad bool   // bad_request, Shard -1
			id  string // echoed ID of a decodable request
		}
		var wire bytes.Buffer
		var want []expect
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			content := bytes.TrimSuffix(line, []byte{'\r'})
			var req Request
			switch {
			case len(line)+1 > maxLine:
				want = append(want, expect{bad: true})
			case len(content) == 0:
			case json.Unmarshal(content, &req) != nil:
				want = append(want, expect{bad: true})
			default:
				if clampBurst(&req) {
					line, _ = json.Marshal(&req)
				}
				want = append(want, expect{id: req.ID})
			}
			wire.Write(line)
			wire.WriteByte('\n')
		}
		const sentinel = "\x00fuzz-sentinel"
		wire.WriteString(`{"op":"health","id":"\u0000fuzz-sentinel"}` + "\n")
		want = append(want, expect{id: sentinel})

		writeErr := make(chan error, 1)
		go func() {
			_, err := client.Write(wire.Bytes())
			writeErr <- err
		}()
		client.SetReadDeadline(time.Now().Add(30 * time.Second))
		r := bufio.NewReaderSize(client, 64*1024)
		for i, w := range want {
			reply, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(want), err)
			}
			var resp Response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply %d does not decode as a Response: %v: %q", i+1, err, reply)
			}
			if w.bad && (resp.Code != CodeBadRequest || resp.Shard != -1 || resp.OK) {
				t.Fatalf("reply %d to an undecodable or over-long line: %+v, want bad_request on shard -1", i+1, resp)
			}
			if !w.bad && resp.ID != w.id {
				t.Fatalf("reply %d echoes ID %q, want %q: a reply is missing or extra", i+1, resp.ID, w.id)
			}
		}
		if err := <-writeErr; err != nil {
			t.Fatalf("write: %v", err)
		}
	})
}

// clampBurst lowers an in-bounds sleep to 2 ms and an in-bounds monkey
// burst to 20 events, on the request and on each batch step, and
// reports whether it changed anything.
func clampBurst(req *Request) bool {
	changed := false
	clamp := func(v *int, to, bound int) {
		if *v > to && *v <= bound {
			*v, changed = to, true
		}
	}
	clamp(&req.Millis, 2, MaxSleepMillis)
	clamp(&req.Events, 20, MaxBurstEvents)
	for i := range req.Batch {
		clamp(&req.Batch[i].Millis, 2, MaxSleepMillis)
		clamp(&req.Batch[i].Events, 20, MaxBurstEvents)
	}
	return changed
}
