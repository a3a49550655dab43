package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/serve"
	"rchdroid/internal/sweep"
)

// syncBuffer is a bytes.Buffer safe for concurrent writes: the signal
// goroutine and the server goroutine both write to stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer runs the command in-process and waits for its bound
// address. The returned channel yields the exit code.
func startServer(t *testing.T, extra ...string) (addr string, codeCh chan int, errOut *syncBuffer) {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-listen=127.0.0.1:0", "-port-file=" + portFile}, extra...)
	errOut = &syncBuffer{}
	codeCh = make(chan int, 1)
	go func() {
		var out bytes.Buffer
		codeCh <- run(args, &out, errOut)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			return addr, codeCh, errOut
		}
		select {
		case code := <-codeCh:
			t.Fatalf("server exited %d before listening\nstderr:\n%s", code, errOut.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote its port file\nstderr:\n%s", errOut.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one wire connection: requests run serially, one reply line
// per request.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<20)}
}

func (c *client) do(t *testing.T, req serve.Request) serve.Response {
	t.Helper()
	resp, err := c.try(req)
	if err != nil {
		t.Fatalf("wire %s: %v", req.Op, err)
	}
	return resp
}

func (c *client) try(req serve.Request) (serve.Response, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return serve.Response{}, err
	}
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		return serve.Response{}, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return serve.Response{}, err
	}
	var resp serve.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return serve.Response{}, fmt.Errorf("bad reply line %q: %v", line, err)
	}
	return resp, nil
}

// metricValue digs one metric out of a stats reply's full dump, failing
// the test when the dump lacks it.
func metricValue(t *testing.T, raw json.RawMessage, name string) int64 {
	t.Helper()
	snap, err := obs.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("stats metrics do not decode: %v", err)
	}
	v, ok := snap.Value(name)
	if !ok {
		t.Fatalf("stats metrics lack %s", name)
	}
	return v
}

// TestChaosStormContainment is the fleet acceptance test over the real
// wire: boot panic-bomb devices on every shard alongside healthy ones,
// storm them (chaos bursts on the healthy devices, stock-relaunch
// rotations detonating every bomb), and require that each shard
// survives with correct panic counters, healthy devices keep serving,
// canary seeds still pass, overload sheds explicitly, and the canonical
// metrics dump byte-compares equal to rchsweep's over the same seeds.
// A final SIGTERM must drain clean (exit 0) and flush the artifacts.
func TestChaosStormContainment(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "serve.metrics.json")
	// -breaker-threshold high: this test wants every bomb to detonate
	// without quarantining a shard (the breaker ladder has its own test).
	addr, codeCh, errOut := startServer(t,
		"-shards=2", "-queue-depth=2", "-breaker-threshold=100",
		"-drain-timeout=10s", "-metrics-out="+metrics)
	c := dial(t, addr)

	// Boot bombs until both shards host at least one; the device name
	// decides the shard, so scatter names until coverage.
	bombs := map[int][]string{}
	for i := 0; len(bombs) < 2 && i < 32; i++ {
		name := fmt.Sprintf("bomb-%d", i)
		resp := c.do(t, serve.Request{Op: serve.OpBoot, Device: name,
			Spec: serve.SpecPanicRelaunch, Handler: serve.HandlerStock, Seed: uint64(i)})
		if !resp.OK {
			t.Fatalf("bomb boot failed: %+v", resp)
		}
		bombs[resp.Shard] = append(bombs[resp.Shard], name)
	}
	if len(bombs) < 2 {
		t.Fatalf("bombs never covered both shards: %v", bombs)
	}

	// Healthy RCH-handled devices beside them.
	healthy := []string{"h-alpha", "h-beta", "h-gamma", "h-delta"}
	for i, name := range healthy {
		resp := c.do(t, serve.Request{Op: serve.OpBoot, Device: name, Seed: uint64(100 + i)})
		if !resp.OK {
			t.Fatalf("healthy boot failed: %+v", resp)
		}
	}

	// Chaos storm on the healthy fleet.
	for i, name := range healthy {
		resp := c.do(t, serve.Request{Op: serve.OpDrive, Device: name, Kind: serve.KindChaos, Seed: uint64(7 + i)})
		if !resp.OK {
			t.Fatalf("chaos burst on %s failed: %+v", name, resp)
		}
	}

	// Detonate every bomb: a stock-handled rotation relaunches with saved
	// state, whose OnCreate panics. Containment means the reply is an
	// explicit device_panic — not a dead shard.
	detonated := 0
	for _, names := range bombs {
		for _, name := range names {
			resp := c.do(t, serve.Request{Op: serve.OpDrive, Device: name, Kind: serve.KindRotate})
			if resp.OK || resp.Code != serve.CodeDevicePanic {
				t.Fatalf("bomb %s did not report a contained panic: %+v", name, resp)
			}
			detonated++
		}
	}

	// Every shard survived: healthy devices still serve rotations.
	for _, name := range healthy {
		resp := c.do(t, serve.Request{Op: serve.OpDrive, Device: name, Kind: serve.KindRotate})
		if !resp.OK {
			t.Fatalf("healthy %s stopped serving after the storm: %+v", name, resp)
		}
	}
	health := c.do(t, serve.Request{Op: serve.OpHealth})
	if !health.OK || len(health.Shards) != 2 {
		t.Fatalf("fleet not healthy after the storm: %+v", health)
	}
	for _, sh := range health.Shards {
		if sh.State != "serving" {
			t.Fatalf("shard %d left %q after the storm: %+v", sh.Shard, sh.State, health)
		}
	}

	// Canary seeds 1..8 through the sweep runner.
	const canaries = 8
	for seed := uint64(1); seed <= canaries; seed++ {
		resp := c.do(t, serve.Request{Op: serve.OpCanary, Seed: seed})
		if !resp.OK {
			t.Fatalf("canary seed %d failed: %+v", seed, resp)
		}
	}

	// Overload: more concurrent stalls than 2 shards × (queue 2 + 1
	// in-flight) can hold — some must shed with the explicit code.
	const stalls = 16
	codes := make(chan serve.ErrCode, stalls)
	var wg sync.WaitGroup
	for i := 0; i < stalls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := dial(t, addr)
			resp, err := cc.try(serve.Request{Op: serve.OpDrive, Kind: serve.KindSleep, Millis: 60})
			if err == nil {
				codes <- resp.Code
			}
		}()
	}
	wg.Wait()
	close(codes)
	shed := 0
	for code := range codes {
		if code == serve.CodeOverloaded {
			shed++
		}
	}
	if shed == 0 {
		t.Fatalf("%d concurrent stalls against depth-2 queues shed nothing", stalls)
	}

	stats := c.do(t, serve.Request{Op: serve.OpStats})
	if !stats.OK {
		t.Fatalf("stats failed: %+v", stats)
	}
	if got := metricValue(t, stats.Metrics, "serve_device_panics_total"); got != int64(detonated) {
		t.Fatalf("serve_device_panics_total = %d, want %d", got, detonated)
	}
	if got := metricValue(t, stats.Metrics, "serve_shed_overload_total"); got != int64(shed) {
		t.Fatalf("serve_shed_overload_total = %d, want %d", got, shed)
	}

	// The canonical dump must byte-compare equal to rchsweep's over the
	// same canary seeds: resident devices, panics, chaos storms, and
	// sheds are all wall-domain and leave no trace on the canonical
	// surface. Compare compacted (the wire encoder compacts the dump).
	reg := obs.NewRegistry()
	sweep.RunObs(sweep.Config{Mode: "oracle", Start: 1, Count: canaries, Workers: 2, Obs: reg},
		sweep.OracleRunnerForked(device.NewTemplateCache()))
	var want bytes.Buffer
	if err := json.Compact(&want, reg.Snapshot().MarshalCanonical()); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, stats.Canonical); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("fleet canonical dump differs from rchsweep over the same seeds\n--- rchsweep\n%s\n--- rchserve\n%s",
			want.Bytes(), got.Bytes())
	}

	// SIGTERM: clean drain, exit 0, artifacts flushed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("drain exited %d, want 0\nstderr:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not drain after SIGTERM\nstderr:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "clean drain") {
		t.Fatalf("missing clean-drain verdict:\n%s", errOut.String())
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics artifact not flushed on drain: %v", err)
	}
	if _, err := obs.DecodeSnapshot(raw); err != nil {
		t.Fatalf("flushed metrics do not decode: %v", err)
	}
}

// TestForcedAbortExitCode pins exit status 3: a drain whose deadline
// expires with work still in flight is a forced abort, distinct from a
// clean drain (0) and from errors (1).
func TestForcedAbortExitCode(t *testing.T) {
	addr, codeCh, errOut := startServer(t, "-shards=1", "-drain-timeout=50ms")

	// Park two long stalls: one runs, one queues; the drain deadline is
	// far shorter than either.
	replies := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cc := dial(t, addr)
			_, err := cc.try(serve.Request{Op: serve.OpDrive, Kind: serve.KindSleep, Millis: 2000})
			replies <- err
		}()
	}
	// Wait until the stalls are in the shard before signalling.
	c := dial(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := c.do(t, serve.Request{Op: serve.OpHealth})
		busy := 0
		for _, sh := range h.Shards {
			busy += sh.QueueLen
		}
		if busy >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalls never queued\nstderr:\n%s", errOut.String())
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codeCh:
		if code != 3 {
			t.Fatalf("forced abort exited %d, want 3\nstderr:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server never exited after SIGTERM\nstderr:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "forced abort") {
		t.Fatalf("missing forced-abort verdict:\n%s", errOut.String())
	}
}

// TestUsageErrors pins exit 2 for bad flags.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	errOut := &syncBuffer{}
	if code := run([]string{"-no-such-flag"}, &out, errOut); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
	if code := run([]string{"-drain-timeout=0s"}, &out, errOut); code != 2 {
		t.Fatalf("zero drain-timeout exited %d, want 2", code)
	}
	if code := run([]string{"stray"}, &out, errOut); code != 2 {
		t.Fatalf("stray argument exited %d, want 2", code)
	}
}

// TestBadLineGetsExplicitReply checks the wire rejects garbage and an
// oversize (over 1 MiB) request line with an explicit reply, without
// dropping the connection.
func TestBadLineGetsExplicitReply(t *testing.T) {
	addr, codeCh, errOut := startServer(t, "-shards=1")
	c := dial(t, addr)
	oversize := `{"op":"boot","device":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, bad := range []string{"not json", oversize} {
		if _, err := c.conn.Write([]byte(bad + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%d-byte bad line: %v", len(bad), err)
		}
		var resp serve.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != serve.CodeBadRequest {
			t.Fatalf("%d-byte bad line got %+v, want bad_request", len(bad), resp)
		}
		// The connection still works.
		if h := c.do(t, serve.Request{Op: serve.OpHealth}); !h.OK {
			t.Fatalf("connection dead after a %d-byte bad line: %+v", len(bad), h)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("drain exited %d, want 0\nstderr:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}
