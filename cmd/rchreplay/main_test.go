package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rchdroid/internal/metrics"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

// runCmd runs the command in-process and returns exit code + output.
func runCmd(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// genLog writes a small workload log and returns its path.
func genLog(t *testing.T, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.log")
	args := append([]string{"-gen", path, "-seed", "7", "-devices", "3",
		"-span-ms", "600", "-events-per-device", "5"}, extra...)
	if code, _, errOut := runCmd(args...); code != 0 {
		t.Fatalf("gen exited %d\n%s", code, errOut)
	}
	return path
}

// TestGenReproducible: the same -gen flags write byte-identical logs,
// and the result decodes under the strict reader.
func TestGenReproducible(t *testing.T) {
	a, b := genLog(t), genLog(t)
	ba, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same -gen flags wrote different logs")
	}
	lg, err := workload.Decode(bytes.NewReader(ba))
	if err != nil {
		t.Fatalf("generated log does not decode: %v", err)
	}
	if lg.Header.Devices != 3 || lg.Header.SpanMS != 600 {
		t.Fatalf("header does not reflect flags: %+v", lg.Header)
	}
}

// TestReplayEmbeddedDeterministicMetrics replays one log through
// 1-shard and 3-shard embedded fleets: the canonical metrics dumps must
// byte-compare equal, and the SLO report must account for every event.
func TestReplayEmbeddedDeterministicMetrics(t *testing.T) {
	log := genLog(t)
	dir := t.TempDir()

	canon := func(shards string) []byte {
		mOut := filepath.Join(dir, "metrics-"+shards+".json")
		sOut := filepath.Join(dir, "slo-"+shards+".json")
		code, out, errOut := runCmd("-log", log, "-shards", shards, "-speed", "1000",
			"-metrics-out", mOut, "-slo-out", sOut)
		if code != 0 {
			t.Fatalf("replay -shards=%s exited %d\n%s", shards, code, errOut)
		}
		if !strings.Contains(out, "p99=") {
			t.Fatalf("summary missing percentiles:\n%s", out)
		}
		b, err := os.ReadFile(mOut)
		if err != nil {
			t.Fatal(err)
		}
		var rep workload.Report
		sb, _ := os.ReadFile(sOut)
		if err := json.Unmarshal(sb, &rep); err != nil {
			t.Fatalf("slo-out is not a report: %v", err)
		}
		var shed int64
		for _, n := range rep.Shed {
			shed += n
		}
		if rep.StepsOK+shed != int64(rep.Events) || rep.Boot.N == 0 {
			t.Fatalf("report accounting broken: %+v", rep)
		}
		if rep.Speed != 1000 || rep.Shed == nil {
			t.Fatalf("report missing its speed or shed map: %+v", rep)
		}
		for name, st := range map[string]metrics.DurationStats{"boot": rep.Boot, "flip": rep.Flip, "batch": rep.Batch} {
			if st.P99MS < st.P50MS {
				t.Fatalf("%s p99 %.3fms below p50 %.3fms", name, st.P99MS, st.P50MS)
			}
		}
		return b
	}
	if c1, c3 := canon("1"), canon("3"); !bytes.Equal(c1, c3) {
		t.Fatalf("canonical metrics differ across shard counts:\n%s\nvs\n%s", c1, c3)
	}
}

// TestReplayOverTCP is the wire-level path: a live serve listener, the
// replay dialing real sockets at 500x, SLO fields present in the
// output.
func TestReplayOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Shards: 3})
	done := make(chan error, 1)
	go func() { done <- srv.ServeListener(ln) }()
	defer func() {
		ln.Close()
		srv.Drain(10 * time.Second)
		<-done
	}()

	log := genLog(t)
	sloOut := filepath.Join(t.TempDir(), "slo.json")
	code, out, errOut := runCmd("-log", log, "-addr", ln.Addr().String(),
		"-speed", "500", "-window", "3", "-slo-out", sloOut)
	if code != 0 {
		t.Fatalf("replay over TCP exited %d\n%s", code, errOut)
	}
	if !strings.Contains(out, "boot") || !strings.Contains(out, "breaker_opens=") {
		t.Fatalf("summary missing SLO surface:\n%s", out)
	}
	var rep workload.Report
	b, _ := os.ReadFile(sloOut)
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("slo-out: %v", err)
	}
	if rep.StepsOK == 0 || rep.Boot.N != 3 {
		t.Fatalf("TCP replay did no work: %+v", rep)
	}
	if rep.AchievedSpeed < 10 {
		t.Fatalf("achieved %.1fx at requested 500x — pacing broken over TCP", rep.AchievedSpeed)
	}
}

// TestUsageErrors: malformed invocations exit 2 with a diagnostic.
func TestUsageErrors(t *testing.T) {
	log := genLog(t)
	cases := [][]string{
		{},                         // no -log
		{"-log", log, "stray-arg"}, // positional junk
	}
	for _, args := range cases {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}
