// Command fleetprobe is the client half of the scripts/ci.sh fleet
// stage: it drives a running rchserve over the line-delimited JSON wire
// API and asserts the robustness contract end to end against the real
// binary — boot a small fleet, storm one device with the
// panic-on-relaunch spec and require every panic to come back contained,
// provoke a deadline shed, run canary seeds, then check the merged
// counters and per-shard health. Any violated expectation exits
// non-zero with a diagnostic; the ci stage follows up with SIGTERM and
// asserts the clean drain separately.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rchdroid/internal/obs"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

// storms is how many rotations hit the panic-on-relaunch device. The
// ci stage starts rchserve with -breaker-threshold above this so the
// stage tests containment, not quarantine (the breaker ladder has its
// own tests in internal/serve).
const storms = 6

func main() {
	addr := flag.String("addr", "", "rchserve address (host:port), e.g. from its -port-file")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "fleetprobe: -addr is required")
		os.Exit(2)
	}
	if err := probe(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "fleetprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fleetprobe: fleet contract holds (%d contained panics, deadline shed, all shards serving)\n", storms)
}

func probe(addr string) error {
	dial := workload.TCPDialer(addr)
	c, err := dial()
	if err != nil {
		return err
	}
	defer c.Close()

	// A small resident fleet on the default oracle spec.
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("d%d", i)
		r, err := c.Call(serve.Request{Op: serve.OpBoot, Device: name, Seed: uint64(i)})
		if err != nil {
			return fmt.Errorf("boot %s: %v", name, err)
		}
		if !r.OK {
			return fmt.Errorf("boot %s refused: code=%s detail=%s", name, r.Code, r.Detail)
		}
	}

	// The chaos storm: a device whose app panics (a real Go panic, not a
	// simulated crash) on every stock-routed relaunch. Each rotation must
	// come back as a contained device_panic reply on a live connection —
	// a dropped connection here means the panic escaped the shard.
	if r, err := c.Call(serve.Request{Op: serve.OpBoot, Device: "storm",
		Spec: serve.SpecPanicRelaunch, Handler: serve.HandlerStock, Seed: 99}); err != nil || !r.OK {
		return fmt.Errorf("boot storm device: err=%v code=%s detail=%s", err, r.Code, r.Detail)
	}
	for i := 0; i < storms; i++ {
		r, err := c.Call(serve.Request{Op: serve.OpDrive, Device: "storm", Kind: serve.KindRotate})
		if err != nil {
			return fmt.Errorf("storm rotation %d: connection died — panic escaped containment: %v", i+1, err)
		}
		if r.OK || r.Code != serve.CodeDevicePanic {
			return fmt.Errorf("storm rotation %d: want contained device_panic, got ok=%v code=%s detail=%s",
				i+1, r.OK, r.Code, r.Detail)
		}
	}

	// The storm's shard — and every other — must still serve its healthy
	// devices.
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("d%d", i)
		r, err := c.Call(serve.Request{Op: serve.OpDrive, Device: name, Kind: serve.KindRotate})
		if err != nil {
			return fmt.Errorf("post-storm rotate %s: %v", name, err)
		}
		if !r.OK {
			return fmt.Errorf("post-storm rotate %s refused: code=%s detail=%s — shard did not survive the storm", name, r.Code, r.Detail)
		}
	}

	// Deadline shed: jam one shard with a wall stall from a second
	// connection, then queue a request behind it on the same device name
	// (same name → same shard). It must be shed with the explicit
	// deadline code, not served late. The stall (600ms) dwarfs the ci
	// stage's -deadline (200ms), so the queue wait is over budget by
	// construction.
	c2, err := dial()
	if err != nil {
		return err
	}
	defer c2.Close()
	stalled := make(chan error, 1)
	go func() {
		r, err := c2.Call(serve.Request{Op: serve.OpDrive, Device: "z", Kind: serve.KindSleep, Millis: 600})
		if err == nil && !r.OK {
			err = fmt.Errorf("code=%s detail=%s", r.Code, r.Detail)
		}
		stalled <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the stall reach the shard goroutine
	r, err := c.Call(serve.Request{Op: serve.OpDrive, Device: "z", Kind: serve.KindSleep, Millis: 1})
	if err != nil {
		return fmt.Errorf("queued-behind-stall request: %v", err)
	}
	if r.OK || r.Code != serve.CodeDeadline {
		return fmt.Errorf("request queued behind a 600ms stall: want deadline shed, got ok=%v code=%s detail=%s",
			r.OK, r.Code, r.Detail)
	}
	if err := <-stalled; err != nil {
		return fmt.Errorf("stall reply: %v", err)
	}

	// Canary seeds record through the sweep runners; the cmd/rchserve
	// tests assert their canonical dump byte-compares to rchsweep's, so
	// here they just have to pass.
	for _, seed := range []uint64{1, 2} {
		r, err := c.Call(serve.Request{Op: serve.OpCanary, Seed: seed})
		if err != nil {
			return fmt.Errorf("canary %d: %v", seed, err)
		}
		if !r.OK {
			return fmt.Errorf("canary seed %d failed: %s %v", seed, r.Detail, r.Failures)
		}
	}

	// The merged counters must account for exactly what happened.
	stats, err := c.Call(serve.Request{Op: serve.OpStats})
	if err != nil {
		return fmt.Errorf("stats: %v", err)
	}
	if !stats.OK {
		return fmt.Errorf("stats refused: code=%s detail=%s", stats.Code, stats.Detail)
	}
	snap, err := obs.DecodeSnapshot(stats.Metrics)
	if err != nil {
		return fmt.Errorf("stats metrics: %v", err)
	}
	// An absent counter reads 0, which fails every check below.
	if n, _ := snap.Value("serve_device_panics_total"); n != storms {
		return fmt.Errorf("serve_device_panics_total = %d, want exactly %d", n, storms)
	}
	if n, _ := snap.Value("serve_device_respawns_total"); n != storms {
		return fmt.Errorf("serve_device_respawns_total = %d, want exactly %d (ci runs with -respawn)", n, storms)
	}
	if n, _ := snap.Value("serve_shed_deadline_total"); n < 1 {
		return fmt.Errorf("serve_shed_deadline_total = %d, want ≥ 1", n)
	}
	if n, _ := snap.Value("serve_requests_total"); n < storms+4+4+1 {
		return fmt.Errorf("serve_requests_total = %d, implausibly low", n)
	}

	// Health: every shard serving, the fleet still 5 devices strong
	// (d1..d4 plus the respawned storm device).
	health, err := c.Call(serve.Request{Op: serve.OpHealth})
	if err != nil {
		return fmt.Errorf("health: %v", err)
	}
	if !health.OK {
		return fmt.Errorf("health not ready: code=%s detail=%s", health.Code, health.Detail)
	}
	devices := 0
	for _, sh := range health.Shards {
		if sh.State != "serving" {
			return fmt.Errorf("shard %d ended %q, want serving (storm must not quarantine under ci's breaker threshold)", sh.Shard, sh.State)
		}
		devices += sh.Devices
	}
	if devices != 5 {
		return fmt.Errorf("fleet has %d resident devices, want 5 (d1..d4 + respawned storm)", devices)
	}
	return nil
}
