package serve

import (
	"fmt"
	"testing"
	"time"
)

// fnv32a is an independent reimplementation (straight from the FNV
// constants) so the routing pin does not share code with route itself.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// TestRoutePinsShardSelection pins the device→shard mapping: the FNV-1a
// hash reduced by *unsigned* modulo. The pre-fix code computed
// int(h.Sum32()) % len(shards), which goes negative for half the hash
// space wherever int is 32 bits and panics the slice index; the pin
// includes device names whose hash has the top bit set so the signed
// variant cannot sneak back in unnoticed.
func TestRoutePinsShardSelection(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Drain(5 * time.Second)

	names := []string{"d1", "d2", "storm", "bomb-0", "h-alpha", "z"}
	// Extend with generated names until at least three have the top hash
	// bit set (int32-negative territory).
	high := 0
	for i := 0; high < 3 && i < 1024; i++ {
		n := fmt.Sprintf("gen-%d", i)
		if fnv32a(n)&0x80000000 != 0 {
			names = append(names, n)
			high++
		}
	}
	if high < 3 {
		t.Fatal("no generated names with the top hash bit set — widen the search")
	}
	for _, name := range names {
		want := int(fnv32a(name) % uint32(len(s.shards)))
		got := s.route(Request{Device: name}).idx
		if got != want {
			t.Errorf("route(%q) = shard %d, want %d (fnv32a=%#x)", name, got, want, fnv32a(name))
		}
		if got != ShardIndex(name, len(s.shards)) {
			t.Errorf("route(%q) disagrees with ShardIndex", name)
		}
	}
}

// TestRouteRoundRobinWrap pins the deviceless round-robin path against
// counter wrap: with the counter parked just below 2^64 the pre-fix
// int(rr.Add(1)-1) % len(shards) produced a negative index and panicked.
func TestRouteRoundRobinWrap(t *testing.T) {
	s := New(Config{Shards: 3})
	defer s.Drain(5 * time.Second)

	s.rr.Store(^uint64(0) - 4) // five Adds from wrapping
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		sh := s.route(Request{}) // panics on the pre-fix signed modulo
		if sh == nil {
			t.Fatal("route returned nil")
		}
		seen[sh.idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin across the wrap covered %d shards, want 3", len(seen))
	}
}

// TestAwaitReplyPrefersExecutedReply is the drain-abort truth pin: a
// request the shard already executed (reply buffered) must come back
// with its real reply even when the drain abort has fired — the pre-fix
// select raced the two channels and reported CodeAborted for work that
// ran, so drain accounting and client-visible truth diverged. The
// executes-then-aborts interleaving is constructed deterministically:
// the reply is confirmed buffered before awaitReply is called, and the
// iteration count makes a coin-flip select fail with certainty.
func TestAwaitReplyPrefersExecutedReply(t *testing.T) {
	s := New(Config{Shards: 1})
	sh := s.shards[0]

	// Force the aborted drain state up front; the shard queue stays open
	// so work can still be enqueued and executed.
	s.abortOnce.Do(func() { close(s.abortCh) })

	for i := 0; i < 64; i++ {
		p := &pending{
			req:      Request{ID: fmt.Sprintf("r%d", i), Op: OpDrive, Kind: KindSleep, Millis: 0},
			admitted: time.Now(),
			reply:    make(chan Response, 1),
		}
		sh.queue <- p
		// Wait until the shard has executed the request and buffered the
		// reply: from here on both channels are ready and only the fixed
		// ordering returns the truth.
		deadline := time.Now().Add(5 * time.Second)
		for len(p.reply) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("shard never executed the request")
			}
			time.Sleep(50 * time.Microsecond)
		}
		r := s.awaitReply(p, sh)
		if r.Code == CodeAborted {
			t.Fatalf("iteration %d: executed request reported aborted — client truth diverged from drain accounting", i)
		}
		if !r.OK {
			t.Fatalf("iteration %d: unexpected reply %+v", i, r)
		}
	}
	s.Drain(5 * time.Second)
}

// TestSubmitAbortStillUnblocks: the fix must not cost the other half of
// the contract — a request that truly never ran still unblocks with
// CodeAborted when the drain deadline expires.
func TestSubmitAbortStillUnblocks(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	done := make(chan Response, 2)
	go func() { done <- submit(s, Request{Op: OpDrive, Kind: KindSleep, Millis: 400}) }()
	go func() { done <- submit(s, Request{Op: OpDrive, Kind: KindSleep, Millis: 400}) }()
	// Wait until one request occupies the shard and the other is queued.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.shards[0].queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalls never queued")
		}
		time.Sleep(time.Millisecond)
	}
	err := s.Drain(20 * time.Millisecond)
	if err == nil || !ForcedAbort(err) {
		t.Fatalf("want forced abort, got %v", err)
	}
	sawAborted := false
	for i := 0; i < 2; i++ {
		select {
		case r := <-done:
			if r.Code == CodeAborted {
				sawAborted = true
			}
		case <-time.After(2 * time.Second):
			t.Fatal("caller still parked after forced abort")
		}
	}
	if !sawAborted {
		t.Fatal("queued-but-never-run request did not see CodeAborted")
	}
}
