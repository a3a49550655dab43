package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressFunc samples the live state of a run: how many units have
// completed and how many of those failed. It is called from the
// progress goroutine, so it must be safe to call concurrently with the
// workers (a live Registry.Snapshot is).
type ProgressFunc func() (done, failed int64)

// Progress is a periodic one-line status printer for long sweeps: units
// done, percentage, throughput, ETA and failures so far. It writes to
// stderr-style diagnostics only — wall-clock rates never belong in
// canonical output.
type Progress struct {
	w        io.Writer
	label    string // unit name: "seeds", "schedules"
	total    int64
	interval time.Duration
	fn       ProgressFunc

	start time.Time
	stop  chan struct{}
	done  sync.WaitGroup
}

// StartProgress launches the ticker. interval ≤ 0 disables it and
// returns nil; Stop on a nil Progress is a no-op.
func StartProgress(w io.Writer, label string, total int, interval time.Duration, fn ProgressFunc) *Progress {
	if interval <= 0 || w == nil || fn == nil {
		return nil
	}
	p := &Progress{
		w: w, label: label, total: int64(total), interval: interval, fn: fn,
		start: time.Now(), stop: make(chan struct{}),
	}
	p.done.Add(1)
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer p.done.Done()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.print()
		case <-p.stop:
			return
		}
	}
}

// print renders one progress line.
func (p *Progress) print() {
	done, failed := p.fn()
	elapsed := time.Since(p.start)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed.Seconds()
	}
	pct := 0.0
	if p.total > 0 {
		pct = 100 * float64(done) / float64(p.total)
	}
	eta := "?"
	if rate > 0 && done < p.total {
		d := time.Duration(float64(p.total-done) / rate * float64(time.Second))
		eta = d.Round(100 * time.Millisecond).String()
	} else if done >= p.total {
		eta = "0s"
	}
	fmt.Fprintf(p.w, "progress: %d/%d %s (%.1f%%) %.0f %s/sec eta %s failures %d\n",
		done, p.total, p.label, pct, rate, p.label, eta, failed)
}

// Stop halts the ticker and prints one final line, so a sweep that
// finishes between ticks still reports its terminal state. Nil-safe.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	p.done.Wait()
	p.print()
}
