package monkey

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// TestMonkeyBurstPinned pins the monkey's event stream. Six 14-event
// bursts (the fleet's burst size) run one after another on a resident
// RCHDroid oracle device, as a fleet shard drives one; then a stock
// benchmark-app device, whose async callbacks crash on a relaunch,
// takes bursts until one crashes. Each burst's outcome, the next draw of
// its generator, and the final widget state of each device were
// recorded with the walk that collected every widget kind before
// drawing the kind. Drawing the kind after any other draw, drawing in
// the walk, or tapping a different instance changes them.
func TestMonkeyBurstPinned(t *testing.T) {
	var got strings.Builder
	w := device.New(device.Shared(oracle.OracleApp(4)), 7, func(w *device.World) {
		core.Install(w.Sys, w.Proc, core.DefaultOptions())
	})
	for seed := uint64(1); seed <= 6; seed++ {
		opts := Options{Events: 14, Seed: seed, ChangeBias: 25}
		rng := sim.NewRNG(seed*0x9E3779B9 + 1)
		out := run(w.Sched, w.Sys, w.Proc, opts, rng)
		fmt.Fprintf(&got, "rch seed=%d: %s next=%d\n", seed, out, rng.Uint64())
	}
	fmt.Fprintf(&got, "rch probe: %s\n", probe(w.Proc))

	stock := device.New(device.Spec{App: func() *app.App {
		return benchapp.New(benchapp.Config{Images: 3, TaskDelay: 150 * time.Millisecond})
	}}, 9, nil)
	for seed := uint64(1); seed <= 12 && !stock.Proc.Crashed(); seed++ {
		opts := Options{Events: 14, Seed: seed, ChangeBias: 25}
		rng := sim.NewRNG(seed*0x9E3779B9 + 1)
		out := run(stock.Sched, stock.Sys, stock.Proc, opts, rng)
		fmt.Fprintf(&got, "stock seed=%d: %s next=%d\n", seed, out, rng.Uint64())
		fmt.Fprintf(&got, "stock probe: %s\n", probe(stock.Proc))
	}

	if got.String() != pinnedBursts {
		t.Fatalf("monkey bursts moved:\n%s\nwant:\n%s", got.String(), pinnedBursts)
	}
}

// probe renders the foreground activity's tappable widget state.
func probe(proc *app.Process) string {
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		return fmt.Sprintf("no foreground (crashed=%v)", proc.Crashed())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "token=%d", fg.Token())
	view.Walk(fg.Decor(), func(v view.View) bool {
		switch w := v.(type) {
		case *view.Button:
			fmt.Fprintf(&b, " button#%d=%d", w.ID(), w.Clicks())
		case *view.EditText:
			fmt.Fprintf(&b, " edit#%d=%q@%d", w.ID(), w.Text(), w.Cursor())
		case *view.CheckBox:
			fmt.Fprintf(&b, " check#%d=%v", w.ID(), w.Checked())
		case *view.SeekBar:
			fmt.Fprintf(&b, " seek#%d=%d", w.ID(), w.Progress())
		case *view.ListView:
			fmt.Fprintf(&b, " list#%d=%d", w.ID(), w.SelectorPosition())
		}
		return true
	})
	return b.String()
}

// pinnedBursts was recorded at the walk-everything implementation.
const pinnedBursts = `rch seed=1: clean: 14 events (3 changes) next=10978663220433436868
rch seed=2: clean: 14 events (3 changes) next=16710984890282530091
rch seed=3: clean: 14 events (1 changes) next=4918139580181374111
rch seed=4: clean: 14 events (2 changes) next=1678145926341914606
rch seed=5: clean: 14 events (2 changes) next=2979837650475143193
rch seed=6: clean: 14 events (3 changes) next=2350461355571528595
rch probe: token=10 edit#11="xxxxxxxxxxxxxxxxxxxx"@20 check#12=true seek#13=9 list#14=2
stock seed=1: clean: 14 events (1 changes) next=1864388497398087461
stock probe: token=1 button#1=0
stock seed=2: CRASH after 4 events (1 changes): app benchapp-3 crashed: NullPointerException: setImageDrawable on released ImageView (id 100) next=4566269212101477076
stock probe: no foreground (crashed=true)
`
