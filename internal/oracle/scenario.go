package oracle

import (
	"fmt"
	"strconv"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// View ids of the oracle app.
const (
	RootID  view.ID = 1
	EditID  view.ID = 11
	CheckID view.ID = 12
	SeekID  view.ID = 13
	ListID  view.ID = 14
	// ImgIDBase is the first ImageView id.
	ImgIDBase view.ID = 100
)

// CounterKey is the activity-private extra the app persists through
// OnSaveInstanceState — state that survives ONLY if the handler runs the
// full save/restore contract. Exported so regression tests can plant a
// mistyped value and prove the oracle rejects it.
const CounterKey = "counter"

// listItems is the oracle app's fixed list content.
var listItems = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

// OracleApp builds the probe app: one instance of every stock-persisted
// widget (EditText, CheckBox), widgets whose state stock Android
// legitimately loses on restart (SeekBar, ListView), async-updated
// ImageViews, and an app-private counter saved via OnSaveInstanceState.
// Both orientations share the layout, so a rotation changes handling but
// never the view-tree shape — state differences after a change are the
// handler's doing, not the layout's.
func OracleApp(images int) *app.App {
	res := resources.NewTable()
	layout := func() *view.Spec {
		children := []*view.Spec{
			view.Edit(EditID, ""),
			{Type: "CheckBox", ID: CheckID, Text: "opt-in"},
			{Type: "SeekBar", ID: SeekID, Max: 100},
			{Type: "ListView", ID: ListID, Items: listItems},
		}
		for i := 0; i < images; i++ {
			children = append(children, view.Img(ImgIDBase+view.ID(i), "drawable/init"))
		}
		return view.Linear(RootID, children...)
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())
	res.PutDefault("drawable/init", "bitmap:init")
	res.PutDefault("drawable/loaded", "bitmap:loaded")

	cls := &app.ActivityClass{Name: "OracleActivity"}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		// Seed the counter so the extra exists from the first frame of
		// every instance: a later absence is dropped state, never a fresh
		// launch, which lets the probe and the bump step treat
		// absent/mistyped as a violation instead of silently reading 0.
		a.PutExtra(CounterKey, int64(0))
		a.SetContentView("layout/main")
	}
	cls.Callbacks.OnSaveInstanceState = func(a *app.Activity, out *bundle.Bundle) {
		c, _ := a.Extra(CounterKey).(int64)
		out.PutInt(CounterKey, c)
	}
	cls.Callbacks.OnRestoreInstanceState = func(a *app.Activity, saved *bundle.Bundle) {
		a.PutExtra(CounterKey, saved.GetInt(CounterKey, 0))
	}
	return &app.App{Name: "oracleapp", Resources: res, Main: cls}
}

// oracleProbe reads the oracle app's ground truth off the foreground
// instance, one field per probed widget attribute and the counter. The
// widgets are the layout root's children, so one pass over them finds
// every one: the runner probes twice per step.
func oracleProbe(fg *app.Activity, dst []Field) []Field {
	if root, ok := fg.FindViewByID(RootID).(view.Container); ok {
		for _, v := range root.Children() {
			switch v := v.(type) {
			case *view.EditText:
				if v.ID() == EditID {
					dst = append(dst,
						Field{Name: "Oracle.text", Value: v.Text(), View: true, Saved: true},
						Field{Name: "Oracle.cursor", Value: strconv.Itoa(v.Cursor()), View: true, Saved: true})
				}
			case *view.CheckBox:
				if v.ID() == CheckID {
					dst = append(dst, Field{Name: "Oracle.checked", Value: strconv.FormatBool(v.Checked()), View: true, Saved: true})
				}
			case *view.SeekBar:
				if v.ID() == SeekID {
					dst = append(dst, Field{Name: "Oracle.seek", Value: strconv.Itoa(v.Progress()), View: true})
				}
			case *view.ListView:
				if v.ID() == ListID {
					dst = append(dst, Field{Name: "Oracle.selRow", Value: strconv.Itoa(v.SelectorPosition()), View: true})
				}
			}
		}
	}
	return append(dst, CounterField(fg, CounterKey, "Oracle.counter", true))
}

// CounterField probes the int64 counter extra key as the non-view field
// name. The apps seed their counters in OnCreate, so an absent or
// mistyped extra is dropped or corrupted state. It reads as an explicit
// value, never as a silent 0 that could make a run which dropped the
// counter compare equal to one that kept it, so the loss line names it.
func CounterField(fg *app.Activity, key, name string, saved bool) Field {
	f := Field{Name: name, Saved: saved}
	switch c := fg.Extra(key).(type) {
	case int64:
		f.Value = strconv.FormatInt(c, 10)
	case nil:
		f.Value = "counter extra absent"
	default:
		f.Value = fmt.Sprintf("counter extra mistyped: %T(%v)", c, c)
	}
	return f
}

var resizeTable = [][2]int{{1920, 1080}, {1080, 1920}, {1280, 720}, {2560, 1440}, {720, 1280}}
var localeTable = []string{"en-US", "fr-FR", "ja-JP", "de-DE"}
var fontTable = []float64{1.0, 1.15, 1.3}

// allBuckets is every loss bucket: what a generated scenario lets stock
// lose, so only RCHDroid's losses fail its runs.
var allBuckets = []LossBucket{LossViewSaved, LossViewUnsaved, LossNonViewSaved, LossNonViewUnsaved}

// GenScenario derives the scenario for a seed: 8–16 steps mixing
// configuration changes (including back-to-back bursts that land
// mid-transition), user edits of every probed widget, async tasks that
// straddle changes, and idle gaps (one long enough to cross the shadow
// GC's THRESH_T). Stock may crash (a touch callback writing to a
// released ImageView) and lose state into any bucket; RCHDroid may lose
// none.
func GenScenario(seed uint64) Scenario {
	rng := sim.NewRNG(seed*2654435761 + 7)
	images := 1 + rng.Intn(6)
	n := 8 + rng.Intn(9)
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		roll := rng.Intn(100)
		settle := 2 * time.Second
		edit := 50 * time.Millisecond
		switch {
		case roll < 12:
			steps = append(steps, Step{Kind: StepRotate, Settle: settle})
		case roll < 19:
			steps = append(steps, Step{Kind: StepResize, N: rng.Intn(len(resizeTable)), Settle: settle})
		case roll < 25:
			steps = append(steps, Step{Kind: StepLocale, Text: localeTable[rng.Intn(len(localeTable))], Settle: settle})
		case roll < 30:
			steps = append(steps, Step{Kind: StepNight, N: rng.Intn(2), Settle: settle})
		case roll < 35:
			steps = append(steps, Step{Kind: StepFontScale, N: rng.Intn(len(fontTable)), Settle: settle})
		case roll < 43:
			// Two changes back to back: the second lands while the first
			// is still being handled.
			gap := time.Duration(10+rng.Intn(80)) * time.Millisecond
			steps = append(steps, Step{Kind: StepBurst, Work: gap, Settle: 2500 * time.Millisecond})
		case roll < 52:
			steps = append(steps, Step{Kind: StepType, ID: EditID, Text: "s" + strconv.Itoa(i) + ".", Settle: edit})
		case roll < 58:
			steps = append(steps, Step{Kind: StepCheck, ID: CheckID, Settle: edit})
		case roll < 64:
			steps = append(steps, Step{Kind: StepSeek, ID: SeekID, N: rng.Intn(101), Settle: edit})
		case roll < 70:
			steps = append(steps, Step{Kind: StepSelect, ID: ListID, N: rng.Intn(len(listItems)), Settle: edit})
		case roll < 76:
			steps = append(steps, Step{Kind: StepBump, Text: CounterKey, Settle: edit})
		case roll < 90:
			work := time.Duration(50+rng.Intn(350)) * time.Millisecond
			steps = append(steps, Step{Kind: StepTouch, ID: ImgIDBase, N: images, Text: "drawable/loaded", Work: work,
				Settle: time.Duration(50+rng.Intn(200)) * time.Millisecond})
		case roll < 97:
			steps = append(steps, Step{Kind: StepIdle, Settle: time.Duration(300+rng.Intn(2700)) * time.Millisecond})
		default:
			// Crosses THRESH_T: the shadow GC fires under chaos too.
			steps = append(steps, Step{Kind: StepIdle, Settle: 70 * time.Second})
		}
	}
	return Scenario{
		App:           func() *app.App { return OracleApp(images) },
		Probe:         oracleProbe,
		Steps:         steps,
		Images:        images,
		StockMayCrash: true,
		StockMayLose:  allBuckets,
	}
}
