package runtimedroid

import (
	"slices"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

func simpleApp() *app.App {
	res := resources.NewTable()
	layout := func(title string) *view.Spec {
		return view.Linear(1,
			view.Text(2, title),
			&view.Spec{Type: "CustomTextView", ID: 10},
			view.Img(11, "drawable/init"),
		)
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout("wide"))
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout("tall"))
	cls := &app.ActivityClass{Name: "Main"}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) { a.SetContentView("layout/main") }
	return &app.App{Name: "patched", Resources: res, Main: cls}
}

func bootPatched(t *testing.T, application *app.App) (*sim.Scheduler, *atms.ATMS, *app.Process, *PatchedHandler) {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, application)
	h := NewPatchedHandler()
	proc.Thread().SetChangeHandler(h)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	return sched, sys, proc, h
}

func TestHotSwapKeepsInstanceAndState(t *testing.T) {
	sched, sys, proc, h := bootPatched(t, simpleApp())
	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("type", time.Millisecond, func() {
		fg.FindViewByID(10).(*view.CustomTextView).SetText("typed")
	})
	sched.Advance(10 * time.Millisecond)

	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)

	if proc.Crashed() {
		t.Fatalf("crashed: %v", proc.CrashCause())
	}
	// Same instance survives — the patch masks the restart.
	if proc.Thread().ForegroundActivity() != fg {
		t.Fatal("hot swap must keep the instance")
	}
	if h.HotSwaps() != 1 {
		t.Fatalf("hot swaps = %d", h.HotSwaps())
	}
	// The layout re-resolved for portrait, and the recorded state came back.
	if got := fg.FindViewByID(2).(*view.TextView).Text(); got != "tall" {
		t.Fatalf("title = %q, want portrait variant", got)
	}
	if got := fg.FindViewByID(10).(*view.CustomTextView).Text(); got != "typed" {
		t.Fatalf("typed text = %q", got)
	}
	if fg.Config().Orientation != config.OrientationPortrait {
		t.Fatal("configuration not applied")
	}
}

// TestHotSwapMovesEveryDecorChild rotates an activity whose decor holds
// three children: the off-screen holder must take all three, in order,
// each once, and the rebuilt decor none of them.
func TestHotSwapMovesEveryDecorChild(t *testing.T) {
	sched, sys, proc, h := bootPatched(t, simpleApp())
	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("addViews", time.Millisecond, func() {
		fg.Decor().AddChild(view.NewTextView(20, "banner"))
		fg.Decor().AddChild(view.NewImageView(21, "drawable/init"))
	})
	sched.Advance(10 * time.Millisecond)
	old := slices.Clone(fg.Decor().Children())
	if len(old) != 3 {
		t.Fatalf("decor holds %d children, want 3", len(old))
	}

	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)

	if got := h.holder.Children(); !slices.Equal(got, old) {
		t.Errorf("holder holds %v, want the old children %v in order", got, old)
	}
	for _, c := range fg.Decor().Children() {
		if slices.Contains(old, c) {
			t.Errorf("old view %v stayed in the rebuilt decor", c)
		}
	}
}

func TestHotSwapFasterThanStockAndRCHDroidSlowerThanIt(t *testing.T) {
	// Ordering sanity at the latency level: patched < flip-based RCHDroid
	// would be checked in experiments; here just require patched < stock.
	sched, sys, proc, _ := bootPatched(t, simpleApp())
	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)
	patched := sys.LastHandlingTime()

	sched2 := sim.NewScheduler()
	model := costmodel.Default()
	sys2 := atms.New(sched2, model)
	proc2 := app.NewProcess(sched2, model, simpleApp())
	sys2.LaunchApp(proc2)
	sched2.Advance(2 * time.Second)
	sys2.PushConfiguration(config.Portrait())
	sched2.Advance(2 * time.Second)
	stock := sys2.LastHandlingTime()

	if patched <= 0 || patched >= stock {
		t.Fatalf("patched %v should beat stock %v", patched, stock)
	}
	_ = proc
}

func TestLateAsyncUpdateRedirectedThroughProxy(t *testing.T) {
	sched, sys, proc, h := bootPatched(t, simpleApp())
	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("start", time.Millisecond, func() {
		iv := fg.FindViewByID(11).(*view.ImageView) // captured OLD view
		fg.StartAsyncTask("load", 300*time.Millisecond, func() {
			iv.SetDrawable("drawable/fresh")
		})
	})
	sched.Advance(10 * time.Millisecond)
	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second) // task returns after the swap

	if proc.Crashed() {
		t.Fatalf("crashed: %v", proc.CrashCause())
	}
	if h.Redirected() != 1 {
		t.Fatalf("redirected = %d, want 1", h.Redirected())
	}
	if got := fg.FindViewByID(11).(*view.ImageView).Drawable(); got != "drawable/fresh" {
		t.Fatalf("replacement view drawable = %q", got)
	}
}

func TestPatchFailsOnDynamicFragments(t *testing.T) {
	// §2.2: "with the fragment activity, the views are distributed and
	// assigned in different fragments … the assignment insertion of
	// RuntimeDroid cannot handle these situations." The hot swap re-runs
	// only the host's view construction, so the dynamically attached
	// fragment's views are gone afterwards.
	res := resources.NewTable()
	layout := func() *view.Spec { return view.Linear(1, view.Group("FrameLayout", 50)) }
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())
	frag := &app.FragmentClass{
		Name: "F",
		OnCreateView: func(f *app.Fragment, host *app.Activity) *view.Spec {
			return view.Linear(55, &view.Spec{Type: "CustomTextView", ID: 60})
		},
	}
	cls := &app.ActivityClass{Name: "Host", FragmentClasses: map[string]*app.FragmentClass{"F": frag}}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) { a.SetContentView("layout/main") }
	application := &app.App{Name: "fragpatched", Resources: res, Main: cls}

	sched, sys, proc, _ := bootPatched(t, application)
	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("attach", time.Millisecond, func() {
		fg.Fragments().Add(frag, "f", 50)
		fg.FindViewByID(60).(*view.CustomTextView).SetText("fragment text")
	})
	sched.Advance(10 * time.Millisecond)

	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)
	if proc.Crashed() {
		t.Fatalf("crashed: %v", proc.CrashCause())
	}
	if fg.FindViewByID(60) != nil {
		t.Fatal("expected the fragment's views to be lost under the app-level patch")
	}
}

func TestForegroundSwitchDropsProxy(t *testing.T) {
	sched, sys, proc, h := bootPatched(t, simpleApp())
	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)
	if h.holder == nil {
		t.Fatal("no holder after swap")
	}
	proc.Thread().ScheduleMoveToBackground(1)
	sched.Advance(time.Second)
	if h.holder != nil {
		t.Fatal("holder should be dropped on foreground switch")
	}
}
