package app_test

import (
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/device"
	"rchdroid/internal/resources"
	"rchdroid/internal/runtimedroid"
	"rchdroid/internal/view"
)

// censusApp lays out media views at two depths, an empty fragment
// container (id 50) and a registered fragment class whose layout holds
// an image, so inflation, fragment add and remove, dialogs and handler
// reparenting all move media and plain views.
func censusApp() *app.App {
	res := resources.NewTable()
	layout := view.Linear(1,
		view.Text(2, "title"),
		view.Img(3, "drawable/a"),
		view.Group("FrameLayout", 50),
		view.Linear(4, view.Edit(5, ""), &view.Spec{Type: "VideoView", ID: 6}, view.Img(7, "drawable/b")),
	)
	res.PutDefault("layout/main", layout)
	detail := &app.FragmentClass{
		Name: "Detail",
		OnCreateView: func(f *app.Fragment, host *app.Activity) *view.Spec {
			return view.Linear(55, view.Edit(60, ""), view.Img(61, "drawable/c"))
		},
	}
	cls := &app.ActivityClass{
		Name:            "Main",
		FragmentClasses: map[string]*app.FragmentClass{"Detail": detail},
	}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) { a.SetContentView("layout/main") }
	return &app.App{Name: "censusapp", Resources: res, Main: cls}
}

// censusChecker holds every view tree a run has shown, released ones
// included, and checks each against a walk.
type censusChecker struct {
	t     *testing.T
	model *costmodel.Model
	trees []view.View
	seen  map[view.View]bool
}

func (c *censusChecker) keep(root view.View) {
	if !c.seen[root] {
		c.seen[root] = true
		c.trees = append(c.trees, root)
	}
}

// check compares, after step, every group's census in every kept tree
// with a walk of its subtree, and each live activity's ViewCount and
// MemoryBytes with the walks they replaced.
func (c *censusChecker) check(step string, proc *app.Process) {
	c.t.Helper()
	for _, a := range proc.Thread().Activities() {
		c.keep(a.Decor())
		for _, d := range a.Dialogs() {
			c.keep(d.Decor())
		}
		views, _ := walkCensus(a.Decor())
		if got := a.ViewCount(); got != views-1 {
			c.t.Fatalf("%s: %v ViewCount %d, walk %d", step, a, got, views-1)
		}
		if got, want := a.MemoryBytes(), walkMemoryBytes(a, c.model); got != want {
			c.t.Fatalf("%s: %v MemoryBytes %d, walk %d", step, a, got, want)
		}
	}
	for _, root := range c.trees {
		view.Walk(root, func(v view.View) bool {
			if _, ok := v.(view.Container); !ok {
				return true
			}
			gv, gm := view.Census(v)
			wv, wm := walkCensus(v)
			if gv != wv || gm != wm || view.Count(v) != wv {
				c.t.Fatalf("%s: %v census %d views %d media, walk %d and %d", step, v, gv, gm, wv, wm)
			}
			return true
		})
	}
}

func walkCensus(root view.View) (views, media int) {
	view.Walk(root, func(v view.View) bool {
		views++
		switch v.(type) {
		case *view.ImageView, *view.VideoView:
			media++
		}
		return true
	})
	return views, media
}

// walkMemoryBytes is Activity.MemoryBytes as it was computed by walking
// the trees and sizing the snapshot on every call.
func walkMemoryBytes(a *app.Activity, m *costmodel.Model) int64 {
	if !a.State().Alive() {
		return 0
	}
	total := m.ActivityBaseBytes
	view.Walk(a.Decor(), func(v view.View) bool {
		switch v.(type) {
		case *view.ImageView, *view.VideoView:
			total += m.ImageViewBytes
		default:
			total += m.ViewBytes
		}
		return true
	})
	for _, d := range a.Dialogs() {
		if d.Showing() {
			view.Walk(d.Decor(), func(view.View) bool {
				total += m.ViewBytes
				return true
			})
		}
	}
	if s := a.ShadowSnapshot(); s != nil {
		total += m.BundleOverhead + int64(s.SizeBytes())
	}
	return total
}

// TestTreeCensusMatchesWalk drives the tree through every path that
// changes it — inflation, fragment add and remove (and their re-inflation
// on a sunny launch), dialogs, RCHDroid's shadow snapshot and flip,
// RuntimeDroid's reparenting into its holder, a stock relaunch and
// release — and checks after each step that every census equals a walk.
func TestTreeCensusMatchesWalk(t *testing.T) {
	handlers := []struct {
		name    string
		install func(w *device.World)
	}{
		{"rchdroid", func(w *device.World) { core.Install(w.Sys, w.Proc, core.DefaultOptions()) }},
		{"runtimedroid", func(w *device.World) { w.Proc.Thread().SetChangeHandler(runtimedroid.NewPatchedHandler()) }},
		{"stock", nil},
	}
	for _, h := range handlers {
		t.Run(h.name, func(t *testing.T) {
			w := device.New(device.Spec{App: censusApp}, 1, h.install)
			c := &censusChecker{t: t, model: w.Model, seen: map[view.View]bool{}}
			c.check("boot", w.Proc)
			rotate := func(step string) {
				t.Helper()
				w.Sys.PushConfiguration(w.Sys.GlobalConfig().Rotated())
				w.Sched.Advance(2 * time.Second)
				if w.Proc.Crashed() {
					t.Fatalf("%s: crashed: %v", step, w.Proc.CrashCause())
				}
				c.check(step, w.Proc)
			}
			fg := w.Proc.Thread().ForegroundActivity()
			detail := fg.Class().FragmentClasses["Detail"]
			fg.Fragments().Add(detail, "one", 50)
			c.check("fragment add", w.Proc)
			fg.Fragments().Add(detail, "two", 50)
			fg.Fragments().Remove("one")
			c.check("fragment remove", w.Proc)
			content := fg.Content()
			d := fg.ShowDialog("confirm", view.Linear(70, view.Img(71, "drawable/d"), view.Text(72, "sure?")))
			c.check("dialog", w.Proc)
			if h.name == "stock" {
				// Stock leaks a showing dialog's window on a relaunch.
				d.Dismiss()
				c.check("dialog dismissed", w.Proc)
			}
			rotate("first rotation")
			if h.name == "runtimedroid" {
				holder := content.Base().Parent()
				if holder == nil || holder.Base() == fg.Decor().Base() {
					t.Fatal("RuntimeDroid did not reparent the old content")
				}
				c.keep(holder)
				c.check("after reparenting", w.Proc)
			}
			rotate("second rotation")
			// New state makes the next shadow snapshot of an instance that
			// already held one larger.
			w.Proc.Thread().ForegroundActivity().FindViewByID(5).(*view.EditText).Type("draft")
			rotate("third rotation")
			if d.Showing() && !d.Decor().Base().Released() {
				d.Dismiss()
				c.check("dialog dismissed", w.Proc)
			}
			w.Proc.TrimMemory()
			w.Sched.Advance(time.Second)
			c.check("trim", w.Proc)
			w.Sys.PushConfiguration(w.Sys.GlobalConfig().WithUIMode(config.UIModeNight))
			w.Sched.Advance(2 * time.Second)
			c.check("ui mode", w.Proc)
			if len(c.trees) < 3 {
				t.Fatalf("only %d trees seen", len(c.trees))
			}
			t.Logf("%d trees checked", len(c.trees))
		})
	}
}
