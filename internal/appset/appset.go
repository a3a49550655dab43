// Package appset models the two evaluation app populations:
//
//   - the 27 runnable apps from the TP-37 set with known runtime-change
//     issues (Table 3), and
//   - the Google Play top-100 apps (Table 5).
//
// Each Model captures where the app keeps the user-visible state its
// table row describes — in a stock-persisted widget, in rich widget
// attributes stock Android drops on restart, behind an in-flight
// asynchronous task, in app-private fields with or without
// onSaveInstanceState, or behind a declared configChanges handler. That
// single classification reproduces the table verdicts: stock Android
// loses exactly the rich/async/unsaved state, and RCHDroid recovers
// everything except the unsaved app-private fields (Table 3: 25/27,
// Table 5: 59/63).
package appset

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// StateKind identifies the widget (or non-widget) carrying the app's
// interesting state.
type StateKind uint8

// State kinds.
const (
	// KindNone models apps with no state worth preserving.
	KindNone StateKind = iota
	// KindStockInput keeps state in an EditText, which stock Android
	// persists automatically — no issue even on restart.
	KindStockInput
	// KindTextInput keeps typed text in a custom input widget that stock
	// Android does not persist (the "text box" / "login page" rows).
	KindTextInput
	// KindListSelection keeps a selection in a list ("selection list").
	KindListSelection
	// KindScroll keeps a scroll offset ("scroll location").
	KindScroll
	// KindSeekBar keeps a slider value ("zoom bar", "volume bar").
	KindSeekBar
	// KindStatusText keeps programmatic status text ("timer state",
	// "report page", "alarm state", …).
	KindStatusText
	// KindAsyncImages has an in-flight AsyncTask updating images when the
	// change hits — the crash scenario.
	KindAsyncImages
	// KindExtras keeps state only in activity fields; pair with
	// SavedByApp to decide whether onSaveInstanceState persists it.
	KindExtras
	// KindServiceState runs a background service the activity's onDestroy
	// stops — the BlueNET bug: a restart silently turns the server off.
	KindServiceState
)

func (k StateKind) String() string {
	switch k {
	case KindStockInput:
		return "stock-input"
	case KindTextInput:
		return "text-input"
	case KindListSelection:
		return "list-selection"
	case KindScroll:
		return "scroll"
	case KindSeekBar:
		return "seekbar"
	case KindStatusText:
		return "status-text"
	case KindAsyncImages:
		return "async-images"
	case KindExtras:
		return "extras"
	case KindServiceState:
		return "service-state"
	default:
		return "none"
	}
}

// Widget ids used by generated apps.
const (
	stateWidgetID     view.ID = 10
	secondaryWidgetID view.ID = 11
	rootID            view.ID = 1
	fillerIDBase      view.ID = 1000
	imageIDBase       view.ID = 2000
)

// serverService names the background service of a KindServiceState app.
const serverService = "server"

// Sentinel state values the scenarios plant and verify.
const (
	plantedSecondary = "second field"
	plantedText      = "user-input-42"
	plantedPosition  = 2
	plantedScroll    = 360
	plantedProgress  = 55
	plantedExtra     = int64(1234)
)

// Model describes one app of an evaluation set.
type Model struct {
	// Index is the 1-based row number in the paper's table.
	Index int
	// Name and Downloads come straight from the table.
	Name      string
	Downloads string
	// Issue is the table's problem description ("" when none).
	Issue string
	// Kind locates the interesting state.
	Kind StateKind
	// SavedByApp marks apps that implement onSaveInstanceState for their
	// extras (only meaningful with KindExtras).
	SavedByApp bool
	// Declared marks apps that declare android:configChanges and handle
	// changes themselves.
	Declared bool

	// Workload parameters (deterministic per app; see materialize).
	Views        int
	Images       int
	ExtraMemMB   int
	CreateCostMS int
	ResumeCostMS int
}

// HasIssue reports whether stock Android's restart loses the app's state
// (the table's Yes/No column).
func (m Model) HasIssue() bool {
	if m.Declared {
		return false
	}
	switch m.Kind {
	case KindNone, KindStockInput:
		return false
	case KindExtras:
		return !m.SavedByApp
	default:
		// Rich-view, async and service state all break under a restart.
		return true
	}
}

// FixedByRCHDroid reports whether RCHDroid resolves the issue (the
// Table 3 ✓/✗ column): everything except app-private state the app never
// saves.
func (m Model) FixedByRCHDroid() bool {
	if !m.HasIssue() {
		return false
	}
	return m.Kind != KindExtras
}

func (m Model) String() string {
	return fmt.Sprintf("#%d %s (%s, %v)", m.Index, m.Name, m.Downloads, m.Kind)
}

// materialize fills the workload parameters deterministically from the
// app's index so runs are reproducible. Ranges are calibrated per set:
// the TP-27 apps are small utilities; the top-100 apps are heavyweights.
func (m *Model) materialize(heavy bool) {
	rng := sim.NewRNG(uint64(m.Index)*2654435761 + 97)
	if heavy {
		m.Views = 40 + rng.Intn(33)         // avg ≈ 56
		m.Images = 9 + rng.Intn(6)          // avg ≈ 11.5
		m.ExtraMemMB = 92 + rng.Intn(41)    // avg ≈ 112
		m.CreateCostMS = 28 + rng.Intn(21)  // avg ≈ 38
		m.ResumeCostMS = 151 + rng.Intn(21) // avg ≈ 161
	} else {
		m.Views = 8 + rng.Intn(17)          // avg ≈ 16
		m.Images = 2 + rng.Intn(4)          // avg ≈ 3.5
		m.ExtraMemMB = 2 + rng.Intn(5)      // avg ≈ 4
		m.CreateCostMS = 5 + rng.Intn(11)   // avg ≈ 10
		m.ResumeCostMS = 125 + rng.Intn(21) // avg ≈ 135
	}
}

// Build generates the runnable app for the model.
func (m Model) Build() *app.App {
	res := resources.NewTable()
	layout := func() *view.Spec {
		children := []*view.Spec{}
		switch m.Kind {
		case KindStockInput:
			children = append(children, view.Edit(stateWidgetID, ""))
		case KindTextInput:
			children = append(children, &view.Spec{Type: "CustomTextView", ID: stateWidgetID})
		case KindListSelection:
			children = append(children, &view.Spec{
				Type: "ListView", ID: stateWidgetID,
				Items: []string{"alpha", "bravo", "charlie", "delta", "echo"},
			})
		case KindScroll:
			children = append(children, &view.Spec{
				Type: "ScrollView", ID: stateWidgetID,
				Items: []string{"page1", "page2", "page3"},
			})
		case KindSeekBar:
			children = append(children, &view.Spec{Type: "SeekBar", ID: stateWidgetID, Max: 100})
		case KindStatusText:
			children = append(children, view.Text(stateWidgetID, "idle"))
		case KindExtras:
			// The extras are mirrored into an anonymous label the state
			// machinery cannot save (no view id).
			children = append(children, view.Text(view.NoID, "from-extras"))
		case KindServiceState:
			children = append(children, view.Text(stateWidgetID, "server: stopped"))
		}
		// Every app also carries a stock-persisted input; its survival in
		// BOTH modes is the negative control of the scans.
		children = append(children, view.Edit(secondaryWidgetID, ""))
		for i := 0; i < m.Images; i++ {
			children = append(children, view.Img(imageIDBase+view.ID(i), "drawable/img"))
		}
		// Filler brings the tree to the target size (the state widget,
		// images and root are part of the count).
		used := len(children) + 1
		for i := used; i < m.Views; i++ {
			children = append(children, view.Text(fillerIDBase+view.ID(i), "filler"))
		}
		return view.Linear(rootID, children...)
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())

	cls := &app.ActivityClass{
		Name:            "MainActivity",
		ExtraCreateCost: time.Duration(m.CreateCostMS) * time.Millisecond,
		ExtraResumeCost: time.Duration(m.ResumeCostMS) * time.Millisecond,
	}
	if m.Declared {
		cls.DeclaredChanges = config.ChangeOrientation | config.ChangeScreenSize |
			config.ChangeLocale | config.ChangeKeyboard | config.ChangeUIMode |
			config.ChangeFontScale | config.ChangeDensity
		cls.Callbacks.OnConfigurationChanged = func(a *app.Activity, c config.Configuration) {}
	}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		a.SetContentView("layout/main")
	}
	if m.Kind == KindServiceState {
		// The developer stops the server in onDestroy, assuming the
		// activity only dies when the user leaves — the BlueNET bug. A
		// restart therefore silently turns the server off; RCHDroid never
		// destroys the instance, so the server keeps running.
		cls.Callbacks.OnDestroy = func(a *app.Activity) {
			a.Process().StopService(serverService)
		}
		cls.Callbacks.OnResume = func(a *app.Activity) {
			if tv, ok := a.FindViewByID(stateWidgetID).(*view.TextView); ok {
				if a.Process().ServiceRunning(serverService) {
					tv.SetText("server: running")
				} else {
					tv.SetText("server: stopped")
				}
			}
		}
	}
	if m.Kind == KindExtras && m.SavedByApp {
		cls.Callbacks.OnSaveInstanceState = func(a *app.Activity, out *bundle.Bundle) {
			if v, ok := a.Extra("appstate").(int64); ok {
				out.PutInt("appstate", v)
			}
		}
		cls.Callbacks.OnRestoreInstanceState = func(a *app.Activity, saved *bundle.Bundle) {
			if saved != nil && saved.Has("appstate") {
				a.PutExtra("appstate", saved.GetInt("appstate", 0))
			}
		}
	}
	return &app.App{
		Name:           m.Name,
		Resources:      res,
		Main:           cls,
		ExtraBaseBytes: int64(m.ExtraMemMB) << 20,
	}
}

// PlantState performs the user interaction that creates the state the
// table row describes (typing, selecting, scrolling, …). It must run
// before the runtime change. asyncDelay sizes the in-flight task for
// KindAsyncImages.
func (m Model) PlantState(proc *app.Process, asyncDelay time.Duration) {
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		return
	}
	proc.PostApp("plantState", time.Millisecond, func() {
		widget := fg.FindViewByID(stateWidgetID)
		switch m.Kind {
		case KindStockInput:
			if w, ok := widget.(*view.EditText); ok {
				w.Type(plantedText)
			}
		case KindTextInput:
			if w, ok := widget.(*view.CustomTextView); ok {
				w.SetText(plantedText)
			}
		case KindListSelection:
			if w, ok := widget.(*view.ListView); ok {
				w.PositionSelector(plantedPosition)
			}
		case KindScroll:
			if w, ok := widget.(*view.ScrollView); ok {
				w.ScrollTo(plantedScroll)
			}
		case KindSeekBar:
			if w, ok := widget.(*view.SeekBar); ok {
				w.SetProgress(plantedProgress)
			}
		case KindStatusText:
			if w, ok := widget.(*view.TextView); ok {
				w.SetText(plantedText)
			}
		case KindAsyncImages:
			imgs := collectImages(fg)
			fg.StartAsyncTask("refresh", asyncDelay, func() {
				for _, iv := range imgs {
					iv.SetDrawable("drawable/fresh")
				}
			})
		case KindExtras:
			fg.PutExtra("appstate", plantedExtra)
		case KindServiceState:
			// The server has no callbacks, and a process keys its
			// services by name: this class is the one Build's callbacks
			// stop and query.
			proc.StartService(&app.ServiceClass{Name: serverService})
			if w, ok := fg.FindViewByID(stateWidgetID).(*view.TextView); ok {
				w.SetText("server: running")
			}
		}
		if w, ok := fg.FindViewByID(secondaryWidgetID).(*view.EditText); ok {
			w.Type(plantedSecondary)
		}
	})
}

func collectImages(a *app.Activity) []*view.ImageView {
	var out []*view.ImageView
	view.Walk(a.Decor(), func(v view.View) bool {
		if iv, ok := v.(*view.ImageView); ok {
			out = append(out, iv)
		}
		return true
	})
	return out
}

// VerifyState checks whether the planted state survived the runtime
// change on the current foreground activity. A crashed process never
// verifies.
func (m Model) VerifyState(proc *app.Process) bool {
	if proc.Crashed() {
		return false
	}
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		return false
	}
	widget := fg.FindViewByID(stateWidgetID)
	switch m.Kind {
	case KindNone:
		return true
	case KindStockInput:
		w, ok := widget.(*view.EditText)
		return ok && w.Text() == plantedText
	case KindTextInput:
		w, ok := widget.(*view.CustomTextView)
		return ok && w.Text() == plantedText
	case KindListSelection:
		w, ok := widget.(*view.ListView)
		return ok && w.SelectorPosition() == plantedPosition
	case KindScroll:
		w, ok := widget.(*view.ScrollView)
		return ok && w.ScrollOffset() == plantedScroll
	case KindSeekBar:
		w, ok := widget.(*view.SeekBar)
		return ok && w.Progress() == plantedProgress
	case KindStatusText:
		w, ok := widget.(*view.TextView)
		return ok && w.Text() == plantedText
	case KindAsyncImages:
		for _, iv := range collectImages(fg) {
			if iv.Drawable() != "drawable/fresh" {
				return false
			}
		}
		return true
	case KindExtras:
		v, ok := fg.Extra("appstate").(int64)
		return ok && v == plantedExtra
	case KindServiceState:
		return proc.ServiceRunning("server")
	default:
		return false
	}
}

// VerifySecondary checks the negative control: the stock-persisted
// EditText every generated app carries must survive the change under BOTH
// handling schemes. A false here indicates a handling bug rather than a
// table verdict.
func (m Model) VerifySecondary(proc *app.Process) bool {
	if proc.Crashed() {
		return false
	}
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		return false
	}
	w, ok := fg.FindViewByID(secondaryWidgetID).(*view.EditText)
	return ok && w.Text() == plantedSecondary
}
