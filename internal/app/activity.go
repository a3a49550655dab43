package app

import (
	"fmt"
	"time"

	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// Callbacks is the app-defined lifecycle logic — the "black box" RCHDroid
// must not rely on (§3, challenge 1). Nil members model apps that did not
// implement the callback, which is precisely the Table 3 / Table 5
// distinction: user state outside views is preserved across a change only
// if OnSaveInstanceState is non-nil and stores it.
type Callbacks struct {
	// OnCreate must build the UI, typically via SetContentView. saved is
	// nil on a cold start.
	OnCreate func(a *Activity, saved *bundle.Bundle)
	// OnSaveInstanceState stores app-private state. Nil means the app
	// never implemented it (92.4% of developers per the paper).
	OnSaveInstanceState func(a *Activity, out *bundle.Bundle)
	// OnRestoreInstanceState restores app-private state after OnCreate.
	OnRestoreInstanceState func(a *Activity, saved *bundle.Bundle)
	// OnConfigurationChanged runs instead of a restart when the activity
	// declared the change in android:configChanges.
	OnConfigurationChanged func(a *Activity, newCfg config.Configuration)
	// OnStart runs when the activity becomes visible.
	OnStart func(a *Activity)
	// OnResume runs when the activity becomes interactive.
	OnResume func(a *Activity)
	// OnPause runs when the activity loses focus.
	OnPause func(a *Activity)
	// OnStop runs when the activity is no longer visible.
	OnStop func(a *Activity)
	// OnDestroy runs before the instance is torn down.
	OnDestroy func(a *Activity)
}

// ActivityClass is the blueprint for activity instances: name, app logic
// and the android:configChanges declaration.
type ActivityClass struct {
	// Name is the activity class name within its app.
	Name string
	// Callbacks holds the app logic.
	Callbacks Callbacks
	// DeclaredChanges is the android:configChanges mask; changes fully
	// covered by it are delivered to OnConfigurationChanged instead of
	// triggering a restart.
	DeclaredChanges config.Change
	// FragmentClasses registers the fragment blueprints the activity may
	// attach, keyed by class name, so saved fragments can be
	// re-instantiated on a new instance.
	FragmentClasses map[string]*FragmentClass
	// ExtraCreateCost charges additional onCreate app logic (database
	// opens, view-model setup) beyond the framework's base cost. Real
	// apps vary widely here, which is what spreads Fig 7 / Fig 14.
	ExtraCreateCost time.Duration
	// ExtraResumeCost charges additional onResume app logic (refreshing
	// content, re-registering listeners). Both the restart path and
	// RCHDroid's flip path pay it.
	ExtraResumeCost time.Duration
}

// Activity is one live activity instance. Instances are created by the
// activity thread on launch transactions and must only be touched from
// the UI looper, as on Android.
type Activity struct {
	class   *ActivityClass
	proc    *Process
	token   int
	state   LifecycleState
	cfg     config.Configuration
	decor   *view.DecorView
	content view.View

	// savedShadowState is the bundle snapshotted when entering the
	// shadow state (§3.2). Nothing writes into a held snapshot: the flip
	// and the sunny launch only restore from it. So its size, which the
	// memory charge reads on every update, is taken once, in
	// shadowStateBytes, when SetShadowSnapshot installs it.
	savedShadowState *bundle.Bundle
	shadowStateBytes int64

	// stateLen is the key count of the saved state this instance last
	// restored from or snapshotted, the size of its next save.
	stateLen int

	// enteredShadowAt and shadowEntries feed the threshold GC (§3.5).
	enteredShadowAt sim.Time
	shadowEntries   []sim.Time

	// extras is scratch state app callbacks may hang data on (fields of
	// the Java activity subclass).
	extras map[string]any

	// fragmentMgr is created lazily by Fragments().
	fragmentMgr *FragmentManager

	// dialogs owned by this instance (ShowDialog).
	dialogs []*Dialog

	// asyncInFlight counts background tasks started by this instance
	// whose results have not yet been delivered.
	asyncInFlight int

	// timers owned by this instance (StartUITimer).
	timers []*UITimer
}

func newActivity(class *ActivityClass, proc *Process, token int, cfg config.Configuration) *Activity {
	return &Activity{
		class:  class,
		proc:   proc,
		token:  token,
		state:  StateNone,
		cfg:    cfg,
		decor:  view.NewDecorView(view.ID(-token)),
		extras: make(map[string]any),
	}
}

// Class returns the activity's blueprint.
func (a *Activity) Class() *ActivityClass { return a.class }

// Token returns the ATMS record token this instance corresponds to.
func (a *Activity) Token() int { return a.token }

// Process returns the owning process.
func (a *Activity) Process() *Process { return a.proc }

// State returns the current lifecycle state.
func (a *Activity) State() LifecycleState { return a.state }

// Config returns the configuration the instance was built for.
func (a *Activity) Config() config.Configuration { return a.cfg }

// Decor returns the window root.
func (a *Activity) Decor() *view.DecorView { return a.decor }

// Content returns the view set by SetContentView, or nil.
func (a *Activity) Content() view.View { return a.content }

// ViewCount returns the number of views under the decor, excluding the
// decor itself. It reads the decor's census and does not walk the tree.
func (a *Activity) ViewCount() int {
	return view.Count(a.decor) - 1
}

// setState transitions the lifecycle, panicking on an illegal edge — any
// such edge is a framework bug, matching Android's fatal lifecycle
// assertions.
func (a *Activity) setState(to LifecycleState) {
	if !CanTransition(a.state, to) {
		panic(fmt.Sprintf("app: illegal lifecycle transition %v → %v for %s", a.state, to, a.class.Name))
	}
	a.state = to
}

// SetContentView inflates the named layout for the instance's
// configuration and installs it as the window content — the Android
// setContentView(R.layout.x). It resolves the layout from the app's
// resource table, so portrait and landscape variants differ when the app
// defines them.
func (a *Activity) SetContentView(layout string) view.View {
	specAny := a.proc.app.Resources.MustResolve(layout, a.cfg)
	spec, ok := specAny.(*view.Spec)
	if !ok {
		panic(fmt.Sprintf("app: resource %q is not a layout", layout))
	}
	a.content = view.InflateInto(a.decor, spec)
	return a.content
}

// SetContentSpec installs an in-code layout (views "dynamically generated
// by code", §2.2).
func (a *Activity) SetContentSpec(spec *view.Spec) view.View {
	a.content = view.InflateInto(a.decor, spec)
	return a.content
}

// FindViewByID locates a view in this instance's tree.
func (a *Activity) FindViewByID(id view.ID) view.View {
	return view.FindByID(a.decor, id)
}

// GetString resolves a string resource against the instance's
// configuration.
func (a *Activity) GetString(name, def string) string {
	return a.proc.app.Resources.String(name, a.cfg, def)
}

// PutExtra stores app-private instance state (a field on the activity
// subclass). Extras are NOT saved across restarts unless the app's
// OnSaveInstanceState writes them to the bundle — the root cause of the
// unfixable Table 3 rows.
func (a *Activity) PutExtra(key string, v any) { a.extras[key] = v }

// Extra reads app-private instance state.
func (a *Activity) Extra(key string) any { return a.extras[key] }

// AsyncInFlight counts this instance's undelivered background tasks.
func (a *Activity) AsyncInFlight() int { return a.asyncInFlight }

// StartAsyncTask launches a background task that completes after d and
// then delivers onPost on the UI thread — the AsyncTask pattern of Fig 1.
// The closure typically captures views of THIS instance; after a stock
// restart those views are released and the delivery crashes the app.
func (a *Activity) StartAsyncTask(name string, d time.Duration, onPost func()) {
	a.proc.StartAsyncTask(a, name, d, onPost)
}

// StartActivity asks the system server to start another activity of the
// same app on top of this one (startActivity(new Intent(...))).
func (a *Activity) StartActivity(className string) {
	if sys := a.proc.thread.system; sys != nil {
		sys.RequestStartActivity(NewIntent(a.proc.app.Name, className), a.token)
	}
}

// SaveInstanceState produces the full saved-state bundle: the view
// hierarchy state plus whatever the app's OnSaveInstanceState adds. It
// has no side effects as long as the app's callback has none (none in
// this repository does): it only reads the activity, so saving twice
// with nothing changed in between yields equal bundles. The bundle is
// sized from the saved state the instance last restored from or
// snapshotted, so a save without a structural change never regrows.
func (a *Activity) SaveInstanceState() *bundle.Bundle {
	out := bundle.NewCap(max(2, a.stateLen))
	a.saveAppState(out)
	a.fragmentMgr.saveMeta(out)
	a.decor.SaveState(out)
	return out
}

// SaveInstanceStateStock produces the bundle a stock restart carries
// across: only the view states Android persists by default (see
// view.StockSaver) plus the app's own OnSaveInstanceState contribution.
// RCHDroid's shadow snapshot uses SaveInstanceState instead, which covers
// every Table 1 attribute.
func (a *Activity) SaveInstanceStateStock() *bundle.Bundle {
	out := bundle.New()
	a.saveAppState(out)
	a.fragmentMgr.saveMeta(out) // FragmentManager state IS stock-persisted
	view.SaveStockTree(a.decor, out)
	return out
}

// saveAppState puts the app's OnSaveInstanceState section into out, if
// the app implements the callback. The saves put it first, then the
// fragment metadata, then the views: their keys ("app:", "fragments:",
// "view:") sort in that order, so each section appends.
func (a *Activity) saveAppState(out *bundle.Bundle) {
	if cb := a.class.Callbacks.OnSaveInstanceState; cb != nil {
		appState := bundle.New()
		cb(a, appState)
		out.PutBundle("app:private", appState)
	}
}

// RestoreInstanceState applies a saved-state bundle: view hierarchy state
// first, then the app's OnRestoreInstanceState with its private section.
func (a *Activity) RestoreInstanceState(saved *bundle.Bundle) {
	if saved == nil {
		return
	}
	a.stateLen = saved.Len()
	// Fragments first: re-attaching them creates their views, which the
	// view-state pass below then restores by id.
	a.restoreMeta(saved)
	a.decor.RestoreState(saved)
	if a.class.Callbacks.OnRestoreInstanceState != nil {
		a.class.Callbacks.OnRestoreInstanceState(a, saved.GetBundle("app:private"))
	}
}

// EnterShadow moves a visible activity into the Shadow state: it leaves
// the screen but its instance and view tree stay alive (§3.2). The core
// package calls this from the RCHDroid change handler.
func (a *Activity) EnterShadow(now sim.Time) {
	a.setState(StateShadow)
	a.decor.DetachFromWindow()
	a.EnterShadowBookkeeping(now)
}

// FlipToSunny moves a shadow activity back to the foreground during a
// coin flip (§3.4).
func (a *Activity) FlipToSunny() {
	a.setState(StateSunny)
	a.decor.AttachToWindow()
	a.LeaveShadowBookkeeping()
}

// DemoteShadowToStopped moves a shadow activity to plain Stopped: it is
// no longer coupled to the foreground activity (no migration, no record)
// but stays alive so in-flight asynchronous callbacks land on live views
// instead of crashing. The thread destroys it once those tasks drain.
func (a *Activity) DemoteShadowToStopped() {
	a.setState(StateStopped)
	a.decor.DispatchShadowStateChanged(false)
}

// DemoteToStopped walks a visible activity down the stock pause→stop
// path without destroying it: the instance and its view tree stay alive
// so in-flight asynchronous callbacks land on live views. The guard's
// stock-route fallback uses it in place of an immediate destroy when a
// relaunch would otherwise tear down an instance with tasks in flight;
// the thread reaps the zombie once those drain.
func (a *Activity) DemoteToStopped() {
	a.setState(StatePaused)
	if a.class.Callbacks.OnPause != nil {
		a.class.Callbacks.OnPause(a)
	}
	a.setState(StateStopped)
	if a.class.Callbacks.OnStop != nil {
		a.class.Callbacks.OnStop(a)
	}
	a.decor.DetachFromWindow()
	a.decor.DispatchSunnyStateChanged(false)
}

// SettleToResumed demotes a sunny activity to plain Resumed when its
// coupled shadow partner has been garbage-collected.
func (a *Activity) SettleToResumed() {
	a.setState(StateResumed)
	a.decor.DispatchSunnyStateChanged(false)
}

// ApplyConfiguration records the configuration now in effect for the
// instance (the flip path applies the new configuration to the reused
// shadow instance instead of inflating a new tree).
func (a *Activity) ApplyConfiguration(cfg config.Configuration) { a.cfg = cfg }

// ShadowSnapshot returns the bundle captured when the activity entered
// the shadow state, or nil.
func (a *Activity) ShadowSnapshot() *bundle.Bundle { return a.savedShadowState }

// SetShadowSnapshot stores the shadow-entry snapshot and records its
// size for the memory charge. The caller hands the snapshot over:
// nothing may write into it afterwards.
func (a *Activity) SetShadowSnapshot(b *bundle.Bundle) {
	a.savedShadowState = b
	a.shadowStateBytes = int64(b.SizeBytes())
	a.stateLen = b.Len()
}

// EnterShadowBookkeeping records a shadow entry for the GC policy and
// flags the tree.
func (a *Activity) EnterShadowBookkeeping(now sim.Time) {
	a.enteredShadowAt = now
	a.shadowEntries = append(a.shadowEntries, now)
	a.decor.DispatchShadowStateChanged(true)
	a.decor.DispatchSunnyStateChanged(false)
}

// LeaveShadowBookkeeping clears the shadow flags on a flip back to sunny.
func (a *Activity) LeaveShadowBookkeeping() {
	a.decor.DispatchShadowStateChanged(false)
	a.decor.DispatchSunnyStateChanged(true)
}

// ShadowTime returns how long the activity has been in the shadow state.
func (a *Activity) ShadowTime(now sim.Time) time.Duration {
	return now.Sub(a.enteredShadowAt)
}

// ShadowFrequency counts shadow entries within the trailing window, the
// shadow_frequency input of Algorithm 1.
func (a *Activity) ShadowFrequency(now sim.Time, window time.Duration) int {
	n := 0
	for _, t := range a.shadowEntries {
		if now.Sub(t) <= window {
			n++
		}
	}
	return n
}

// MemoryBytes returns the instance's heap footprint under the cost model:
// base + per-view cost (image-bearing views carry decoded bitmaps) + the
// shadow snapshot, if any. A showing dialog's views, its decor included,
// count at the plain per-view cost. The view counts come from the decors'
// census and the snapshot size from SetShadowSnapshot, so nothing is
// walked.
func (a *Activity) MemoryBytes() int64 {
	if !a.state.Alive() {
		return 0
	}
	m := a.proc.model
	views, media := view.Census(a.decor)
	total := m.ActivityBaseBytes + int64(views-media)*m.ViewBytes + int64(media)*m.ImageViewBytes
	for _, d := range a.dialogs {
		if d.showing {
			total += int64(view.Count(d.decor)) * m.ViewBytes
		}
	}
	if a.savedShadowState != nil {
		total += m.BundleOverhead + a.shadowStateBytes
	}
	return total
}

func (a *Activity) String() string {
	return fmt.Sprintf("%s#%d[%v]", a.class.Name, a.token, a.state)
}
