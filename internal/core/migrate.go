package core

import (
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// BuildEssenceMapping links each identified view of the shadow tree to
// the same-id view of the sunny tree (§3.3): it builds a hash table of
// the sunny tree's views keyed by view id (getAllSunnyViews), then
// traverses the shadow tree and stores the sunny peer pointer on each
// match (setSunnyViews). It returns the number of views mapped. Views
// without an id, and ids present in only one tree (layout variants may
// drop views), are skipped.
func BuildEssenceMapping(shadowRoot, sunnyRoot view.View) int {
	sunnyByID := make(map[view.ID]view.View)
	view.Walk(sunnyRoot, func(v view.View) bool {
		if v.ID() != view.NoID {
			sunnyByID[v.ID()] = v
		}
		return true
	})
	mapped := 0
	view.Walk(shadowRoot, func(v view.View) bool {
		if v.ID() == view.NoID {
			return true
		}
		if peer, ok := sunnyByID[v.ID()]; ok {
			v.Base().SetSunnyPeer(peer)
			mapped++
		}
		return true
	})
	return mapped
}

// BuildEssenceMappingQuadratic is the naive O(n²) matcher used only by
// the ablation bench: for every shadow view it scans the whole sunny
// tree. Results are identical to BuildEssenceMapping.
func BuildEssenceMappingQuadratic(shadowRoot, sunnyRoot view.View) int {
	mapped := 0
	view.Walk(shadowRoot, func(v view.View) bool {
		if v.ID() == view.NoID {
			return true
		}
		view.Walk(sunnyRoot, func(s view.View) bool {
			if s.ID() == v.ID() {
				v.Base().SetSunnyPeer(s)
				mapped++
				return false
			}
			return true
		})
		return true
	})
	return mapped
}

// InvertMapping flips the direction of an existing essence mapping during
// a coin flip: the old sunny tree (now shadow) gets peers pointing at the
// old shadow tree (now sunny). It returns the number of inverted links.
func InvertMapping(oldShadowRoot view.View) int {
	// Each link is relinked as the walk reaches it: the peers live in the
	// other tree, so relinking never changes what the walk visits.
	n := 0
	view.Walk(oldShadowRoot, func(v view.View) bool {
		if p := v.Base().SunnyPeer(); p != nil {
			p.Base().SetSunnyPeer(v)
			v.Base().SetSunnyPeer(nil)
			n++
		}
		return true
	})
	return n
}

// MigrateView applies the Table 1 per-type migration policy: it reads the
// essential attributes of the shadow view and writes them to its sunny
// peer. User-defined widgets migrate by the basic type they embed, which
// Go's type switch gives us for free through embedding-aware interface
// satisfaction. It returns the policy name applied, or "" when the view
// has no peer or no applicable policy.
func MigrateView(src view.View) string {
	peerV := src.Base().SunnyPeer()
	if peerV == nil {
		return ""
	}
	// Matching is structural on the basic type's attribute methods, so
	// user-defined widgets that embed a basic type inherit its policy.
	if s, ok := src.(interface{ Text() string }); ok {
		// TextView family: TextView, EditText, Button, CheckBox, user types.
		if d, ok := peerV.(interface{ SetText(string) }); ok {
			d.SetText(s.Text())
			// CheckBox carries its checked flag on top of the text.
			if sc, ok := src.(interface{ Checked() bool }); ok {
				if dc, ok := peerV.(interface{ SetChecked(bool) }); ok {
					dc.SetChecked(sc.Checked())
				}
			}
			return "setText"
		}
	}
	if s, ok := src.(interface {
		VideoURI() string
		PositionMS() int
		Playing() bool
	}); ok {
		if d, ok := peerV.(interface {
			SetVideoURI(string)
			SeekTo(int)
			SetPlaying(bool)
		}); ok {
			pos, playing := s.PositionMS(), s.Playing()
			d.SetVideoURI(s.VideoURI())
			d.SeekTo(pos)
			d.SetPlaying(playing)
			return "setVideoURI"
		}
	}
	if s, ok := src.(interface{ Drawable() string }); ok {
		if d, ok := peerV.(interface{ SetDrawable(string) }); ok {
			d.SetDrawable(s.Drawable())
			return "setDrawable"
		}
	}
	// AbsListView family and ProgressBar family are matched structurally
	// because several concrete types embed them.
	if s, ok := src.(interface {
		SelectorPosition() int
		CheckedPositions() []int
		ScrollOffset() int
	}); ok {
		if d, ok := peerV.(interface {
			PositionSelector(int)
			SetItemChecked(int, bool)
			ScrollTo(int)
		}); ok {
			d.PositionSelector(s.SelectorPosition())
			for _, p := range s.CheckedPositions() {
				d.SetItemChecked(p, true)
			}
			d.ScrollTo(s.ScrollOffset())
			return "positionSelector"
		}
	}
	if s, ok := src.(interface {
		ElapsedSec() int
		Running() bool
	}); ok {
		if d, ok := peerV.(interface {
			SetElapsedSec(int)
			Start()
			Stop()
		}); ok {
			d.SetElapsedSec(s.ElapsedSec())
			if s.Running() {
				d.Start()
			} else {
				d.Stop()
			}
			return "setBase"
		}
	}
	if s, ok := src.(interface{ Progress() int }); ok {
		if d, ok := peerV.(interface{ SetProgress(int) }); ok {
			d.SetProgress(s.Progress())
			return "setProgress"
		}
	}
	return ""
}

// Migrator owns the lazy-migration machinery for one activity thread: the
// invalidate hook it installs on the shadow tree, the set of views dirtied
// by asynchronous callbacks, and the migration statistics of Fig 10b.
type Migrator struct {
	thread  *app.ActivityThread
	pending []view.View
	inSet   map[view.View]bool
	eager   bool

	// flushFault, if set, may defer a flush by the returned duration
	// (chaos: "migration interrupted between save and restore"); the
	// deferred batch is re-flushed when the delay expires.
	flushFault func(pending int) time.Duration
	deferred   bool

	migrations     int
	viewsMigrated  int
	migrationTimes []time.Duration

	// OnMigrated, if set, observes each flushed migration batch.
	OnMigrated func(views int, d time.Duration)
}

// NewMigrator returns a migrator for the thread.
func NewMigrator(t *app.ActivityThread) *Migrator {
	return &Migrator{thread: t, inSet: make(map[view.View]bool)}
}

// InstallHook arms the invalidate hook on a shadow activity's window so
// that updates from late asynchronous tasks are caught (the View.invalidate
// modification).
func (m *Migrator) InstallHook(shadow *app.Activity) {
	shadow.Decor().AttachInfoRef().OnInvalidate = func(v view.View) {
		if !v.Base().Shadow() || v.Base().SunnyPeer() == nil {
			return
		}
		if !m.inSet[v] {
			m.inSet[v] = true
			m.pending = append(m.pending, v)
			if tr, track := m.thread.Trace(); tr.Enabled() {
				tr.Instant(track, "rch:viewDirtied", "rch",
					trace.Arg{Key: "view", Val: int(v.ID())},
					trace.Arg{Key: "pending", Val: len(m.pending)})
			}
		}
	}
}

// RemoveHook disarms the hook (the activity is leaving the shadow state).
func (m *Migrator) RemoveHook(a *app.Activity) {
	a.Decor().AttachInfoRef().OnInvalidate = nil
}

// PendingCount returns the number of views awaiting migration.
func (m *Migrator) PendingCount() int { return len(m.pending) }

// FlushDeferred reports whether an injected flush deferral is pending —
// a window in which unflushed views are expected, not a leak.
func (m *Migrator) FlushDeferred() bool { return m.deferred }

// Flush migrates every pending view to its sunny peer as one charged
// phase — the lazy-migration step that runs when an asynchronous task's
// callback has finished updating the shadow tree. It is a no-op with
// nothing pending.
func (m *Migrator) Flush() {
	if len(m.pending) == 0 {
		return
	}
	if m.deferred {
		return // an injected deferral is pending; its timer re-flushes
	}
	if m.flushFault != nil {
		if d := m.flushFault(len(m.pending)); d > 0 {
			m.deferred = true
			m.thread.Process().UILooper().PostDelayed(d, "chaos:flushLater", 0, func() {
				m.deferred = false
				m.Flush()
			})
			return
		}
	}
	batch := m.pending
	m.pending = nil
	m.inSet = make(map[view.View]bool)
	if m.eager {
		// Ablation: migrate every mapped view of the shadow tree, not
		// just the dirtied ones.
		if shadow := m.thread.CurrentShadow(); shadow != nil {
			batch = batch[:0]
			view.Walk(shadow.Decor(), func(v view.View) bool {
				if v.Base().SunnyPeer() != nil {
					batch = append(batch, v)
				}
				return true
			})
		}
	}

	model := m.thread.Process().Model()
	cost := model.MigrateViews(len(batch))
	if tr, track := m.thread.Trace(); tr.Enabled() {
		tr.Instant(track, "rch:migrateFlush", "rch",
			trace.Arg{Key: "batch", Val: len(batch)})
	}
	m.thread.RunCharged("rch:lazyMigrate", func() time.Duration {
		n := 0
		for _, v := range batch {
			if MigrateView(v) != "" {
				n++
			}
			v.Base().ClearDirty()
		}
		m.migrations++
		m.viewsMigrated += n
		m.migrationTimes = append(m.migrationTimes, cost)
		if m.OnMigrated != nil {
			m.OnMigrated(n, cost)
		}
		return cost
	})
}

// SetFlushFault installs (or, with nil, removes) the flush-deferral
// fault hook.
func (m *Migrator) SetFlushFault(fn func(pending int) time.Duration) { m.flushFault = fn }

// Migrations returns how many migration batches have been flushed.
func (m *Migrator) Migrations() int { return m.migrations }

// ViewsMigrated returns the total number of views migrated.
func (m *Migrator) ViewsMigrated() int { return m.viewsMigrated }

// MigrationTimes returns the charged duration of each batch (the Fig 10b
// metric).
func (m *Migrator) MigrationTimes() []time.Duration {
	out := make([]time.Duration, len(m.migrationTimes))
	copy(out, m.migrationTimes)
	return out
}
