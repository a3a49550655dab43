// Package view reimplements the slice of Android's view system the paper
// manipulates: a typed view tree rooted at a decor view, per-view saved
// state, the invalidate path (the hook point for RCHDroid's lazy
// migration), and the shadow/sunny flags RCHDroid adds to the View class.
//
// Crash semantics follow Android: once an activity is destroyed its views
// are released, and any later mutation — typically an AsyncTask callback —
// raises a NullPointerError, which the app layer turns into an app crash
// (the Fig 1 / Fig 9 failure mode).
package view

import (
	"fmt"
	"strconv"

	"rchdroid/internal/bundle"
)

// ID identifies a view within an activity, like R.id.*. NoID views exist
// but are skipped by state saving and essence mapping, as on Android.
type ID int

// NoID marks a view without an identifier.
const NoID ID = 0

// NullPointerError is the simulated NullPointerException raised when app
// code touches a view whose tree has been released by an activity restart.
type NullPointerError struct {
	ViewID   ID
	ViewType string
	Op       string
}

func (e *NullPointerError) Error() string {
	return fmt.Sprintf("NullPointerException: %s on released %s (id %d)", e.Op, e.ViewType, e.ViewID)
}

// WindowLeakedError is the simulated WindowLeakedException raised when a
// released window (decor view) is asked to re-attach or redraw.
type WindowLeakedError struct {
	ViewID ID
}

func (e *WindowLeakedError) Error() string {
	return fmt.Sprintf("WindowLeakedException: window of decor view %d has leaked", e.ViewID)
}

// AttachInfo is shared by every view attached to one window, mirroring
// View.AttachInfo. RCHDroid installs OnInvalidate here: the modified
// View.invalidate calls it with the view being updated, which is where
// lazy migration intercepts asynchronous updates (§3.3).
type AttachInfo struct {
	// OnInvalidate observes every invalidate call. May be nil.
	OnInvalidate func(v View)
	// Invalidations counts invalidate calls for CPU accounting.
	Invalidations int
}

// View is the behaviour common to every node in the tree.
type View interface {
	// ID returns the view's identifier (NoID if none).
	ID() ID
	// TypeName returns the concrete widget type, e.g. "TextView".
	TypeName() string
	// Base exposes the embedded BaseView for framework bookkeeping.
	Base() *BaseView
	// SaveState writes the view's instance state into b (its own section).
	SaveState(b *bundle.Bundle)
	// RestoreState reads the view's instance state from b.
	RestoreState(b *bundle.Bundle)
}

// BaseView carries the fields every widget shares. Concrete widgets embed
// it. The Shadow/Sunny fields and the sunny-peer pointer are the RCHDroid
// additions to the View class (Table 2, 79 LoC).
type BaseView struct {
	id       ID
	typeName string
	key      string // saved-state section key, "view:<id>"; see sectionKey
	parent   *ViewGroup
	attach   *AttachInfo
	self     View // the embedding widget, for callbacks and peers

	released bool
	dirty    bool
	visible  bool

	// RCHDroid state.
	shadow    bool
	sunny     bool
	sunnyPeer View
}

func (b *BaseView) init(self View, typeName string, id ID) {
	b.self = self
	b.typeName = typeName
	b.id = id
	b.visible = true
}

// sectionKey returns the view's saved-state section key, "view:<id>".
// An inflated view takes it from its layout node, which builds it once
// for every inflation (Spec.sectionKey); a view constructed in code
// builds it here, on its first save or restore. Views without an ID
// have no section and never ask.
func (b *BaseView) sectionKey() string {
	if b.key == "" {
		b.key = "view:" + strconv.Itoa(int(b.id))
	}
	return b.key
}

// ID implements View.
func (b *BaseView) ID() ID { return b.id }

// TypeName implements View.
func (b *BaseView) TypeName() string { return b.typeName }

// Base implements View.
func (b *BaseView) Base() *BaseView { return b }

// Self returns the concrete widget embedding this BaseView.
func (b *BaseView) Self() View { return b.self }

// Parent returns the containing view group, or nil at the root.
func (b *BaseView) Parent() *ViewGroup { return b.parent }

// Attach returns the window attach info, or nil when detached.
func (b *BaseView) Attach() *AttachInfo { return b.attach }

// Visible reports the visibility flag.
func (b *BaseView) Visible() bool { return b.visible }

// SetVisible changes the visibility flag and invalidates.
func (b *BaseView) SetVisible(v bool) {
	b.checkAlive("setVisibility")
	b.visible = v
	b.Invalidate()
}

// Dirty reports whether the view was invalidated since the last ClearDirty.
func (b *BaseView) Dirty() bool { return b.dirty }

// ClearDirty resets the dirty flag (done after a draw or a migration).
func (b *BaseView) ClearDirty() { b.dirty = false }

// Released reports whether the view's tree has been released.
func (b *BaseView) Released() bool { return b.released }

// Shadow reports the RCHDroid shadow flag.
func (b *BaseView) Shadow() bool { return b.shadow }

// Sunny reports the RCHDroid sunny flag.
func (b *BaseView) Sunny() bool { return b.sunny }

// SetShadow sets the shadow flag on this view only; use
// ViewGroup.DispatchShadowStateChanged to flag a whole subtree.
func (b *BaseView) SetShadow(on bool) { b.shadow = on }

// SetSunny sets the sunny flag on this view only.
func (b *BaseView) SetSunny(on bool) { b.sunny = on }

// SunnyPeer returns the corresponding view in the sunny activity's tree,
// or nil before the essence mapping is built.
func (b *BaseView) SunnyPeer() View { return b.sunnyPeer }

// SetSunnyPeer installs the essence-mapping pointer.
func (b *BaseView) SetSunnyPeer(peer View) { b.sunnyPeer = peer }

// Invalidate marks the view dirty and notifies the window's invalidate
// hook — the exact interception point of the paper's modified
// View.invalidate. Invalidating a released view raises NullPointerError,
// because on stock Android the async callback would be dereferencing a
// destroyed widget.
func (b *BaseView) Invalidate() {
	b.checkAlive("invalidate")
	b.dirty = true
	if b.attach != nil {
		b.attach.Invalidations++
		if b.attach.OnInvalidate != nil {
			b.attach.OnInvalidate(b.self)
		}
	}
}

// checkAlive panics with NullPointerError when the view has been released.
// The app layer recovers the panic into a process crash.
func (b *BaseView) checkAlive(op string) {
	if b.released {
		panic(&NullPointerError{ViewID: b.id, ViewType: b.typeName, Op: op})
	}
}

// release marks the view dead. Called by ViewGroup.Release on destroy.
func (b *BaseView) release() {
	b.released = true
	b.attach = nil
	b.sunnyPeer = nil
}

// saveSection allocates (or reuses) this view's nested bundle in out,
// with room for the n entries the caller will put. Savers put their keys
// in sorted order, so each put appends. Views without an ID save
// nothing, matching Android.
func (b *BaseView) saveSection(out *bundle.Bundle, n int) *bundle.Bundle {
	if b.id == NoID {
		return nil
	}
	return out.Section(b.sectionKey(), n)
}

// restoreSection fetches this view's nested bundle from in, or nil.
func (b *BaseView) restoreSection(in *bundle.Bundle) *bundle.Bundle {
	if b.id == NoID || in == nil {
		return nil
	}
	return in.GetBundle(b.sectionKey())
}

// SaveState implements View for widgets with no extra state.
func (b *BaseView) SaveState(out *bundle.Bundle) {
	if sec := b.saveSection(out, 1); sec != nil {
		sec.PutBool("visible", b.visible)
	}
}

// RestoreState implements View for widgets with no extra state.
func (b *BaseView) RestoreState(in *bundle.Bundle) {
	if sec := b.restoreSection(in); sec != nil {
		b.visible = sec.GetBool("visible", b.visible)
	}
}

func (b *BaseView) String() string {
	return fmt.Sprintf("%s#%d", b.typeName, b.id)
}

// Container is implemented by views that hold child views (*ViewGroup and
// *DecorView).
type Container interface {
	View
	Children() []View
}

// Walk visits v and every descendant in depth-first pre-order. The walk
// stops early if fn returns false.
func Walk(v View, fn func(View) bool) bool {
	if !fn(v) {
		return false
	}
	if g, ok := v.(Container); ok {
		for _, c := range g.Children() {
			if !Walk(c, fn) {
				return false
			}
		}
	}
	return true
}

// Count returns the number of views in the tree rooted at v, read from
// its census.
func Count(v View) int {
	views, _ := Census(v)
	return views
}

// Census returns how many views the tree rooted at v holds and how many
// of them are media views (ImageView or VideoView, whose decoded frames
// the cost model charges apart), without walking it: a group keeps both
// counts up to date as its subtree changes, and a leaf counts itself.
func Census(v View) (views, media int) {
	if g, ok := v.(grouper); ok {
		g := g.group()
		return g.views, g.media
	}
	switch v.(type) {
	case *ImageView, *VideoView:
		return 1, 1
	}
	return 1, 0
}

// CountByType returns a map of TypeName → count for the tree rooted at v.
func CountByType(v View) map[string]int {
	m := make(map[string]int)
	Walk(v, func(x View) bool { m[x.TypeName()]++; return true })
	return m
}

// FindByID returns the first view in the tree with the given id, or nil.
func FindByID(root View, id ID) View {
	var found View
	Walk(root, func(x View) bool {
		if x.ID() == id {
			found = x
			return false
		}
		return true
	})
	return found
}

// DirtyViews returns the views currently marked dirty, in tree order.
func DirtyViews(root View) []View {
	var out []View
	Walk(root, func(x View) bool {
		if x.Base().Dirty() {
			out = append(out, x)
		}
		return true
	})
	return out
}
