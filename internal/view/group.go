package view

import "rchdroid/internal/bundle"

// ViewGroup is a view that contains other views. LinearLayout, FrameLayout
// and the decor view are all ViewGroups; the reproduction does not model
// layout geometry, so one concrete group type with a TypeName suffices.
// The dispatch functions are the RCHDroid additions (Table 2, 12 LoC).
//
// A group keeps the census of its subtree, itself included: how many
// views it holds and how many of them are media views. AddChild,
// RemoveChild and Inflate keep it current along the parent chain, so
// Count, Census and the cost model's memory charge read it instead of
// walking the tree.
type ViewGroup struct {
	BaseView
	children []View
	views    int
	media    int
}

// grouper is implemented by *ViewGroup and every type embedding it.
type grouper interface{ group() *ViewGroup }

func (g *ViewGroup) group() *ViewGroup { return g }

// NewGroup returns an empty view group with the given type name and id.
func NewGroup(typeName string, id ID) *ViewGroup {
	g := &ViewGroup{views: 1}
	g.init(g, typeName, id)
	return g
}

// NewLinearLayout returns a group named LinearLayout.
func NewLinearLayout(id ID) *ViewGroup { return NewGroup("LinearLayout", id) }

// NewFrameLayout returns a group named FrameLayout.
func NewFrameLayout(id ID) *ViewGroup { return NewGroup("FrameLayout", id) }

// Children returns the direct children in order.
func (g *ViewGroup) Children() []View { return g.children }

// AddChild appends child, attaching it (and its subtree) to this group's
// window.
func (g *ViewGroup) AddChild(child View) {
	g.checkAlive("addView")
	cb := child.Base()
	cb.parent = g
	g.children = append(g.children, child)
	attachSubtree(child, g.attach)
	g.tally(child, 1)
	g.Invalidate()
}

// RemoveChild detaches child if present.
func (g *ViewGroup) RemoveChild(child View) {
	g.checkAlive("removeView")
	for i, c := range g.children {
		if c == child {
			g.children = append(g.children[:i], g.children[i+1:]...)
			child.Base().parent = nil
			attachSubtree(child, nil)
			g.tally(child, -1)
			g.Invalidate()
			return
		}
	}
}

// tally adds sign times child's census to g and every group above it.
func (g *ViewGroup) tally(child View, sign int) {
	views, media := Census(child)
	for p := g; p != nil; p = p.parent {
		p.views += sign * views
		p.media += sign * media
	}
}

func attachSubtree(v View, info *AttachInfo) {
	Walk(v, func(x View) bool {
		x.Base().attach = info
		return true
	})
}

// DispatchShadowStateChanged propagates the shadow flag through the
// subtree (dispatchShadowStateChanged in the paper).
func (g *ViewGroup) DispatchShadowStateChanged(on bool) {
	Walk(g, func(x View) bool {
		x.Base().SetShadow(on)
		return true
	})
}

// DispatchSunnyStateChanged propagates the sunny flag through the subtree
// (dispatchSunnyStateChanged in the paper).
func (g *ViewGroup) DispatchSunnyStateChanged(on bool) {
	Walk(g, func(x View) bool {
		x.Base().SetSunny(on)
		return true
	})
}

// SaveState saves the group's own state and recurses into children,
// mirroring View hierarchy freezing.
func (g *ViewGroup) SaveState(out *bundle.Bundle) {
	g.BaseView.SaveState(out)
	for _, c := range g.children {
		c.SaveState(out)
	}
}

// RestoreState restores the group's own state and recurses into children.
func (g *ViewGroup) RestoreState(in *bundle.Bundle) {
	g.BaseView.RestoreState(in)
	for _, c := range g.children {
		c.RestoreState(in)
	}
}

// Release marks every view in the subtree released and drops the window
// hook. After Release, any mutation of a contained view raises
// NullPointerError.
func (g *ViewGroup) Release() {
	Walk(g, func(x View) bool {
		x.Base().release()
		return true
	})
}

// DecorView is the root of a window's tree — "a special view group that
// contains views and other view groups" (§2.1).
type DecorView struct {
	ViewGroup
	attachInfo AttachInfo
	attached   bool
}

// NewDecorView returns a decor view owning a fresh AttachInfo.
func NewDecorView(id ID) *DecorView {
	d := &DecorView{}
	d.views = 1
	d.init(d, "DecorView", id)
	d.attach = &d.attachInfo
	return d
}

// AttachInfoRef returns the window's AttachInfo so callers can install the
// invalidate hook.
func (d *DecorView) AttachInfoRef() *AttachInfo { return &d.attachInfo }

// AttachToWindow marks the decor attached. Re-attaching a released decor
// raises WindowLeakedError, the second crash mode of §2.3.
func (d *DecorView) AttachToWindow() {
	if d.released {
		panic(&WindowLeakedError{ViewID: d.id})
	}
	d.attached = true
	attachSubtree(d, &d.attachInfo)
}

// DetachFromWindow marks the decor detached (activity no longer visible).
func (d *DecorView) DetachFromWindow() { d.attached = false }

// AttachedToWindow reports whether the window is attached.
func (d *DecorView) AttachedToWindow() bool { return d.attached }

// AddChild attaches children to the decor's own AttachInfo.
func (d *DecorView) AddChild(child View) {
	d.checkAlive("addView")
	cb := child.Base()
	cb.parent = &d.ViewGroup
	d.children = append(d.children, child)
	attachSubtree(child, &d.attachInfo)
	d.tally(child, 1)
	d.Invalidate()
}
