package view

import "fmt"

// This file implements deep-copying of settled view trees for the device
// snapshot/fork facility. A clone must be indistinguishable from the tree
// a fresh run would have produced at the same point, so every widget's
// value state (text, selection, progress, flags) is copied while anything
// that ties a tree to its old world — parent/attach pointers, sunny peers,
// click handlers, invalidate hooks — either is rewired into the clone or
// makes the tree unforkable (an error, so callers fall back to a fresh
// build rather than sharing state across worlds).

// cloner carries the pointer-translation state through one deep copy:
// the one retained pointer want and its clone got.
type cloner struct {
	want View
	got  View
}

func (c *cloner) clone(v View) (View, error) {
	b := v.Base()
	if b.released {
		return nil, fmt.Errorf("view: clone of released %s", b)
	}
	if b.sunnyPeer != nil {
		return nil, fmt.Errorf("view: clone of %s with sunny peer installed", b)
	}

	var out View
	switch w := v.(type) {
	case *DecorView:
		if w.attachInfo.OnInvalidate != nil {
			return nil, fmt.Errorf("view: clone of %s with OnInvalidate hook installed", b)
		}
		cp := *w
		cp.children = nil
		out = &cp
	case *ViewGroup:
		cp := *w
		cp.children = nil
		out = &cp
	case *TextView:
		cp := *w
		out = &cp
	case *EditText:
		cp := *w
		out = &cp
	case *Button:
		if w.onClick != nil {
			return nil, fmt.Errorf("view: clone of %s with click handler installed", b)
		}
		cp := *w
		out = &cp
	case *CheckBox:
		cp := *w
		out = &cp
	case *Switch:
		cp := *w
		out = &cp
	case *CustomTextView:
		cp := *w
		out = &cp
	case *ImageView:
		cp := *w
		out = &cp
	case *AbsListView:
		cp := *w
		cloneListState(&cp)
		out = &cp
	case *ListView:
		cp := *w
		cloneListState(&cp.AbsListView)
		out = &cp
	case *GridView:
		cp := *w
		cloneListState(&cp.AbsListView)
		out = &cp
	case *ScrollView:
		cp := *w
		cloneListState(&cp.AbsListView)
		out = &cp
	case *Spinner:
		cp := *w
		cloneListState(&cp.AbsListView)
		out = &cp
	case *VideoView:
		cp := *w
		out = &cp
	case *ProgressBar:
		cp := *w
		out = &cp
	case *SeekBar:
		cp := *w
		out = &cp
	case *RatingBar:
		cp := *w
		out = &cp
	case *Chronometer:
		cp := *w
		out = &cp
	default:
		return nil, fmt.Errorf("view: no clone support for %T", v)
	}

	nb := out.Base()
	nb.self = out
	nb.parent = nil
	nb.attach = nil
	nb.sunnyPeer = nil
	if v == c.want {
		c.got = out
	}

	if src, ok := v.(Container); ok {
		group := containerGroup(out)
		for _, child := range src.Children() {
			nc, err := c.clone(child)
			if err != nil {
				return nil, err
			}
			nc.Base().parent = group
			group.children = append(group.children, nc)
		}
	}

	// A cloned decor owns its copied AttachInfo; re-point the whole
	// subtree at it, exactly as AddChild did in the original.
	if d, ok := out.(*DecorView); ok {
		attachSubtree(d, &d.attachInfo)
	}
	return out, nil
}

// CloneDecor deep-copies the view tree rooted at a window's decor,
// translating the one retained pointer an activity holds into its tree
// (want may be nil). It returns the cloned decor and want's clone.
//
// CloneDecor fails when the tree is entangled with its world: a released
// view, a Button with a click handler, an essence-mapped sunny peer, or a
// DecorView with an OnInvalidate hook installed. Those only appear once
// chaos/core arms are live or a flip is in flight — never in a settled
// pre-chaos world.
func CloneDecor(d *DecorView, want View) (*DecorView, View, error) {
	c := &cloner{want: want}
	out, err := c.clone(d)
	if err != nil {
		return nil, nil, err
	}
	return out.(*DecorView), c.got, nil
}

// cloneListState replaces an AbsListView's shared reference state (adapter
// items, checked set) with private copies.
func cloneListState(l *AbsListView) {
	items := make([]string, len(l.items))
	copy(items, l.items)
	l.items = items
	checked := make(map[int]bool, len(l.checkedItems))
	for k, v := range l.checkedItems {
		checked[k] = v
	}
	l.checkedItems = checked
}

// containerGroup returns the *ViewGroup a cloned container's children hang
// off — the embedded group for a DecorView, the group itself otherwise —
// matching the parent pointer AddChild would have set.
func containerGroup(v View) *ViewGroup {
	switch g := v.(type) {
	case *DecorView:
		return &g.ViewGroup
	case *ViewGroup:
		return g
	}
	panic(fmt.Sprintf("view: %T is not a container", v))
}
