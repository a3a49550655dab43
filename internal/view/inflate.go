package view

import (
	"fmt"
	"strconv"
	"sync"
)

// Spec is a declarative layout description — the reproduction's stand-in
// for a layout XML file. Specs are stored in the resource table under
// "layout/..." names, qualified per configuration (layout-port vs
// layout-land), and inflated into a fresh view tree on activity creation.
// A spec is read-only once inflated: the worlds of one app inflate its
// layouts concurrently, and each node keeps the section key it built
// for its first inflation.
type Spec struct {
	// Type names the widget: "LinearLayout", "TextView", "EditText",
	// "Button", "CheckBox", "ImageView", "ListView", "GridView",
	// "ScrollView", "VideoView", "ProgressBar", "SeekBar",
	// "CustomTextView", "FrameLayout", "AbsListView".
	Type string
	// ID is the view identifier; NoID views are legal but unsaved.
	ID ID
	// Text initialises TextView-family widgets.
	Text string
	// Drawable initialises ImageViews.
	Drawable string
	// Items initialises AbsListView-family widgets.
	Items []string
	// Max initialises ProgressBar-family widgets (0 → 100).
	Max int
	// URI initialises VideoViews.
	URI string
	// Children nest under group types.
	Children []*Spec

	// keyOnce guards key, the saved-state section key ("view:<id>") of
	// every view inflated from this node.
	keyOnce sync.Once
	key     string
}

// sectionKey returns the section key of the views inflated from s,
// building it on the first call; "" for NoID.
func (s *Spec) sectionKey() string {
	if s.ID == NoID {
		return ""
	}
	s.keyOnce.Do(func() { s.key = "view:" + strconv.Itoa(int(s.ID)) })
	return s.key
}

// CountSpecs returns the number of views the spec will inflate.
func (s *Spec) CountSpecs() int {
	n := 1
	for _, c := range s.Children {
		n += c.CountSpecs()
	}
	return n
}

// Inflate builds the view described by s, detached from any window.
// Each group's children slice is made at its exact size, with parents
// and the census set as the subtree is built; a group with children is
// left dirty, as adding them one by one would leave it. No attach
// pointer is set: the subtree attaches once, when it joins a window
// through AddChild. List widgets share the spec's items (they never
// write them). Unknown types panic (InflateException on Android).
func Inflate(s *Spec) View {
	v := newFromSpec(s)
	v.Base().key = s.sectionKey()
	if len(s.Children) > 0 {
		g, ok := v.(*ViewGroup)
		if !ok {
			panic(fmt.Sprintf("view: InflateException: %q cannot have children", s.Type))
		}
		g.children = make([]View, len(s.Children))
		for i, c := range s.Children {
			child := Inflate(c)
			child.Base().parent = g
			g.children[i] = child
			views, media := Census(child)
			g.views += views
			g.media += media
		}
		g.dirty = true
	}
	return v
}

// newFromSpec constructs the widget s names, without children.
func newFromSpec(s *Spec) View {
	switch s.Type {
	case "LinearLayout":
		return NewLinearLayout(s.ID)
	case "FrameLayout":
		return NewFrameLayout(s.ID)
	case "ViewGroup":
		return NewGroup("ViewGroup", s.ID)
	case "TextView":
		return NewTextView(s.ID, s.Text)
	case "EditText":
		return NewEditText(s.ID, s.Text)
	case "Button":
		return NewButton(s.ID, s.Text)
	case "CheckBox":
		return NewCheckBox(s.ID, s.Text)
	case "ImageView":
		return NewImageView(s.ID, s.Drawable)
	case "AbsListView":
		return NewAbsListView(s.ID, s.Items)
	case "ListView":
		return NewListView(s.ID, s.Items)
	case "GridView":
		return NewGridView(s.ID, s.Items)
	case "ScrollView":
		return NewScrollView(s.ID, s.Items)
	case "VideoView":
		return NewVideoView(s.ID, s.URI)
	case "ProgressBar":
		return NewProgressBar(s.ID, s.Max)
	case "SeekBar":
		return NewSeekBar(s.ID, s.Max)
	case "CustomTextView":
		return NewCustomTextView(s.ID, s.Text)
	case "Spinner":
		return NewSpinner(s.ID, s.Items)
	case "Switch":
		return NewSwitch(s.ID, s.Text)
	case "RatingBar":
		return NewRatingBar(s.ID, s.Max)
	case "Chronometer":
		return NewChronometer(s.ID)
	}
	panic(fmt.Sprintf("view: InflateException: unknown type %q", s.Type))
}

// InflateInto inflates s into a decor view, attaching the result as the
// window content (setContentView).
func InflateInto(decor *DecorView, s *Spec) View {
	content := Inflate(s)
	decor.AddChild(content)
	return content
}

// Group is a convenience constructor for layout specs.
func Group(typ string, id ID, children ...*Spec) *Spec {
	return &Spec{Type: typ, ID: id, Children: children}
}

// Linear is shorthand for a LinearLayout spec.
func Linear(id ID, children ...*Spec) *Spec {
	return Group("LinearLayout", id, children...)
}

// Text is shorthand for a TextView spec.
func Text(id ID, text string) *Spec { return &Spec{Type: "TextView", ID: id, Text: text} }

// Edit is shorthand for an EditText spec.
func Edit(id ID, text string) *Spec { return &Spec{Type: "EditText", ID: id, Text: text} }

// Btn is shorthand for a Button spec.
func Btn(id ID, label string) *Spec { return &Spec{Type: "Button", ID: id, Text: label} }

// Img is shorthand for an ImageView spec.
func Img(id ID, drawable string) *Spec { return &Spec{Type: "ImageView", ID: id, Drawable: drawable} }

// List is shorthand for a ListView spec.
func List(id ID, items ...string) *Spec { return &Spec{Type: "ListView", ID: id, Items: items} }
