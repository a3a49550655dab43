package view

import (
	"slices"

	"rchdroid/internal/bundle"
)

// This file defines the concrete widget types of Table 1. Each widget
// carries the attributes its migration policy transfers:
//
//	TextView     → setText
//	ImageView    → setDrawable
//	AbsListView  → positionSelector / setItemChecked
//	VideoView    → setVideoURI
//	ProgressBar  → setProgress
//
// Sub-types (EditText, Button, ListView, GridView, ScrollView, SeekBar,
// CheckBox and user-defined views) embed a basic type and are migrated by
// the policy of the type they inherit from, exactly as §3.3 describes.

// ─── TextView family ────────────────────────────────────────────────────

// TextView displays text.
type TextView struct {
	BaseView
	text string
	hint string
	// textModified marks text set programmatically after inflation.
	// Only modified text is part of the saved state: static layout text
	// must re-resolve from resources under the new configuration.
	textModified bool
}

// NewTextView returns a TextView with the given id and initial text.
func NewTextView(id ID, text string) *TextView {
	t := &TextView{text: text}
	t.init(t, "TextView", id)
	return t
}

// newTextLike builds a TextView-derived widget for embedding.
func newTextLike(self View, typeName string, id ID, text string) TextView {
	t := TextView{text: text}
	t.init(self, typeName, id)
	return t
}

// Text returns the current text.
func (t *TextView) Text() string { return t.text }

// SetText replaces the text and invalidates.
func (t *TextView) SetText(s string) {
	t.checkAlive("setText")
	t.text = s
	t.textModified = true
	t.Invalidate()
}

// Hint returns the placeholder hint.
func (t *TextView) Hint() string { return t.hint }

// SetHint replaces the hint without invalidating (hints are static).
func (t *TextView) SetHint(s string) { t.hint = s }

// SaveState stores the text, but only when it was set programmatically;
// static layout text stays with the layout so a configuration change can
// re-resolve it.
func (t *TextView) SaveState(out *bundle.Bundle) {
	if sec := t.saveSection(out, 2); sec != nil {
		if t.textModified {
			sec.PutString("text", t.text)
		}
		sec.PutBool("visible", t.visible)
	}
}

// RestoreState restores the text if the saved state carried one.
func (t *TextView) RestoreState(in *bundle.Bundle) {
	if sec := t.restoreSection(in); sec != nil {
		t.visible = sec.GetBool("visible", t.visible)
		if sec.Has("text") {
			t.text = sec.GetString("text", t.text)
			t.textModified = true
		}
	}
}

// EditText is a user-editable TextView with a cursor.
type EditText struct {
	TextView
	cursor int
}

// NewEditText returns an EditText with the given id and initial text.
func NewEditText(id ID, text string) *EditText {
	e := &EditText{cursor: len(text)}
	e.TextView = newTextLike(e, "EditText", id, text)
	return e
}

// Cursor returns the cursor position.
func (e *EditText) Cursor() int { return e.cursor }

// SetCursor moves the cursor.
func (e *EditText) SetCursor(pos int) {
	e.checkAlive("setSelection")
	if pos < 0 {
		pos = 0
	}
	if pos > len(e.text) {
		pos = len(e.text)
	}
	e.cursor = pos
}

// Type appends text at the cursor, as the soft keyboard would.
func (e *EditText) Type(s string) {
	e.checkAlive("append")
	e.text = e.text[:e.cursor] + s + e.text[e.cursor:]
	e.cursor += len(s)
	e.Invalidate()
}

// SaveState stores text and cursor.
func (e *EditText) SaveState(out *bundle.Bundle) {
	if sec := e.saveSection(out, 3); sec != nil {
		sec.PutInt("cursor", int64(e.cursor))
		sec.PutString("text", e.text)
		sec.PutBool("visible", e.visible)
	}
}

// RestoreState restores text and cursor.
func (e *EditText) RestoreState(in *bundle.Bundle) {
	if sec := e.restoreSection(in); sec != nil {
		e.visible = sec.GetBool("visible", e.visible)
		e.text = sec.GetString("text", e.text)
		e.cursor = int(sec.GetInt("cursor", int64(e.cursor)))
	}
}

// Button is a clickable TextView.
type Button struct {
	TextView
	onClick func()
	clicks  int
}

// NewButton returns a Button with the given id and label.
func NewButton(id ID, label string) *Button {
	b := &Button{}
	b.TextView = newTextLike(b, "Button", id, label)
	return b
}

// SetOnClick installs the click handler.
func (b *Button) SetOnClick(fn func()) { b.onClick = fn }

// Click simulates a user tap.
func (b *Button) Click() {
	b.checkAlive("performClick")
	b.clicks++
	if b.onClick != nil {
		b.onClick()
	}
}

// Clicks returns how many times the button was tapped.
func (b *Button) Clicks() int { return b.clicks }

// CheckBox is a TextView with a checked flag.
type CheckBox struct {
	TextView
	checked bool
}

// NewCheckBox returns a CheckBox with the given id and label.
func NewCheckBox(id ID, label string) *CheckBox {
	c := &CheckBox{}
	c.TextView = newTextLike(c, "CheckBox", id, label)
	return c
}

// Checked reports the checked flag.
func (c *CheckBox) Checked() bool { return c.checked }

// SetChecked sets the flag and invalidates.
func (c *CheckBox) SetChecked(v bool) {
	c.checkAlive("setChecked")
	c.checked = v
	c.Invalidate()
}

// SaveState stores the checked flag (and the label only if it was
// relabelled programmatically).
func (c *CheckBox) SaveState(out *bundle.Bundle) {
	if sec := c.saveSection(out, 3); sec != nil {
		sec.PutBool("checked", c.checked)
		if c.textModified {
			sec.PutString("text", c.text)
		}
		sec.PutBool("visible", c.visible)
	}
}

// RestoreState restores checked flag and any relabelled text.
func (c *CheckBox) RestoreState(in *bundle.Bundle) {
	if sec := c.restoreSection(in); sec != nil {
		c.visible = sec.GetBool("visible", c.visible)
		if sec.Has("text") {
			c.text = sec.GetString("text", c.text)
			c.textModified = true
		}
		c.checked = sec.GetBool("checked", c.checked)
	}
}

// ─── ImageView ──────────────────────────────────────────────────────────

// ImageView displays an image resource.
type ImageView struct {
	BaseView
	drawable string // resource name, e.g. "drawable/photo1"
	// drawableModified marks drawables swapped in programmatically; only
	// those belong to the saved state (layout drawables re-resolve).
	drawableModified bool
}

// NewImageView returns an ImageView showing drawable.
func NewImageView(id ID, drawable string) *ImageView {
	v := &ImageView{drawable: drawable}
	v.init(v, "ImageView", id)
	return v
}

// Drawable returns the current image resource name.
func (v *ImageView) Drawable() string { return v.drawable }

// SetDrawable swaps the image and invalidates (the Table 1 policy target).
func (v *ImageView) SetDrawable(res string) {
	v.checkAlive("setImageDrawable")
	v.drawable = res
	v.drawableModified = true
	v.Invalidate()
}

// SaveState stores the drawable reference when it was swapped in
// programmatically.
func (v *ImageView) SaveState(out *bundle.Bundle) {
	if sec := v.saveSection(out, 2); sec != nil {
		if v.drawableModified {
			sec.PutString("drawable", v.drawable)
		}
		sec.PutBool("visible", v.visible)
	}
}

// RestoreState restores a programmatic drawable if one was saved.
func (v *ImageView) RestoreState(in *bundle.Bundle) {
	if sec := v.restoreSection(in); sec != nil {
		v.visible = sec.GetBool("visible", v.visible)
		if sec.Has("drawable") {
			v.drawable = sec.GetString("drawable", v.drawable)
			v.drawableModified = true
		}
	}
}

// ─── AbsListView family ─────────────────────────────────────────────────

// AbsListView displays a scrollable collection with a selection and
// per-item checked state.
type AbsListView struct {
	BaseView
	// items is the adapter content. The widget never writes into it, so
	// it keeps the slice it was built with (an inflated list shares its
	// layout node's items); SetItems installs a copy.
	items       []string
	selectorPos int
	// checkedItems is made on the first check.
	checkedItems map[int]bool
	scrollOffset int
}

func newListLike(self View, typeName string, id ID, items []string) AbsListView {
	l := AbsListView{items: items, selectorPos: -1}
	l.init(self, typeName, id)
	return l
}

// NewAbsListView returns a plain AbsListView (usually use ListView etc.).
// The list widgets keep items without copying; the caller must not
// modify it afterwards.
func NewAbsListView(id ID, items []string) *AbsListView {
	l := &AbsListView{}
	*l = newListLike(l, "AbsListView", id, items)
	return l
}

// Items returns the adapter items.
func (l *AbsListView) Items() []string { return l.items }

// SetItems replaces the adapter contents.
func (l *AbsListView) SetItems(items []string) {
	l.checkAlive("setAdapter")
	cp := make([]string, len(items))
	copy(cp, items)
	l.items = cp
	if l.selectorPos >= len(cp) {
		l.selectorPos = -1
	}
	l.Invalidate()
}

// SelectorPosition returns the selected index, or -1.
func (l *AbsListView) SelectorPosition() int { return l.selectorPos }

// PositionSelector moves the selection (the Table 1 policy target).
func (l *AbsListView) PositionSelector(pos int) {
	l.checkAlive("positionSelector")
	if pos < -1 || pos >= len(l.items) {
		pos = -1
	}
	l.selectorPos = pos
	l.Invalidate()
}

// SelectedItem returns the selected item text, or "".
func (l *AbsListView) SelectedItem() string {
	if l.selectorPos < 0 || l.selectorPos >= len(l.items) {
		return ""
	}
	return l.items[l.selectorPos]
}

// ItemChecked reports whether item pos is checked.
func (l *AbsListView) ItemChecked(pos int) bool { return l.checkedItems[pos] }

// SetItemChecked toggles an item's checked state (Table 1 policy target).
func (l *AbsListView) SetItemChecked(pos int, on bool) {
	l.checkAlive("setItemChecked")
	if on {
		if l.checkedItems == nil {
			l.checkedItems = make(map[int]bool)
		}
		l.checkedItems[pos] = true
	} else {
		delete(l.checkedItems, pos)
	}
	l.Invalidate()
}

// CheckedPositions returns the sorted checked indices.
func (l *AbsListView) CheckedPositions() []int {
	out := make([]int, 0, len(l.checkedItems))
	for p := range l.checkedItems {
		out = append(out, p)
	}
	// insertion sort; the sets are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ScrollOffset returns the scroll position.
func (l *AbsListView) ScrollOffset() int { return l.scrollOffset }

// ScrollTo sets the scroll position.
func (l *AbsListView) ScrollTo(off int) {
	l.checkAlive("scrollTo")
	if off < 0 {
		off = 0
	}
	l.scrollOffset = off
	l.Invalidate()
}

// SaveState stores selection, checked set and scroll offset.
func (l *AbsListView) SaveState(out *bundle.Bundle) {
	if sec := l.saveSection(out, 4); sec != nil {
		checked := make([]int64, 0, len(l.checkedItems))
		for p := range l.checkedItems {
			checked = append(checked, int64(p))
		}
		slices.Sort(checked)
		sec.PutIntSlice("checked", checked)
		sec.PutInt("scroll", int64(l.scrollOffset))
		sec.PutInt("selector", int64(l.selectorPos))
		sec.PutBool("visible", l.visible)
	}
}

// RestoreState restores selection, checked set and scroll offset.
func (l *AbsListView) RestoreState(in *bundle.Bundle) {
	if sec := l.restoreSection(in); sec != nil {
		l.visible = sec.GetBool("visible", l.visible)
		l.selectorPos = int(sec.GetInt("selector", int64(l.selectorPos)))
		l.scrollOffset = int(sec.GetInt("scroll", int64(l.scrollOffset)))
		if cs := sec.GetIntSlice("checked"); cs != nil {
			l.checkedItems = make(map[int]bool, len(cs))
			for _, p := range cs {
				l.checkedItems[int(p)] = true
			}
		}
	}
}

// ListView is a vertical AbsListView.
type ListView struct{ AbsListView }

// NewListView returns a ListView with the given items.
func NewListView(id ID, items []string) *ListView {
	l := &ListView{}
	l.AbsListView = newListLike(l, "ListView", id, items)
	return l
}

// GridView is a grid AbsListView.
type GridView struct{ AbsListView }

// NewGridView returns a GridView with the given items.
func NewGridView(id ID, items []string) *GridView {
	l := &GridView{}
	l.AbsListView = newListLike(l, "GridView", id, items)
	return l
}

// ScrollView is modelled as an AbsListView per the paper's Table 1
// grouping ("AbsListView typed views, such as ScrollView and GridView").
type ScrollView struct{ AbsListView }

// NewScrollView returns a ScrollView (items model the scrollable content
// blocks).
func NewScrollView(id ID, items []string) *ScrollView {
	l := &ScrollView{}
	l.AbsListView = newListLike(l, "ScrollView", id, items)
	return l
}

// ─── VideoView ──────────────────────────────────────────────────────────

// VideoView plays a video file.
type VideoView struct {
	BaseView
	videoURI   string
	positionMS int
	playing    bool
}

// NewVideoView returns a VideoView for the given URI.
func NewVideoView(id ID, uri string) *VideoView {
	v := &VideoView{videoURI: uri}
	v.init(v, "VideoView", id)
	return v
}

// VideoURI returns the current source URI.
func (v *VideoView) VideoURI() string { return v.videoURI }

// SetVideoURI swaps the source (Table 1 policy target).
func (v *VideoView) SetVideoURI(uri string) {
	v.checkAlive("setVideoURI")
	v.videoURI = uri
	v.positionMS = 0
	v.Invalidate()
}

// PositionMS returns the playback position.
func (v *VideoView) PositionMS() int { return v.positionMS }

// SeekTo moves the playback position.
func (v *VideoView) SeekTo(ms int) {
	v.checkAlive("seekTo")
	if ms < 0 {
		ms = 0
	}
	v.positionMS = ms
}

// Playing reports whether playback is active.
func (v *VideoView) Playing() bool { return v.playing }

// SetPlaying starts or pauses playback.
func (v *VideoView) SetPlaying(on bool) {
	v.checkAlive("start")
	v.playing = on
}

// SaveState stores URI and position.
func (v *VideoView) SaveState(out *bundle.Bundle) {
	if sec := v.saveSection(out, 4); sec != nil {
		sec.PutBool("playing", v.playing)
		sec.PutInt("pos", int64(v.positionMS))
		sec.PutString("uri", v.videoURI)
		sec.PutBool("visible", v.visible)
	}
}

// RestoreState restores URI and position.
func (v *VideoView) RestoreState(in *bundle.Bundle) {
	if sec := v.restoreSection(in); sec != nil {
		v.visible = sec.GetBool("visible", v.visible)
		v.videoURI = sec.GetString("uri", v.videoURI)
		v.positionMS = int(sec.GetInt("pos", int64(v.positionMS)))
		v.playing = sec.GetBool("playing", v.playing)
	}
}

// ─── ProgressBar family ─────────────────────────────────────────────────

// ProgressBar indicates the progress of an operation.
type ProgressBar struct {
	BaseView
	progress int
	max      int
}

func newProgressLike(self View, typeName string, id ID, max int) ProgressBar {
	if max <= 0 {
		max = 100
	}
	p := ProgressBar{max: max}
	p.init(self, typeName, id)
	return p
}

// NewProgressBar returns a ProgressBar with the given range maximum.
func NewProgressBar(id ID, max int) *ProgressBar {
	p := &ProgressBar{}
	*p = newProgressLike(p, "ProgressBar", id, max)
	return p
}

// Progress returns the current value.
func (p *ProgressBar) Progress() int { return p.progress }

// Max returns the range maximum.
func (p *ProgressBar) Max() int { return p.max }

// SetProgress clamps and sets the value (Table 1 policy target).
func (p *ProgressBar) SetProgress(v int) {
	p.checkAlive("setProgress")
	if v < 0 {
		v = 0
	}
	if v > p.max {
		v = p.max
	}
	p.progress = v
	p.Invalidate()
}

// SaveState stores progress and max.
func (p *ProgressBar) SaveState(out *bundle.Bundle) {
	if sec := p.saveSection(out, 3); sec != nil {
		sec.PutInt("max", int64(p.max))
		sec.PutInt("progress", int64(p.progress))
		sec.PutBool("visible", p.visible)
	}
}

// RestoreState restores progress and max.
func (p *ProgressBar) RestoreState(in *bundle.Bundle) {
	if sec := p.restoreSection(in); sec != nil {
		p.visible = sec.GetBool("visible", p.visible)
		p.progress = int(sec.GetInt("progress", int64(p.progress)))
		p.max = int(sec.GetInt("max", int64(p.max)))
	}
}

// SeekBar is a draggable ProgressBar.
type SeekBar struct{ ProgressBar }

// NewSeekBar returns a SeekBar with the given range maximum.
func NewSeekBar(id ID, max int) *SeekBar {
	s := &SeekBar{}
	s.ProgressBar = newProgressLike(s, "SeekBar", id, max)
	return s
}

// ─── User-defined views ─────────────────────────────────────────────────

// CustomTextView represents an app-defined widget inheriting TextView; it
// exists to verify that user-defined views are migrated according to the
// basic type they extend (§3.3).
type CustomTextView struct {
	TextView
	// Extra is app-private state that Android knows nothing about; it is
	// saved only if the app's own onSaveInstanceState stores it.
	Extra string
}

// NewCustomTextView returns a user-defined TextView subclass.
func NewCustomTextView(id ID, text string) *CustomTextView {
	c := &CustomTextView{}
	c.TextView = newTextLike(c, "CustomTextView", id, text)
	return c
}
