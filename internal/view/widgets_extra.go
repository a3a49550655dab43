package view

import "rchdroid/internal/bundle"

// This file adds the common derived widgets beyond the Table 1 basics.
// Each embeds one of the basic types, so RCHDroid migrates it through the
// inherited policy without any per-widget code — the §3.3 claim that
// "user-defined views … will also be migrated according to the types they
// belong to" holds for the framework's own derived widgets too.

// Spinner is a drop-down single-choice list (AbsListView family: the
// selection migrates via positionSelector).
type Spinner struct{ AbsListView }

// NewSpinner returns a Spinner over the given options. Spinners default
// to the first option selected, like Android.
func NewSpinner(id ID, options []string) *Spinner {
	s := &Spinner{}
	s.AbsListView = newListLike(s, "Spinner", id, options)
	if len(options) > 0 {
		s.selectorPos = 0
	}
	return s
}

// Selected returns the chosen option text, or "".
func (s *Spinner) Selected() string { return s.SelectedItem() }

// Select chooses the option at pos.
func (s *Spinner) Select(pos int) { s.PositionSelector(pos) }

// Switch is an on/off toggle (CheckBox semantics; TextView family).
type Switch struct{ CheckBox }

// NewSwitch returns a Switch with the given label, initially off.
func NewSwitch(id ID, label string) *Switch {
	s := &Switch{}
	s.TextView = newTextLike(s, "Switch", id, label)
	return s
}

// On reports whether the switch is on.
func (s *Switch) On() bool { return s.Checked() }

// Toggle flips the switch.
func (s *Switch) Toggle() { s.SetChecked(!s.Checked()) }

// RatingBar is a star rating (ProgressBar family: the value migrates via
// setProgress).
type RatingBar struct{ ProgressBar }

// NewRatingBar returns a RatingBar with the given number of stars.
func NewRatingBar(id ID, stars int) *RatingBar {
	r := &RatingBar{}
	r.ProgressBar = newProgressLike(r, "RatingBar", id, stars)
	return r
}

// Rating returns the current star count.
func (r *RatingBar) Rating() int { return r.Progress() }

// SetRating sets the star count (clamped to the bar's range).
func (r *RatingBar) SetRating(stars int) { r.SetProgress(stars) }

// Chronometer displays an elapsed-time counter driven by app code — the
// "timer state" widgets of Table 5 (KJVBible). The elapsed count is
// dynamic state, so it is always saved.
type Chronometer struct {
	BaseView
	elapsedSec int
	running    bool
}

// NewChronometer returns a stopped chronometer at zero.
func NewChronometer(id ID) *Chronometer {
	c := &Chronometer{}
	c.init(c, "Chronometer", id)
	return c
}

// ElapsedSec returns the displayed elapsed seconds.
func (c *Chronometer) ElapsedSec() int { return c.elapsedSec }

// Running reports whether the chronometer is counting.
func (c *Chronometer) Running() bool { return c.running }

// Start begins counting.
func (c *Chronometer) Start() {
	c.checkAlive("start")
	c.running = true
}

// Stop pauses counting.
func (c *Chronometer) Stop() {
	c.checkAlive("stop")
	c.running = false
}

// Tick advances the display by one second (driven by the app's UI timer).
func (c *Chronometer) Tick() {
	c.checkAlive("tick")
	if c.running {
		c.elapsedSec++
		c.Invalidate()
	}
}

// SetElapsedSec forces the counter (migration setter).
func (c *Chronometer) SetElapsedSec(v int) {
	c.checkAlive("setBase")
	if v < 0 {
		v = 0
	}
	c.elapsedSec = v
	c.Invalidate()
}

// SaveState stores the elapsed count and running flag.
func (c *Chronometer) SaveState(out *bundle.Bundle) {
	if sec := c.saveSection(out, 3); sec != nil {
		sec.PutInt("elapsed", int64(c.elapsedSec))
		sec.PutBool("running", c.running)
		sec.PutBool("visible", c.visible)
	}
}

// RestoreState restores the elapsed count and running flag.
func (c *Chronometer) RestoreState(in *bundle.Bundle) {
	if sec := c.restoreSection(in); sec != nil {
		c.visible = sec.GetBool("visible", c.visible)
		c.elapsedSec = int(sec.GetInt("elapsed", int64(c.elapsedSec)))
		c.running = sec.GetBool("running", c.running)
	}
}
