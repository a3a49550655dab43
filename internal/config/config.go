// Package config models Android's resource Configuration: the set of
// device parameters (orientation, screen size, locale, density, …) whose
// runtime changes trigger the activity restart that RCHDroid eliminates.
//
// The package mirrors the parts of android.content.res.Configuration the
// paper exercises: computing a change mask between two configurations
// (Configuration.diff), deciding whether an activity that declared
// android:configChanges handles the change itself, and the `adb shell wm
// size WxH` style screen resizes the artifact appendix uses to trigger
// changes.
package config

import (
	"strconv"
	"strings"
)

// Orientation is the screen orientation qualifier.
type Orientation uint8

// Orientation values.
const (
	OrientationUndefined Orientation = iota
	OrientationPortrait
	OrientationLandscape
)

func (o Orientation) String() string {
	switch o {
	case OrientationPortrait:
		return "portrait"
	case OrientationLandscape:
		return "landscape"
	default:
		return "undefined"
	}
}

// Keyboard models the hardware-keyboard qualifier (attachment of a
// keyboard is one of the runtime changes the paper's introduction lists).
type Keyboard uint8

// Keyboard values.
const (
	KeyboardNone Keyboard = iota
	KeyboardQwerty
)

func (k Keyboard) String() string {
	if k == KeyboardQwerty {
		return "qwerty"
	}
	return "nokeys"
}

// UIMode models day/night mode.
type UIMode uint8

// UIMode values.
const (
	UIModeDay UIMode = iota
	UIModeNight
)

func (m UIMode) String() string {
	if m == UIModeNight {
		return "night"
	}
	return "day"
}

// Change is a bitmask of configuration dimensions that differ between two
// configurations, mirroring the ActivityInfo.CONFIG_* constants.
type Change uint32

// Change mask bits.
const (
	ChangeOrientation Change = 1 << iota
	ChangeScreenSize
	ChangeDensity
	ChangeLocale
	ChangeFontScale
	ChangeKeyboard
	ChangeUIMode
)

// None means the two configurations are identical.
const None Change = 0

var changeNames = []struct {
	bit  Change
	name string
}{
	{ChangeOrientation, "orientation"},
	{ChangeScreenSize, "screenSize"},
	{ChangeDensity, "density"},
	{ChangeLocale, "locale"},
	{ChangeFontScale, "fontScale"},
	{ChangeKeyboard, "keyboard"},
	{ChangeUIMode, "uiMode"},
}

// Has reports whether the mask contains bit.
func (c Change) Has(bit Change) bool { return c&bit != 0 }

func (c Change) String() string {
	if c == None {
		return "none"
	}
	var parts []string
	for _, cn := range changeNames {
		if c.Has(cn.bit) {
			parts = append(parts, cn.name)
		}
	}
	return strings.Join(parts, "|")
}

// Configuration is a full device configuration snapshot. It is a value
// type: copies are independent.
type Configuration struct {
	Orientation  Orientation
	ScreenWidth  int // pixels
	ScreenHeight int // pixels
	DensityDPI   int
	Locale       string // BCP-47-ish tag, e.g. "en-US"
	FontScale    float64
	Keyboard     Keyboard
	UIMode       UIMode
}

// Default returns the configuration the paper's development board boots
// with: 1920x1080 landscape, 160 dpi, English, normal font scale.
func Default() Configuration {
	return Configuration{
		Orientation:  OrientationLandscape,
		ScreenWidth:  1920,
		ScreenHeight: 1080,
		DensityDPI:   160,
		Locale:       "en-US",
		FontScale:    1.0,
		Keyboard:     KeyboardNone,
		UIMode:       UIModeDay,
	}
}

// Portrait returns the default configuration rotated to portrait
// (1080x1920), the `wm size 1080x1920` state from the artifact appendix.
func Portrait() Configuration {
	c := Default()
	return c.Rotated()
}

// Rotated returns a copy with width/height swapped and the orientation
// qualifier updated accordingly.
func (c Configuration) Rotated() Configuration {
	c.ScreenWidth, c.ScreenHeight = c.ScreenHeight, c.ScreenWidth
	if c.ScreenWidth >= c.ScreenHeight {
		c.Orientation = OrientationLandscape
	} else {
		c.Orientation = OrientationPortrait
	}
	return c
}

// Resized returns a copy with the given screen size, recomputing the
// orientation qualifier. It models `adb shell wm size WxH`.
func (c Configuration) Resized(w, h int) Configuration {
	c.ScreenWidth, c.ScreenHeight = w, h
	if w >= h {
		c.Orientation = OrientationLandscape
	} else {
		c.Orientation = OrientationPortrait
	}
	return c
}

// WithLocale returns a copy with the locale switched.
func (c Configuration) WithLocale(tag string) Configuration {
	c.Locale = tag
	return c
}

// WithFontScale returns a copy with the font scale changed.
func (c Configuration) WithFontScale(s float64) Configuration {
	c.FontScale = s
	return c
}

// WithKeyboard returns a copy with the keyboard qualifier changed.
func (c Configuration) WithKeyboard(k Keyboard) Configuration {
	c.Keyboard = k
	return c
}

// WithUIMode returns a copy with the day/night mode changed.
func (c Configuration) WithUIMode(m UIMode) Configuration {
	c.UIMode = m
	return c
}

// Diff returns the mask of dimensions on which c and other differ,
// mirroring Configuration.diff on Android.
func (c Configuration) Diff(other Configuration) Change {
	var mask Change
	if c.Orientation != other.Orientation {
		mask |= ChangeOrientation
	}
	if c.ScreenWidth != other.ScreenWidth || c.ScreenHeight != other.ScreenHeight {
		mask |= ChangeScreenSize
	}
	if c.DensityDPI != other.DensityDPI {
		mask |= ChangeDensity
	}
	if c.Locale != other.Locale {
		mask |= ChangeLocale
	}
	if c.FontScale != other.FontScale {
		mask |= ChangeFontScale
	}
	if c.Keyboard != other.Keyboard {
		mask |= ChangeKeyboard
	}
	if c.UIMode != other.UIMode {
		mask |= ChangeUIMode
	}
	return mask
}

// Equal reports whether the two configurations are identical.
func (c Configuration) Equal(other Configuration) bool {
	return c.Diff(other) == None
}

// String renders c as "landscape 1920x1080 160dpi en-US fs=1.00 nokeys
// day", built in one exactly sized allocation.
func (c Configuration) String() string {
	var buf [64]byte
	b := append(buf[:0], c.Orientation.String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(c.ScreenWidth), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(c.ScreenHeight), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(c.DensityDPI), 10)
	b = append(b, "dpi "...)
	b = append(b, c.Locale...)
	b = append(b, " fs="...)
	b = strconv.AppendFloat(b, c.FontScale, 'f', 2, 64)
	b = append(b, ' ')
	b = append(b, c.Keyboard.String()...)
	b = append(b, ' ')
	b = append(b, c.UIMode.String()...)
	return string(b)
}

// HandledBy reports whether an activity that declared the given
// android:configChanges mask handles this change itself (i.e. the stock
// system would NOT restart it). A change is handled only if every changed
// dimension is declared.
func (c Change) HandledBy(declared Change) bool {
	return c&^declared == None
}
