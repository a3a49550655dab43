package config

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDefaultIsLandscape1080p(t *testing.T) {
	c := Default()
	if c.Orientation != OrientationLandscape {
		t.Errorf("orientation = %v", c.Orientation)
	}
	if c.ScreenWidth != 1920 || c.ScreenHeight != 1080 {
		t.Errorf("size = %dx%d", c.ScreenWidth, c.ScreenHeight)
	}
	if c.FontScale != 1.0 || c.Locale != "en-US" {
		t.Errorf("locale/fontscale = %q/%v", c.Locale, c.FontScale)
	}
}

func TestRotatedSwapsAndRelabels(t *testing.T) {
	p := Default().Rotated()
	if p.Orientation != OrientationPortrait {
		t.Errorf("rotated orientation = %v", p.Orientation)
	}
	if p.ScreenWidth != 1080 || p.ScreenHeight != 1920 {
		t.Errorf("rotated size = %dx%d", p.ScreenWidth, p.ScreenHeight)
	}
	back := p.Rotated()
	if !back.Equal(Default()) {
		t.Error("double rotation is not identity")
	}
}

func TestPortraitMatchesArtifactCommand(t *testing.T) {
	// `wm size 1080x1920`
	if !Portrait().Equal(Default().Resized(1080, 1920)) {
		t.Error("Portrait() != Resized(1080,1920)")
	}
}

func TestDiffMasks(t *testing.T) {
	base := Default()
	cases := []struct {
		name string
		mod  Configuration
		want Change
	}{
		{"identity", base, None},
		{"rotate", base.Rotated(), ChangeOrientation | ChangeScreenSize},
		{"resize same orientation", base.Resized(1280, 720), ChangeScreenSize},
		{"locale", base.WithLocale("zh-CN"), ChangeLocale},
		{"fontscale", base.WithFontScale(1.3), ChangeFontScale},
		{"keyboard", base.WithKeyboard(KeyboardQwerty), ChangeKeyboard},
		{"uimode", base.WithUIMode(UIModeNight), ChangeUIMode},
		{"density", func() Configuration { c := base; c.DensityDPI = 320; return c }(), ChangeDensity},
	}
	for _, tc := range cases {
		if got := base.Diff(tc.mod); got != tc.want {
			t.Errorf("%s: diff = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDiffIsSymmetric(t *testing.T) {
	a, b := Default(), Portrait().WithLocale("fr-FR")
	if a.Diff(b) != b.Diff(a) {
		t.Error("diff not symmetric")
	}
}

func TestHandledBy(t *testing.T) {
	change := ChangeOrientation | ChangeScreenSize
	if !change.HandledBy(ChangeOrientation | ChangeScreenSize | ChangeLocale) {
		t.Error("superset declaration should handle")
	}
	if change.HandledBy(ChangeOrientation) {
		t.Error("partial declaration should not handle")
	}
	if !None.HandledBy(None) {
		t.Error("no change is always handled")
	}
}

func TestChangeString(t *testing.T) {
	if None.String() != "none" {
		t.Errorf("None = %q", None.String())
	}
	got := (ChangeOrientation | ChangeLocale).String()
	if got != "orientation|locale" {
		t.Errorf("mask string = %q", got)
	}
}

func TestQualifierStrings(t *testing.T) {
	if OrientationPortrait.String() != "portrait" ||
		OrientationLandscape.String() != "landscape" ||
		OrientationUndefined.String() != "undefined" {
		t.Error("orientation strings wrong")
	}
	if KeyboardQwerty.String() != "qwerty" || KeyboardNone.String() != "nokeys" {
		t.Error("keyboard strings wrong")
	}
	if UIModeNight.String() != "night" || UIModeDay.String() != "day" {
		t.Error("ui mode strings wrong")
	}
}

// TestConfigurationString pins String to the fmt expression it replaced,
// including font scales that round at the second decimal.
func TestConfigurationString(t *testing.T) {
	if got, want := Default().String(), "landscape 1920x1080 160dpi en-US fs=1.00 nokeys day"; got != want {
		t.Errorf("Default().String() = %q, want %q", got, want)
	}
	for _, c := range []Configuration{
		Default(),
		Portrait(),
		Default().WithFontScale(1.15),
		Default().WithFontScale(0.875),
		Default().WithFontScale(1.3).WithLocale("zh-Hant-TW").WithKeyboard(KeyboardQwerty).WithUIMode(UIModeNight),
		Default().Resized(12000, 3).WithFontScale(2.005),
		{},
	} {
		want := fmt.Sprintf("%s %dx%d %ddpi %s fs=%.2f %s %s",
			c.Orientation, c.ScreenWidth, c.ScreenHeight, c.DensityDPI,
			c.Locale, c.FontScale, c.Keyboard, c.UIMode)
		if got := c.String(); got != want {
			t.Errorf("String() = %q, fmt renders %q", got, want)
		}
	}
}

// Property: Diff(x,x) == None for arbitrary configurations; Equal agrees
// with a zero diff; rotation twice is the identity.
func TestDiffProperties(t *testing.T) {
	gen := func(w, h uint16, dpi uint8, locale bool) Configuration {
		c := Default().Resized(int(w)+1, int(h)+1)
		c.DensityDPI = int(dpi) + 100
		if locale {
			c.Locale = "ja-JP"
		}
		return c
	}
	f := func(w, h uint16, dpi uint8, locale bool) bool {
		c := gen(w, h, dpi, locale)
		if c.Diff(c) != None || !c.Equal(c) {
			return false
		}
		return c.Rotated().Rotated().Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a change mask is always handled by itself and by the full mask.
func TestHandledByProperty(t *testing.T) {
	f := func(m uint8) bool {
		mask := Change(m) & (ChangeUIMode<<1 - 1)
		full := ChangeOrientation | ChangeScreenSize | ChangeDensity |
			ChangeLocale | ChangeFontScale | ChangeKeyboard | ChangeUIMode
		return mask.HandledBy(mask) && mask.HandledBy(full)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
