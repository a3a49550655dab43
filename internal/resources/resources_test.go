package resources

import (
	"testing"
	"testing/quick"

	"rchdroid/internal/config"
)

func TestDefaultVariantResolves(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("string/hello", "Hello")
	got, ok := tb.Resolve("string/hello", config.Default())
	if !ok || got != "Hello" {
		t.Fatalf("Resolve = %v, %v", got, ok)
	}
}

func TestOrientationQualifierWins(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("layout/main", "default-layout")
	tb.Put("layout/main", Qualifiers{Orientation: config.OrientationPortrait}, "portrait-layout")

	if got := tb.MustResolve("layout/main", config.Default()); got != "default-layout" {
		t.Fatalf("landscape resolve = %v", got)
	}
	if got := tb.MustResolve("layout/main", config.Portrait()); got != "portrait-layout" {
		t.Fatalf("portrait resolve = %v", got)
	}
}

func TestLocaleQualifier(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("string/greet", "Hello")
	tb.Put("string/greet", Qualifiers{Locale: "fr-FR"}, "Bonjour")
	if got := tb.String("string/greet", config.Default().WithLocale("fr-FR"), ""); got != "Bonjour" {
		t.Fatalf("fr resolve = %q", got)
	}
	if got := tb.String("string/greet", config.Default(), ""); got != "Hello" {
		t.Fatalf("en resolve = %q", got)
	}
}

func TestMoreSpecificBeatsLessSpecific(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("layout/x", "d")
	tb.Put("layout/x", Qualifiers{Orientation: config.OrientationLandscape}, "land")
	tb.Put("layout/x", Qualifiers{Orientation: config.OrientationLandscape, Locale: "en-US"}, "land-en")
	if got := tb.MustResolve("layout/x", config.Default()); got != "land-en" {
		t.Fatalf("resolve = %v, want land-en", got)
	}
}

func TestMinWidthDP(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("layout/y", "phone")
	tb.Put("layout/y", Qualifiers{MinWidthDP: 1200}, "tablet")
	// Default config: 1920px at 160dpi = 1920dp wide → tablet variant.
	if got := tb.MustResolve("layout/y", config.Default()); got != "tablet" {
		t.Fatalf("wide resolve = %v", got)
	}
	narrow := config.Default().Resized(480, 800)
	if got := tb.MustResolve("layout/y", narrow); got != "phone" {
		t.Fatalf("narrow resolve = %v", got)
	}
}

func TestUIModeAndDensityQualifiers(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("drawable/bg", "light")
	tb.Put("drawable/bg", Qualifiers{UIMode: config.UIModeNight, UIModeSet: true}, "dark")
	tb.Put("drawable/bg", Qualifiers{MinDensityDPI: 300}, "hi-res")

	if got := tb.MustResolve("drawable/bg", config.Default()); got != "light" {
		t.Fatalf("day = %v", got)
	}
	if got := tb.MustResolve("drawable/bg", config.Default().WithUIMode(config.UIModeNight)); got != "dark" {
		t.Fatalf("night = %v", got)
	}
	dense := config.Default()
	dense.DensityDPI = 320
	if got := tb.MustResolve("drawable/bg", dense); got != "hi-res" {
		t.Fatalf("dense = %v", got)
	}
}

func TestMissingResource(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Resolve("string/none", config.Default()); ok {
		t.Fatal("resolved a missing resource")
	}
	if got := tb.String("string/none", config.Default(), "fallback"); got != "fallback" {
		t.Fatalf("String fallback = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustResolve on missing resource did not panic")
		}
	}()
	tb.MustResolve("string/none", config.Default())
}

func TestNoEligibleVariant(t *testing.T) {
	tb := NewTable()
	tb.Put("string/only-fr", Qualifiers{Locale: "fr-FR"}, "Bonjour")
	if _, ok := tb.Resolve("string/only-fr", config.Default()); ok {
		t.Fatal("locale-restricted variant matched wrong locale")
	}
}

func TestPutOverridesSameQualifiers(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("string/v", "one")
	tb.PutDefault("string/v", "two")
	if got := tb.MustResolve("string/v", config.Default()); got != "two" {
		t.Fatalf("resolve = %v", got)
	}
}

func TestNamesSortedAndLen(t *testing.T) {
	tb := NewTable()
	tb.PutDefault("b", 1)
	tb.PutDefault("a", 2)
	names := tb.Names()
	if tb.Len() != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, Len = %d", names, tb.Len())
	}
}

func TestQualifierString(t *testing.T) {
	if AnyConfig.String() != "default" {
		t.Fatalf("AnyConfig = %q", AnyConfig.String())
	}
	q := Qualifiers{Orientation: config.OrientationPortrait, Locale: "fr-FR", MinWidthDP: 600}
	if q.String() != "portrait-fr-FR-sw600dp" {
		t.Fatalf("String = %q", q.String())
	}
}

// Property: AnyConfig matches every configuration, and a variant
// registered for the exact configuration's orientation+locale always beats
// the default.
func TestMatchingProperties(t *testing.T) {
	f := func(w, h uint16, night bool) bool {
		cfg := config.Default().Resized(int(w)+100, int(h)+100)
		if night {
			cfg = cfg.WithUIMode(config.UIModeNight)
		}
		if !AnyConfig.Matches(cfg) {
			return false
		}
		tb := NewTable()
		tb.PutDefault("r", "default")
		tb.Put("r", Qualifiers{Orientation: cfg.Orientation}, "specific")
		got, ok := tb.Resolve("r", cfg)
		return ok && got == "specific"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: specificity equals the count of specified fields.
func TestSpecificityProperty(t *testing.T) {
	f := func(useOrient, useLocale, useWidth, useUI, useDensity bool) bool {
		q := Qualifiers{}
		want := 0
		if useOrient {
			q.Orientation = config.OrientationPortrait
			want++
		}
		if useLocale {
			q.Locale = "de-DE"
			want++
		}
		if useWidth {
			q.MinWidthDP = 10
			want++
		}
		if useUI {
			q.UIModeSet = true
			want++
		}
		if useDensity {
			q.MinDensityDPI = 10
			want++
		}
		return q.Specificity() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
