package view

import (
	"testing"

	"rchdroid/internal/bundle"
)

// TestSizedSaveMatchesReference: every widget's save, into the section
// saveSection sizes for it, equals a reference section built entry by
// entry with bundle.New and PutBundle, and allocates nothing beyond its
// section and a list's checked slice, so no section outgrows its room.
func TestSizedSaveMatchesReference(t *testing.T) {
	const id = 7
	edited := func(v View) View {
		switch w := v.(type) {
		case interface{ SetText(string) }:
			w.SetText("relabelled")
		case *ImageView:
			w.SetDrawable("drawable/b")
		}
		return v
	}
	list := func(v View) View {
		l := v.(interface {
			SetItemChecked(int, bool)
			PositionSelector(int)
			ScrollTo(int)
		})
		l.SetItemChecked(2, true)
		l.SetItemChecked(0, true)
		l.PositionSelector(1)
		l.ScrollTo(40)
		return v
	}
	listRef := func(sel int64, ints []int64, scroll int64) func(*bundle.Bundle) {
		return func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutInt("selector", sel)
			sec.PutInt("scroll", scroll)
			sec.PutIntSlice("checked", ints)
		}
	}
	textRef := func(text string) func(*bundle.Bundle) {
		return func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			if text != "" {
				sec.PutString("text", text)
			}
		}
	}
	checkRef := func(text string, on bool) func(*bundle.Bundle) {
		return func(sec *bundle.Bundle) {
			textRef(text)(sec)
			sec.PutBool("checked", on)
		}
	}
	progressRef := func(max int64) func(*bundle.Bundle) {
		return func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutInt("progress", 3)
			sec.PutInt("max", max)
		}
	}
	progress := func(v View) View {
		v.(interface{ SetProgress(int) }).SetProgress(3)
		return v
	}
	video := NewVideoView(id, "video/a")
	video.SeekTo(1500)
	video.SetPlaying(true)
	chrono := NewChronometer(id)
	chrono.SetElapsedSec(42)
	chrono.Start()
	checkBox := NewCheckBox(id, "label")
	checkBox.SetChecked(true)
	sw := NewSwitch(id, "label")
	sw.Toggle()
	edit := NewEditText(id, "draft")
	edit.SetCursor(2)

	cases := []struct {
		name   string
		v      View
		stock  bool // save through SaveStockState
		ref    func(sec *bundle.Bundle)
		allocs float64 // beyond the parent and the section
	}{
		{"LinearLayout", NewLinearLayout(id), false, textRef(""), 0},
		{"FrameLayout", NewFrameLayout(id), false, textRef(""), 0},
		{"TextView", NewTextView(id, "static"), false, textRef(""), 0},
		{"TextView/set", edited(NewTextView(id, "static")), false, textRef("relabelled"), 0},
		{"Button", NewButton(id, "go"), false, textRef(""), 0},
		{"Button/set", edited(NewButton(id, "go")), false, textRef("relabelled"), 0},
		{"CustomTextView/set", edited(NewCustomTextView(id, "c")), false, textRef("relabelled"), 0},
		{"EditText", edit, false, func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutString("text", "draft")
			sec.PutInt("cursor", 2)
		}, 0},
		{"EditText/stock", edit, true, func(sec *bundle.Bundle) {
			sec.PutString("text", "draft")
			sec.PutInt("cursor", 2)
		}, 0},
		{"CheckBox", checkBox, false, checkRef("", true), 0},
		{"CheckBox/relabelled", edited(NewCheckBox(id, "label")), false, checkRef("relabelled", false), 0},
		{"CheckBox/stock", checkBox, true, func(sec *bundle.Bundle) { sec.PutBool("checked", true) }, 0},
		{"Switch/relabelled", edited(sw), false, checkRef("relabelled", true), 0},
		{"ImageView", NewImageView(id, "drawable/a"), false, textRef(""), 0},
		{"ImageView/set", edited(NewImageView(id, "drawable/a")), false, func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutString("drawable", "drawable/b")
		}, 0},
		// An empty checked set stores an empty slice: only its boxing
		// allocates. A non-empty one is built once and copied once.
		{"AbsListView", NewAbsListView(id, []string{"a", "b", "c"}), false, listRef(-1, []int64{}, 0), 1},
		{"ListView/set", list(NewListView(id, []string{"a", "b", "c"})), false, listRef(1, []int64{0, 2}, 40), 3},
		{"GridView/set", list(NewGridView(id, []string{"a", "b", "c"})), false, listRef(1, []int64{0, 2}, 40), 3},
		{"ScrollView/set", list(NewScrollView(id, []string{"a", "b", "c"})), false, listRef(1, []int64{0, 2}, 40), 3},
		{"Spinner", NewSpinner(id, []string{"a", "b"}), false, listRef(0, []int64{}, 0), 1},
		{"VideoView", video, false, func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutString("uri", "video/a")
			sec.PutInt("pos", 1500)
			sec.PutBool("playing", true)
		}, 0},
		{"ProgressBar", progress(NewProgressBar(id, 10)), false, progressRef(10), 0},
		{"SeekBar", progress(NewSeekBar(id, 20)), false, progressRef(20), 0},
		{"RatingBar", progress(NewRatingBar(id, 5)), false, progressRef(5), 0},
		{"Chronometer", chrono, false, func(sec *bundle.Bundle) {
			sec.PutBool("visible", true)
			sec.PutInt("elapsed", 42)
			sec.PutBool("running", true)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			save := func() *bundle.Bundle {
				out := bundle.NewCap(1)
				if tc.stock {
					tc.v.(StockSaver).SaveStockState(out)
				} else {
					tc.v.SaveState(out)
				}
				return out
			}
			sec := bundle.New()
			tc.ref(sec)
			want := bundle.New()
			want.PutBundle("view:7", sec)
			got := save()
			if !got.Equal(want) || got.String() != want.String() {
				t.Fatalf("save = %s, want %s", got, want)
			}
			if allocs := testing.AllocsPerRun(20, func() { save() }); allocs != 2+tc.allocs {
				t.Fatalf("save allocated %v times, want %v: the parent, the section and %v more", allocs, 2+tc.allocs, tc.allocs)
			}
		})
	}
}
