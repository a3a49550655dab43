package corpus

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/view"
)

// The fmt* probes are the renderings the strconv probes replaced: same
// fields, same order, values through fmt.
func fmtCounterFields(prefix string, fg *app.Activity) []oracle.Field {
	var fs []oracle.Field
	if c, ok := fg.Extra(SavedKey).(int64); ok {
		fs = append(fs, oracle.Field{Name: prefix + ".notes", Value: fmt.Sprint(c), Saved: true})
	}
	if d, ok := fg.Extra(DraftKey).(int64); ok {
		fs = append(fs, oracle.Field{Name: prefix + ".draft", Value: fmt.Sprint(d)})
	}
	return fs
}

func fmtEditorProbe(fg *app.Activity) []oracle.Field {
	var fs []oracle.Field
	if et, ok := fg.FindViewByID(EditorEdit).(*view.EditText); ok {
		fs = append(fs, oracle.Field{Name: "Editor.text",
			Value: fmt.Sprintf("%s@%d", et.Text(), et.Cursor()), View: true, Saved: true})
	}
	if cb, ok := fg.FindViewByID(EditorDone).(*view.CheckBox); ok {
		fs = append(fs, oracle.Field{Name: "Editor.done", Value: fmt.Sprint(cb.Checked()), View: true, Saved: true})
	}
	if sb, ok := fg.FindViewByID(EditorSeek).(*view.SeekBar); ok {
		fs = append(fs, oracle.Field{Name: "Editor.volume", Value: fmt.Sprint(sb.Progress()), View: true})
	}
	if lv, ok := fg.FindViewByID(EditorList).(*view.ListView); ok {
		fs = append(fs, oracle.Field{Name: "Editor.row", Value: fmt.Sprint(lv.SelectorPosition()), View: true})
	}
	if tv, ok := fg.FindViewByID(EditorStatus).(*view.TextView); ok {
		fs = append(fs, oracle.Field{Name: "Editor.status", Value: tv.Text(), View: true})
	}
	return append(fs, fmtCounterFields("Editor", fg)...)
}

func fmtBackStackProbe(fg *app.Activity) []oracle.Field {
	var fs []oracle.Field
	if fg.Class().Name == ComposeClass {
		if et, ok := fg.FindViewByID(ComposeEdit).(*view.EditText); ok {
			fs = append(fs, oracle.Field{Name: "Compose.text",
				Value: fmt.Sprintf("%s@%d", et.Text(), et.Cursor()), View: true, Saved: true})
		}
		if sb, ok := fg.FindViewByID(ComposeSeek).(*view.SeekBar); ok {
			fs = append(fs, oracle.Field{Name: "Compose.volume", Value: fmt.Sprint(sb.Progress()), View: true})
		}
		return append(fs, fmtCounterFields("Compose", fg)...)
	}
	if lv, ok := fg.FindViewByID(InboxList).(*view.ListView); ok {
		fs = append(fs, oracle.Field{Name: "Inbox.row", Value: fmt.Sprint(lv.SelectorPosition()), View: true})
	}
	if tv, ok := fg.FindViewByID(InboxStatus).(*view.TextView); ok {
		fs = append(fs, oracle.Field{Name: "Inbox.status", Value: tv.Text(), View: true})
	}
	return append(fs, fmtCounterFields("Inbox", fg)...)
}

func fmtMailProbe(fg *app.Activity) []oracle.Field {
	var fs []oracle.Field
	if tv, ok := fg.FindViewByID(MailRecipient).(*view.CustomTextView); ok {
		fs = append(fs, oracle.Field{Name: "Mail.recipient", Value: tv.Text(), View: true})
	}
	fs = append(fs,
		oracle.Field{Name: "Mail.fragments", Value: fmt.Sprint(fg.Fragments().Count()), Saved: true},
		oracle.Field{Name: "Mail.dialogs", Value: fmt.Sprint(fg.ShowingDialogs()), View: true},
	)
	return append(fs, fmtCounterFields("Mail", fg)...)
}

// liveApp boots a corpus app and returns a function that runs an
// interaction on the foreground instance's UI looper, lets it settle,
// and returns the instance then in the foreground.
func liveApp(t *testing.T, build func() *app.App) func(func(fg *app.Activity)) *app.Activity {
	t.Helper()
	w := device.New(device.Spec{App: build}, 0, nil)
	return func(fn func(fg *app.Activity)) *app.Activity {
		t.Helper()
		w.Proc.PostApp("test:step", time.Millisecond, func() {
			if fg := w.Proc.Thread().ForegroundActivity(); fg != nil {
				fn(fg)
			}
		})
		w.Sched.Advance(time.Second)
		fg := w.Proc.Thread().ForegroundActivity()
		if fg == nil {
			t.Fatal("no foreground activity")
		}
		return fg
	}
}

// checkProbe runs probe and its fmt reference on fg and requires equal,
// non-empty field lists. The probe appends after a field already in its
// buffer, which must stay.
func checkProbe(t *testing.T, label string, fg *app.Activity, probe func(*app.Activity, []oracle.Field) []oracle.Field, ref func(*app.Activity) []oracle.Field) {
	t.Helper()
	keep := oracle.Field{Name: "kept", Value: "x"}
	got, want := probe(fg, []oracle.Field{keep}), append([]oracle.Field{keep}, ref(fg)...)
	if len(want) == 1 || !slices.Equal(got, want) {
		t.Errorf("%s:\n  probe %v\n  fmt   %v", label, got, want)
	}
}

func TestProbesMatchFmt(t *testing.T) {
	t.Run("editor", func(t *testing.T) {
		step := liveApp(t, EditorApp)
		// Fresh launch: the list selector sits at -1, the counters at 0.
		fresh := step(func(*app.Activity) {})
		if !slices.Contains(editorProbe(fresh, nil), oracle.Field{Name: "Editor.row", Value: "-1", View: true}) {
			t.Fatalf("fresh editor probe has no row at -1: %v", editorProbe(fresh, nil))
		}
		checkProbe(t, "fresh", fresh, editorProbe, fmtEditorProbe)
		fg := step(func(fg *app.Activity) {
			fg.FindViewByID(EditorEdit).(*view.EditText).Type("meeting notes, agenda and follow-ups")
			fg.FindViewByID(EditorDone).(*view.CheckBox).SetChecked(true)
			fg.FindViewByID(EditorSeek).(*view.SeekBar).SetProgress(100)
			fg.FindViewByID(EditorList).(*view.ListView).PositionSelector(4)
			fg.FindViewByID(EditorStatus).(*view.TextView).SetText("editing")
			fg.PutExtra(SavedKey, int64(12))
			fg.PutExtra(DraftKey, int64(-3))
		})
		checkProbe(t, "edited", fg, editorProbe, fmtEditorProbe)
	})
	t.Run("backstack", func(t *testing.T) {
		step := liveApp(t, BackStackApp)
		checkProbe(t, "inbox", step(func(*app.Activity) {}), backStackProbe, fmtBackStackProbe)
		fg := step(func(fg *app.Activity) { fg.StartActivity(ComposeClass) })
		if fg.Class().Name != ComposeClass {
			t.Fatalf("foreground is %s after starting %s", fg.Class().Name, ComposeClass)
		}
		fg = step(func(fg *app.Activity) {
			fg.FindViewByID(ComposeEdit).(*view.EditText).Type("reply text")
			fg.FindViewByID(ComposeSeek).(*view.SeekBar).SetProgress(55)
			fg.PutExtra(DraftKey, int64(1234))
		})
		checkProbe(t, "compose", fg, backStackProbe, fmtBackStackProbe)
	})
	t.Run("dialog-fragment", func(t *testing.T) {
		step := liveApp(t, DialogFragmentApp)
		checkProbe(t, "fresh", step(func(*app.Activity) {}), mailProbe, fmtMailProbe)
		step(func(fg *app.Activity) {
			fg.Fragments().Add(fg.Class().FragmentClasses[FragmentClass], "compose", MailContainer)
		})
		fg := step(func(fg *app.Activity) {
			fg.FindViewByID(MailRecipient).(*view.CustomTextView).SetText("bob@example.com")
			fg.ShowDialog("sending", nil)
			fg.PutExtra(SavedKey, int64(10))
		})
		if fg.ShowingDialogs() != 1 || fg.Fragments().Count() != 1 {
			t.Fatalf("mail activity shows %d dialogs and %d fragments, want 1 and 1", fg.ShowingDialogs(), fg.Fragments().Count())
		}
		checkProbe(t, "fragment and dialog", fg, mailProbe, fmtMailProbe)
	})
}
