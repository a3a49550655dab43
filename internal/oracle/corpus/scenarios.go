package corpus

import (
	"strconv"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/oracle"
	"rchdroid/internal/resources"
	"rchdroid/internal/view"
)

// Extra keys shared by the corpus apps.
const (
	// SavedKey is the activity-private counter persisted through
	// onSaveInstanceState — non-view saved state.
	SavedKey = "notes"
	// DraftKey is the in-memory-only counter — non-view unsaved state.
	DraftKey = "draft"
)

// Editor app view ids.
const (
	EditorRoot   view.ID = 1
	EditorEdit   view.ID = 11 // EditText: stock-saved text+cursor
	EditorDone   view.ID = 12 // CheckBox: stock-saved checked
	EditorSeek   view.ID = 13 // SeekBar: progress stock loses
	EditorList   view.ID = 14 // ListView: selection stock loses
	EditorStatus view.ID = 15 // TextView: programmatic text stock loses
)

var editorListItems = []string{"inbox", "drafts", "sent", "archive", "trash"}

// bothOrientations registers the same layout under both orientations, so
// a rotation changes handling but never view-tree shape.
func bothOrientations(res *resources.Table, name string, layout func() *view.Spec) {
	res.Put(name, resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put(name, resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())
}

// counterCallbacks wires the SavedKey/DraftKey extras: both seeded in
// OnCreate, only SavedKey carried through the save/restore contract.
func counterCallbacks(cls *app.ActivityClass, layout string) {
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		a.PutExtra(SavedKey, int64(0))
		a.PutExtra(DraftKey, int64(0))
		a.SetContentView(layout)
	}
	cls.Callbacks.OnSaveInstanceState = func(a *app.Activity, out *bundle.Bundle) {
		c, _ := a.Extra(SavedKey).(int64)
		out.PutInt(SavedKey, c)
	}
	cls.Callbacks.OnRestoreInstanceState = func(a *app.Activity, saved *bundle.Bundle) {
		a.PutExtra(SavedKey, saved.GetInt(SavedKey, 0))
	}
}

// EditorApp is the single-activity corpus app: one widget per taxonomy
// bucket, so every class of loss is observable.
func EditorApp() *app.App {
	res := resources.NewTable()
	bothOrientations(res, "layout/editor", func() *view.Spec {
		return view.Linear(EditorRoot,
			view.Edit(EditorEdit, ""),
			&view.Spec{Type: "CheckBox", ID: EditorDone, Text: "done"},
			&view.Spec{Type: "SeekBar", ID: EditorSeek, Max: 100},
			&view.Spec{Type: "ListView", ID: EditorList, Items: editorListItems},
			view.Text(EditorStatus, "idle"),
		)
	})
	cls := &app.ActivityClass{Name: "EditorActivity"}
	counterCallbacks(cls, "layout/editor")
	return &app.App{Name: "corpus.editor", Resources: res, Main: cls}
}

// counterFields appends the SavedKey/DraftKey extras to fs under the
// class's field names.
func counterFields(fs []oracle.Field, fg *app.Activity, notes, draft string) []oracle.Field {
	return append(fs, oracle.CounterField(fg, SavedKey, notes, true), oracle.CounterField(fg, DraftKey, draft, false))
}

// textAt renders an EditText's value as text@cursor.
func textAt(et *view.EditText) string { return et.Text() + "@" + strconv.Itoa(et.Cursor()) }

// editorProbe reads the editor's ground truth, one field per bucket. The
// widgets are the layout root's children, so one pass over them finds
// every one: the runner probes twice per step.
func editorProbe(fg *app.Activity, fs []oracle.Field) []oracle.Field {
	if root, ok := fg.FindViewByID(EditorRoot).(view.Container); ok {
		for _, v := range root.Children() {
			switch v := v.(type) {
			case *view.EditText:
				if v.ID() == EditorEdit {
					fs = append(fs, oracle.Field{Name: "Editor.text", Value: textAt(v), View: true, Saved: true})
				}
			case *view.CheckBox:
				if v.ID() == EditorDone {
					fs = append(fs, oracle.Field{Name: "Editor.done", Value: strconv.FormatBool(v.Checked()), View: true, Saved: true})
				}
			case *view.SeekBar:
				if v.ID() == EditorSeek {
					fs = append(fs, oracle.Field{Name: "Editor.volume", Value: strconv.Itoa(v.Progress()), View: true})
				}
			case *view.ListView:
				if v.ID() == EditorList {
					fs = append(fs, oracle.Field{Name: "Editor.row", Value: strconv.Itoa(v.SelectorPosition()), View: true})
				}
			case *view.TextView:
				if v.ID() == EditorStatus {
					fs = append(fs, oracle.Field{Name: "Editor.status", Value: v.Text(), View: true})
				}
			}
		}
	}
	return counterFields(fs, fg, "Editor.notes", "Editor.draft")
}

// DoubleRotation is the classic DLD shape: user state in every bucket,
// then two rotations back to back so the second change lands inside the
// first one's handling window.
func DoubleRotation() Scenario {
	return Scenario{
		Name:  "double-rotation",
		About: "state in every bucket, then back-to-back rotations landing mid-handling",
		App:   EditorApp,
		Probe: editorProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepType, ID: EditorEdit, Text: "meeting notes", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepSetText, ID: EditorStatus, Text: "editing", Settle: 30 * time.Millisecond},
			{Kind: oracle.StepCheck, ID: EditorDone, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepSeek, ID: EditorSeek, N: 40, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepSelect, ID: EditorList, N: 2, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: SavedKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: DraftKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 40 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// KillResume is the background-kill-then-resume shape: unsaved input
// before the kill resets with the process (legitimate, on both
// handlers); unsaved input accumulated after the resume is what the next
// rotation exposes.
func KillResume() Scenario {
	return Scenario{
		Name:  "kill-resume",
		About: "process death with a system-held bundle, fresh unsaved input, then a rotation",
		App:   EditorApp,
		Probe: editorProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepType, ID: EditorEdit, Text: "draft body", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepSeek, ID: EditorSeek, N: 70, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: SavedKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: DraftKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepKill, Settle: 100 * time.Millisecond},
			{Kind: oracle.StepSetText, ID: EditorStatus, Text: "recovered", Settle: 30 * time.Millisecond},
			{Kind: oracle.StepSeek, ID: EditorSeek, N: 35, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: DraftKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// Back-stack app view ids.
const (
	InboxRoot    view.ID = 1
	InboxList    view.ID = 14
	InboxStatus  view.ID = 15
	ComposeRoot  view.ID = 20
	ComposeEdit  view.ID = 21
	ComposeSeek  view.ID = 23
	ComposeClass         = "ComposeActivity"
)

// BackStackApp is the two-activity corpus app: an inbox that starts a
// compose screen on top of it.
func BackStackApp() *app.App {
	res := resources.NewTable()
	bothOrientations(res, "layout/inbox", func() *view.Spec {
		return view.Linear(InboxRoot,
			&view.Spec{Type: "ListView", ID: InboxList, Items: editorListItems},
			view.Text(InboxStatus, "inbox"),
		)
	})
	bothOrientations(res, "layout/compose", func() *view.Spec {
		return view.Linear(ComposeRoot,
			view.Edit(ComposeEdit, ""),
			&view.Spec{Type: "SeekBar", ID: ComposeSeek, Max: 100},
		)
	})
	inbox := &app.ActivityClass{Name: "InboxActivity"}
	counterCallbacks(inbox, "layout/inbox")
	compose := &app.ActivityClass{Name: ComposeClass}
	counterCallbacks(compose, "layout/compose")
	return &app.App{
		Name:       "corpus.backstack",
		Resources:  res,
		Main:       inbox,
		Activities: map[string]*app.ActivityClass{inbox.Name: inbox, compose.Name: compose},
	}
}

// backStackProbe dispatches on the foreground class; field names carry
// the class prefix so a finished activity's expectations can be dropped.
func backStackProbe(fg *app.Activity, fs []oracle.Field) []oracle.Field {
	if fg.Class().Name == ComposeClass {
		if et, ok := fg.FindViewByID(ComposeEdit).(*view.EditText); ok {
			fs = append(fs, oracle.Field{Name: "Compose.text", Value: textAt(et), View: true, Saved: true})
		}
		if sb, ok := fg.FindViewByID(ComposeSeek).(*view.SeekBar); ok {
			fs = append(fs, oracle.Field{Name: "Compose.volume", Value: strconv.Itoa(sb.Progress()), View: true})
		}
		return counterFields(fs, fg, "Compose.notes", "Compose.draft")
	}
	if lv, ok := fg.FindViewByID(InboxList).(*view.ListView); ok {
		fs = append(fs, oracle.Field{Name: "Inbox.row", Value: strconv.Itoa(lv.SelectorPosition()), View: true})
	}
	if tv, ok := fg.FindViewByID(InboxStatus).(*view.TextView); ok {
		fs = append(fs, oracle.Field{Name: "Inbox.status", Value: tv.Text(), View: true})
	}
	return counterFields(fs, fg, "Inbox.notes", "Inbox.draft")
}

// BackStack is the navigation shape: state on a covered activity must
// survive changes delivered while another activity owns the screen, and
// back navigation legitimately discards the finished screen's state.
func BackStack() Scenario {
	return Scenario{
		Name:  "backstack",
		About: "compose over inbox: rotate on top, navigate back, rotate the survivor",
		App:   BackStackApp,
		Probe: backStackProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepSelect, ID: InboxList, N: 3, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepStart, Class: ComposeClass, Settle: 500 * time.Millisecond},
			{Kind: oracle.StepType, ID: ComposeEdit, Text: "reply text", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepSeek, ID: ComposeSeek, N: 55, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: DraftKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepBack, Settle: 500 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		NoKill:       true,
		MaxInstances: 4, // inbox + compose + shadow + one transient zombie
		MaxVisible:   2, // start/back transitions overlap two visible activities
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// Mail app (dialog + fragment) view ids.
const (
	MailRoot      view.ID = 1
	MailContainer view.ID = 50
	MailRecipient view.ID = 57
	FragmentClass         = "ComposeFragment"
)

// DialogFragmentApp is the dynamic-UI corpus app: a host activity that
// attaches a fragment at runtime and shows a progress dialog an async
// completion later dismisses — the §2.2/§2.3 shapes static patching
// cannot cover.
func DialogFragmentApp() *app.App {
	res := resources.NewTable()
	bothOrientations(res, "layout/mail", func() *view.Spec {
		return view.Linear(MailRoot,
			view.Text(2, "Mail"),
			view.Group("FrameLayout", MailContainer),
		)
	})
	frag := &app.FragmentClass{
		Name: FragmentClass,
		OnCreateView: func(f *app.Fragment, host *app.Activity) *view.Spec {
			return view.Linear(55,
				view.Text(56, "To:"),
				&view.Spec{Type: "CustomTextView", ID: MailRecipient},
			)
		},
	}
	cls := &app.ActivityClass{
		Name:            "MailActivity",
		FragmentClasses: map[string]*app.FragmentClass{FragmentClass: frag},
	}
	counterCallbacks(cls, "layout/mail")
	return &app.App{Name: "corpus.mail", Resources: res, Main: cls}
}

// mailProbe reads the fragment's typed text (view state stock loses),
// the fragment count (meta the stock contract persists), the showing
// dialog count and the counters.
func mailProbe(fg *app.Activity, fs []oracle.Field) []oracle.Field {
	if tv, ok := fg.FindViewByID(MailRecipient).(*view.CustomTextView); ok {
		fs = append(fs, oracle.Field{Name: "Mail.recipient", Value: tv.Text(), View: true})
	}
	fs = append(fs,
		oracle.Field{Name: "Mail.fragments", Value: strconv.Itoa(fg.Fragments().Count()), Saved: true},
		oracle.Field{Name: "Mail.dialogs", Value: strconv.Itoa(fg.ShowingDialogs()), View: true},
	)
	return counterFields(fs, fg, "Mail.notes", "Mail.draft")
}

// DialogFragment is the mid-change dynamic-UI shape: a rotation while
// the progress dialog is showing leaks the window under stock (the
// restart destroys the owner before the async dismissal runs); the
// fragment's typed text rides along as the view-state casualty.
func DialogFragment() Scenario {
	return Scenario{
		Name:  "dialog-fragment",
		About: "fragment text and a progress dialog dismissed by an async completion across a rotation",
		App:   DialogFragmentApp,
		Probe: mailProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepFragment, Class: FragmentClass, Text: "compose", ID: MailContainer, Settle: 50 * time.Millisecond},
			{Kind: oracle.StepSetText, ID: MailRecipient, Text: "bob@example.com", Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: SavedKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepDialog, Text: "sending", Settle: 30 * time.Millisecond},
			// The async completion dismisses the dialog 400ms later; every
			// surviving path ends with it closed.
			{Kind: oracle.StepAsync, Work: 400 * time.Millisecond, Settle: 30 * time.Millisecond,
				Expect: []oracle.Field{{Name: "Mail.dialogs", Value: "0", View: true}}},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: 2 * time.Second},
		},
		AsyncDrain:    time.Second,
		StockMayCrash: true,
		StockMayLose:  []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:    []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// ThemeSwitch is the DLD theme-toggle shape: the user edits, flips the
// app into night mode, and a rotation lands right inside the night
// change's handling window — two runtime changes on different
// configuration dimensions in flight at once. Unlike the
// double-rotation shape, the racing pair can never cancel out (a
// second rotation delivered before the first applies no-ops against
// the old instance's orientation; rotation-after-night cannot), so
// every schedule that stacks an injected change here keeps three
// distinct changes live across one relaunch. The closing day toggle
// returns the app to its boot theme and settles fully, so the final
// probe reads a twice-relaunched instance.
func ThemeSwitch() Scenario {
	return Scenario{
		Name:  "theme-switch",
		About: "night-mode toggle mid-edit with a rotation landing inside its handling window",
		App:   EditorApp,
		Probe: editorProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepType, ID: EditorEdit, Text: "night draft", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepCheck, ID: EditorDone, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepSeek, ID: EditorSeek, N: 60, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepSetText, ID: EditorStatus, Text: "dark", Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: SavedKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepBump, Text: DraftKey, Settle: 30 * time.Millisecond},
			{Kind: oracle.StepNight, N: int(config.UIModeNight), Settle: 40 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 40 * time.Millisecond},
			{Kind: oracle.StepNight, N: int(config.UIModeDay), Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// QuarantineRecovery is the supervision shape behind guarded seed 613: a
// forced quarantine routes changes through the stock path, probation
// recovers the class after two clean stock changes, and changes landing
// behind a still-relaunching stock route reproduce the stale-relaunch
// race the handling-generation guard closes.
//
// The step timing is engineered around the deterministic stock-relaunch
// latency (~140 ms delivery-to-resume): the second quarantined rotate
// settles for 100 ms, so a config injected at its edge queues behind the
// in-flight relaunch, and the scripted night-mode toggle right after it
// queues immediately behind that injection. Both deliveries then drain
// back to back when the relaunch finishes — the injected change opens a
// stock route whose save/teardown/relaunch phases are still queued when
// the night change's handler entry arrives, which is exactly the window
// where only the handling-generation guard keeps the stale relaunch from
// running. The night toggle (rather than a third rotation) is what keeps
// the racing change real: a second rotation delivered before the first
// applied would no-op against the old instance's orientation.
func QuarantineRecovery() Scenario {
	return Scenario{
		Name:  "quarantine-recovery",
		About: "forced quarantine, probation recovery, changes racing the queued stock relaunch",
		App:   EditorApp,
		Probe: editorProbe,
		Steps: []oracle.Step{
			{Kind: oracle.StepType, ID: EditorEdit, Text: "quarantined draft", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepQuarantine, Class: "EditorActivity", Settle: 20 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 40 * time.Millisecond},
			{Kind: oracle.StepIdle, Settle: 800 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 100 * time.Millisecond},
			{Kind: oracle.StepNight, N: int(config.UIModeNight), Settle: 40 * time.Millisecond},
			{Kind: oracle.StepIdle, Settle: 760 * time.Millisecond},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		NoKill:       true,
		Guarded:      true,
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}
