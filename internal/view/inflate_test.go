package view

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"rchdroid/internal/bundle"
)

// referenceInflate is the inflater Inflate replaced, kept as the
// reference: construct each widget, then add each child through AddChild,
// which sets the parent, appends, attaches the child's subtree to the
// group's window and invalidates the group.
func referenceInflate(s *Spec) View {
	var v View
	switch s.Type {
	case "LinearLayout":
		v = NewLinearLayout(s.ID)
	case "FrameLayout":
		v = NewFrameLayout(s.ID)
	case "ViewGroup":
		v = NewGroup("ViewGroup", s.ID)
	case "TextView":
		v = NewTextView(s.ID, s.Text)
	case "EditText":
		v = NewEditText(s.ID, s.Text)
	case "Button":
		v = NewButton(s.ID, s.Text)
	case "CheckBox":
		v = NewCheckBox(s.ID, s.Text)
	case "ImageView":
		v = NewImageView(s.ID, s.Drawable)
	case "AbsListView":
		v = NewAbsListView(s.ID, append([]string(nil), s.Items...))
	case "ListView":
		v = NewListView(s.ID, append([]string(nil), s.Items...))
	case "GridView":
		v = NewGridView(s.ID, append([]string(nil), s.Items...))
	case "ScrollView":
		v = NewScrollView(s.ID, append([]string(nil), s.Items...))
	case "VideoView":
		v = NewVideoView(s.ID, s.URI)
	case "ProgressBar":
		v = NewProgressBar(s.ID, s.Max)
	case "SeekBar":
		v = NewSeekBar(s.ID, s.Max)
	case "CustomTextView":
		v = NewCustomTextView(s.ID, s.Text)
	case "Spinner":
		v = NewSpinner(s.ID, append([]string(nil), s.Items...))
	case "Switch":
		v = NewSwitch(s.ID, s.Text)
	case "RatingBar":
		v = NewRatingBar(s.ID, s.Max)
	case "Chronometer":
		v = NewChronometer(s.ID)
	default:
		panic(fmt.Sprintf("reference: unknown type %q", s.Type))
	}
	for _, c := range s.Children {
		v.(*ViewGroup).AddChild(referenceInflate(c))
	}
	return v
}

// everyWidget is a layout holding every widget type Inflate knows, a
// view without an ID, an empty group and groups nested three deep.
func everyWidget() *Spec {
	return Linear(1,
		Text(2, "title"),
		&Spec{Type: "TextView", Text: "no id"},
		Edit(3, "draft"),
		Btn(4, "go"),
		&Spec{Type: "CheckBox", ID: 5, Text: "opt"},
		Img(6, "drawable/a"),
		&Spec{Type: "AbsListView", ID: 7, Items: []string{"a"}},
		List(8, "x", "y", "z"),
		&Spec{Type: "GridView", ID: 9, Items: []string{"g1", "g2"}},
		&Spec{Type: "ScrollView", ID: 10, Items: []string{"s"}},
		&Spec{Type: "VideoView", ID: 11, URI: "file:///v.mp4"},
		&Spec{Type: "ProgressBar", ID: 12},
		&Spec{Type: "SeekBar", ID: 13, Max: 40},
		&Spec{Type: "CustomTextView", ID: 14, Text: "custom"},
		&Spec{Type: "Spinner", ID: 15, Items: []string{"p", "q"}},
		&Spec{Type: "Spinner", ID: 16},
		&Spec{Type: "Switch", ID: 17, Text: "on"},
		&Spec{Type: "RatingBar", ID: 18, Max: 5},
		&Spec{Type: "Chronometer", ID: 19},
		Group("FrameLayout", 20),
		Group("ViewGroup", 21,
			Linear(22,
				Group("FrameLayout", 23, Img(24, "drawable/b"), &Spec{Type: "VideoView", ID: 25}),
				Text(26, "deep"),
			),
			Img(27, "drawable/c"),
		),
	)
}

// TestInflateMatchesReference holds Inflate and InflateInto to the
// AddChild-by-AddChild inflater: the same types, IDs, section keys,
// widget state, parents, children, dirty flags, census and, once the
// tree joins a window, the same attach pointers, Invalidations count and
// invalidate callbacks. It also checks what the detached build adds:
// children slices at their exact size, no attach pointer before the
// tree joins a window, and section keys shared with the layout node.
func TestInflateMatchesReference(t *testing.T) {
	spec := everyWidget()
	got, want := Inflate(spec), referenceInflate(spec)
	compareTrees(t, got, want, nil, nil)
	Walk(got, func(v View) bool {
		if v.Base().attach != nil {
			t.Fatalf("%v: attached before joining a window", v)
		}
		return true
	})

	// The keys come from the layout nodes: a second inflation of the same
	// spec takes the very same strings.
	again := Inflate(spec)
	var keys []string
	Walk(again, func(v View) bool {
		keys = append(keys, v.Base().key)
		return true
	})
	i := 0
	Walk(got, func(v View) bool {
		k := v.Base().key
		if v.ID() == NoID {
			if k != "" {
				t.Fatalf("%v: NoID view has key %q", v, k)
			}
		} else if unsafe.StringData(k) != unsafe.StringData(keys[i]) {
			t.Fatalf("%v: key %q built again, not taken from its layout node", v, k)
		}
		i++
		return true
	})

	// Joining a window attaches the whole subtree once.
	gotDecor, wantDecor := NewDecorView(-1), NewDecorView(-1)
	var gotCalls, wantCalls []View
	gotDecor.AttachInfoRef().OnInvalidate = func(v View) { gotCalls = append(gotCalls, v) }
	wantDecor.AttachInfoRef().OnInvalidate = func(v View) { wantCalls = append(wantCalls, v) }
	InflateInto(gotDecor, spec)
	wantDecor.AddChild(referenceInflate(spec))
	compareTrees(t, gotDecor, wantDecor, gotDecor.AttachInfoRef(), wantDecor.AttachInfoRef())
	if g, w := gotDecor.AttachInfoRef().Invalidations, wantDecor.AttachInfoRef().Invalidations; g != w {
		t.Fatalf("Invalidations = %d, reference %d", g, w)
	}
	if len(gotCalls) != len(wantCalls) || len(gotCalls) != 1 || gotCalls[0] != View(gotDecor) {
		t.Fatalf("invalidate callbacks %v, reference %v", gotCalls, wantCalls)
	}

	// Later mutations behave alike, census included.
	gotList := FindByID(gotDecor, 8).(*ListView)
	wantList := FindByID(wantDecor, 8).(*ListView)
	for _, l := range []*ListView{gotList, wantList} {
		l.SetItemChecked(2, true)
		l.SetItemChecked(0, true)
		l.SetItemChecked(2, false)
		l.PositionSelector(1)
	}
	for _, d := range []*DecorView{gotDecor, wantDecor} {
		g := FindByID(d, 20).(*ViewGroup)
		g.AddChild(NewImageView(30, "drawable/d"))
		g.AddChild(NewTextView(31, "t"))
		d.Children()[0].(*ViewGroup).RemoveChild(FindByID(d, 21))
	}
	compareTrees(t, gotDecor, wantDecor, gotDecor.AttachInfoRef(), wantDecor.AttachInfoRef())
	if spec.Children[7].Items[0] != "x" || len(spec.Children[7].Items) != 3 {
		t.Fatalf("a list wrote into its layout node's items: %v", spec.Children[7].Items)
	}
}

// compareTrees walks got and want in step and fails at the first node
// that differs. gotWin and wantWin are the windows the trees belong to
// (nil while detached).
func compareTrees(t *testing.T, got, want View, gotWin, wantWin *AttachInfo) {
	t.Helper()
	gotNodes, wantNodes := map[*BaseView]int{}, map[*BaseView]int{}
	var gs, ws []View
	Walk(got, func(v View) bool { gotNodes[v.Base()] = len(gs); gs = append(gs, v); return true })
	Walk(want, func(v View) bool { wantNodes[v.Base()] = len(ws); ws = append(ws, v); return true })
	if len(gs) != len(ws) {
		t.Fatalf("%d views, reference %d", len(gs), len(ws))
	}
	index := func(nodes map[*BaseView]int, g *ViewGroup) int {
		if g == nil {
			return -1
		}
		i, ok := nodes[&g.BaseView]
		if !ok {
			return -2
		}
		return i
	}
	for i := range gs {
		g, w := gs[i], ws[i]
		gb, wb := g.Base(), w.Base()
		where := fmt.Sprintf("view %d (%v)", i, g)
		switch {
		case reflect.TypeOf(g) != reflect.TypeOf(w):
			t.Fatalf("%s: type %T, reference %T", where, g, w)
		case g.ID() != w.ID() || g.TypeName() != w.TypeName():
			t.Fatalf("%s: %s#%d, reference %s#%d", where, g.TypeName(), g.ID(), w.TypeName(), w.ID())
		case g.ID() != NoID && gb.sectionKey() != wb.sectionKey():
			t.Fatalf("%s: key %q, reference %q", where, gb.sectionKey(), wb.sectionKey())
		case index(gotNodes, gb.parent) != index(wantNodes, wb.parent):
			t.Fatalf("%s: parent is view %d, reference %d", where, index(gotNodes, gb.parent), index(wantNodes, wb.parent))
		case gb.dirty != wb.dirty:
			t.Fatalf("%s: dirty=%v, reference %v", where, gb.dirty, wb.dirty)
		case (gb.attach == gotWin) != (wb.attach == wantWin) || (gb.attach == nil) != (wb.attach == nil):
			t.Fatalf("%s: attached to %p (window %p), reference %p (window %p)", where, gb.attach, gotWin, wb.attach, wantWin)
		case gb.visible != wb.visible || gb.released != wb.released || gb.self != g || wb.self != w:
			t.Fatalf("%s: flags or self differ", where)
		case Dump(g) != Dump(w):
			t.Fatalf("%s: renders\n%s\nreference\n%s", where, Dump(g), Dump(w))
		}
		gv, gm := Census(g)
		wv, wm := walkCensus(w)
		if gv != wv || gm != wm {
			t.Fatalf("%s: census %d views %d media, walk %d and %d", where, gv, gm, wv, wm)
		}
		if gc, ok := g.(Container); ok {
			wc := w.(Container)
			if len(gc.Children()) != len(wc.Children()) {
				t.Fatalf("%s: %d children, reference %d", where, len(gc.Children()), len(wc.Children()))
			}
		}
	}
	gotState, wantState := bundle.New(), bundle.New()
	got.SaveState(gotState)
	want.SaveState(wantState)
	if !gotState.Equal(wantState) {
		t.Fatalf("saved state differs:\n%s\nreference\n%s", gotState, wantState)
	}
	Walk(got, func(v View) bool {
		if g, ok := v.(*ViewGroup); ok && g.attach == nil && cap(g.children) != len(g.children) {
			t.Fatalf("%v: detached children slice has cap %d for %d children", v, cap(g.children), len(g.children))
		}
		return true
	})
}

// walkCensus counts the tree rooted at v by walking it.
func walkCensus(v View) (views, media int) {
	Walk(v, func(x View) bool {
		views++
		switch x.(type) {
		case *ImageView, *VideoView:
			media++
		}
		return true
	})
	return views, media
}

// TestInflateSharedSpecConcurrently inflates one layout from several
// goroutines at once, as explorer workers and fleet shards inflate one
// shared app: under -race, the layout nodes' key memo must not race, and
// every tree gets the same keys.
func TestInflateSharedSpecConcurrently(t *testing.T) {
	spec := everyWidget()
	const workers = 4
	dumps := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			root := Inflate(spec)
			state := bundle.New()
			root.SaveState(state)
			dumps[i] = state.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if dumps[i] != dumps[0] {
			t.Fatalf("worker %d saved\n%s\nworker 0 saved\n%s", i, dumps[i], dumps[0])
		}
	}
}
