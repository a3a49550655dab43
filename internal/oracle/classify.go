package oracle

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// LossBucket locates where a lost piece of user state lived, following
// the Data Loss Detector taxonomy: view-held vs non-view state, crossed
// with whether the stock saved-instance-state contract covers it. The
// bucket is what turns "the runs diverged" into "the handler dropped
// non-view state the app never saved" — the report a data-loss study
// needs.
type LossBucket int

const (
	// LossViewSaved — widget state the stock contract persists (EditText
	// text and cursor, CheckBox checked). Losing it means the
	// save/restore path itself broke.
	LossViewSaved LossBucket = iota
	// LossViewUnsaved — widget state stock Android drops on restart
	// (SeekBar progress, list selection, programmatic TextView text).
	LossViewUnsaved
	// LossNonViewSaved — activity-private state the app persists through
	// onSaveInstanceState.
	LossNonViewSaved
	// LossNonViewUnsaved — in-memory activity state (extras, fields)
	// never written to any bundle.
	LossNonViewUnsaved

	NumLossBuckets
)

// String names the bucket for reports.
func (b LossBucket) String() string {
	switch b {
	case LossViewSaved:
		return "view/saved"
	case LossViewUnsaved:
		return "view/unsaved"
	case LossNonViewSaved:
		return "nonview/saved"
	case LossNonViewUnsaved:
		return "nonview/unsaved"
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// Field is one probed piece of user state with its taxonomy coordinates.
// Scenario probes (internal/oracle/corpus) return the foreground
// instance's state as a field list; the classifier diffs two lists.
type Field struct {
	// Name identifies the field; multi-activity scenarios prefix it with
	// the owning class ("Compose.text") so expectations stay per-class.
	Name string
	// Value is the field's rendered value (comparison is string equality).
	Value string
	// View marks state held by a widget rather than the activity.
	View bool
	// Saved marks state the stock saved-instance-state path carries.
	Saved bool
}

// Bucket returns the taxonomy bucket the field's loss would land in.
func (f Field) Bucket() LossBucket {
	switch {
	case f.View && f.Saved:
		return LossViewSaved
	case f.View:
		return LossViewUnsaved
	case f.Saved:
		return LossNonViewSaved
	}
	return LossNonViewUnsaved
}

// Loss is one classified divergence between expected and actual state.
type Loss struct {
	Field    string
	Bucket   LossBucket
	Expected string
	Actual   string
}

// String renders the loss for failure output and replay logs.
func (l Loss) String() string {
	return fmt.Sprintf("%s [%s]: want %q, got %q", l.Field, l.Bucket, l.Expected, l.Actual)
}

// ClassifyLoss diffs two probes field by field. Fields are matched by
// name, order-independently (a probe holds a handful of fields, so a
// linear match beats building a map); a field present in expected but
// absent from actual is a loss with Actual "<absent>". Fields only
// present in actual are ignored — state that appeared is not state that
// was lost. Losses come back sorted by field name, so reports are
// deterministic.
func ClassifyLoss(expected, actual []Field) []Loss {
	var losses []Loss
	for i, want := range expected {
		j := fieldIndex(actual, want.Name)
		if j >= 0 && actual[j].Value == want.Value {
			continue
		}
		have := "<absent>"
		if j >= 0 {
			have = actual[j].Value
		}
		if losses == nil {
			losses = make([]Loss, 0, len(expected)-i)
		}
		losses = append(losses, Loss{Field: want.Name, Bucket: want.Bucket(), Expected: want.Value, Actual: have})
	}
	slices.SortFunc(losses, func(a, b Loss) int { return strings.Compare(a.Field, b.Field) })
	return losses
}

// TallyLosses counts losses per bucket.
func TallyLosses(losses []Loss) [NumLossBuckets]int {
	var t [NumLossBuckets]int
	for _, l := range losses {
		if l.Bucket >= 0 && l.Bucket < NumLossBuckets {
			t[l.Bucket]++
		}
	}
	return t
}

// FormatTally renders a bucket tally in canonical bucket order.
func FormatTally(t [NumLossBuckets]int) string {
	var buf [80]byte
	return string(AppendTally(buf[:0], t))
}

// AppendTally appends FormatTally's rendering of t to dst, for callers
// that build a longer line around it.
func AppendTally(dst []byte, t [NumLossBuckets]int) []byte {
	for b := LossBucket(0); b < NumLossBuckets; b++ {
		if b > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, b.String()...)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, int64(t[b]), 10)
	}
	return dst
}
