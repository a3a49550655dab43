// Package resources models Android's configuration-qualified resource
// system (res/layout-land, res/values-fr, …). When a runtime change
// arrives, the framework re-resolves every resource against the new
// configuration; restart-based handling exists precisely so this
// re-resolution happens. The table here performs Android-style best-match
// selection: a variant is eligible if every qualifier it specifies matches
// the configuration, and the most specific eligible variant wins.
package resources

import (
	"fmt"
	"sort"

	"rchdroid/internal/config"
)

// Qualifiers restricts a resource variant to configurations it matches.
// Zero-valued fields are wildcards.
type Qualifiers struct {
	// Orientation restricts to portrait or landscape when non-zero.
	Orientation config.Orientation
	// Locale restricts to an exact locale tag when non-empty.
	Locale string
	// MinWidthDP restricts to screens at least this wide (sw<N>dp).
	MinWidthDP int
	// UIMode restricts to day or night when Set.
	UIMode config.UIMode
	// UIModeSet marks UIMode as specified (day is the zero value).
	UIModeSet bool
	// MinDensityDPI restricts to densities at least this high.
	MinDensityDPI int
}

// AnyConfig is the unqualified (default) variant selector.
var AnyConfig = Qualifiers{}

// Matches reports whether cfg satisfies every specified qualifier.
func (q Qualifiers) Matches(cfg config.Configuration) bool {
	if q.Orientation != config.OrientationUndefined && cfg.Orientation != q.Orientation {
		return false
	}
	if q.Locale != "" && cfg.Locale != q.Locale {
		return false
	}
	if q.MinWidthDP > 0 {
		// Approximate dp width = px * 160 / dpi, per Android's definition.
		widthDP := cfg.ScreenWidth * 160 / max(cfg.DensityDPI, 1)
		if widthDP < q.MinWidthDP {
			return false
		}
	}
	if q.UIModeSet && cfg.UIMode != q.UIMode {
		return false
	}
	if q.MinDensityDPI > 0 && cfg.DensityDPI < q.MinDensityDPI {
		return false
	}
	return true
}

// Specificity counts the specified qualifiers; higher wins ties between
// eligible variants, mirroring Android's "more specific beats less
// specific" rule.
func (q Qualifiers) Specificity() int {
	n := 0
	if q.Orientation != config.OrientationUndefined {
		n++
	}
	if q.Locale != "" {
		n++
	}
	if q.MinWidthDP > 0 {
		n++
	}
	if q.UIModeSet {
		n++
	}
	if q.MinDensityDPI > 0 {
		n++
	}
	return n
}

func (q Qualifiers) String() string {
	s := ""
	if q.Orientation != config.OrientationUndefined {
		s += "-" + q.Orientation.String()
	}
	if q.Locale != "" {
		s += "-" + q.Locale
	}
	if q.MinWidthDP > 0 {
		s += fmt.Sprintf("-sw%ddp", q.MinWidthDP)
	}
	if q.UIModeSet {
		s += "-" + q.UIMode.String()
	}
	if q.MinDensityDPI > 0 {
		s += fmt.Sprintf("-%ddpi", q.MinDensityDPI)
	}
	if s == "" {
		return "default"
	}
	return s[1:]
}

type variant struct {
	qual  Qualifiers
	value any
	order int
}

// Table is a resource table: resource name → qualified variants.
// Resource names follow the "type/name" convention, e.g. "layout/main",
// "string/app_name", "drawable/icon". An app fills its table while it is
// built; after that the table is only read, so every process and world
// sharing the app may resolve through it concurrently.
type Table struct {
	entries map[string][]variant
	nextOrd int
}

// NewTable returns an empty resource table.
func NewTable() *Table {
	return &Table{entries: make(map[string][]variant)}
}

// Put registers a variant of the named resource. Later Puts with identical
// qualifiers override earlier ones.
func (t *Table) Put(name string, q Qualifiers, value any) {
	vs := t.entries[name]
	for i := range vs {
		if vs[i].qual == q {
			vs[i].value = value
			return
		}
	}
	t.entries[name] = append(vs, variant{qual: q, value: value, order: t.nextOrd})
	t.nextOrd++
}

// PutDefault registers the unqualified variant.
func (t *Table) PutDefault(name string, value any) {
	t.Put(name, AnyConfig, value)
}

// Names returns all resource names in sorted order.
func (t *Table) Names() []string {
	names := make([]string, 0, len(t.entries))
	for n := range t.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of distinct resource names.
func (t *Table) Len() int { return len(t.entries) }

// Resolve returns the best-matching variant of name for cfg, or
// (nil, false) if no variant matches.
func (t *Table) Resolve(name string, cfg config.Configuration) (any, bool) {
	vs, ok := t.entries[name]
	if !ok {
		return nil, false
	}
	best := -1
	bestSpec := -1
	for i, v := range vs {
		if !v.qual.Matches(cfg) {
			continue
		}
		spec := v.qual.Specificity()
		// Higher specificity wins; ties go to the earliest registration,
		// which keeps resolution deterministic.
		if spec > bestSpec || (spec == bestSpec && best >= 0 && vs[best].order > v.order) {
			best, bestSpec = i, spec
		}
	}
	if best < 0 {
		return nil, false
	}
	return vs[best].value, true
}

// String resolves a string resource, falling back to def.
func (t *Table) String(name string, cfg config.Configuration, def string) string {
	if v, ok := t.Resolve(name, cfg); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// MustResolve is Resolve but panics when the resource is missing — used
// for layout inflation where a missing layout is a programming error
// (Resources.NotFoundException on Android).
func (t *Table) MustResolve(name string, cfg config.Configuration) any {
	v, ok := t.Resolve(name, cfg)
	if !ok {
		panic(fmt.Sprintf("resources: %q not found for %v", name, cfg))
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
